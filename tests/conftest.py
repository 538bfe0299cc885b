import numpy as np
import pytest

from stagecast.geometry import make_flood_wave_scenario
from stagecast.solver import SolverConfig, solve
from stagecast.training import build_training_set


@pytest.fixture(scope="session")
def flood_scenario():
    """A small sharp-pulse scenario shared by the slower integration tests."""
    return make_flood_wave_scenario(8, 3.0, seed=11, t_total_hours=30.0)


@pytest.fixture(scope="session")
def flood_field(flood_scenario):
    return solve(flood_scenario, SolverConfig(n_cells=200))


@pytest.fixture(scope="session")
def flood_training_set(flood_field, flood_scenario):
    return build_training_set(flood_field, flood_scenario)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
