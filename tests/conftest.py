import threading

import numpy as np
import pytest

from stagecast.geometry import make_flood_wave_scenario
from stagecast.solver import SolverConfig, solve
from stagecast.training import build_training_set


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that ends with a Python thread alive that was not alive
    when it started: every thread a call starts is joined before it returns."""
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"threads left running: {leaked}")


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


@pytest.fixture()
def empty_field(tmp_path):
    """A hand-written field file of zero stations and zero times."""
    path = tmp_path / "empty_field.txt"
    path.write_text(
        "# stagecast field v1\n"
        "[field]\n"
        "n_stations = 0\n"
        "n_times = 0\n"
        "units = x:miles,t:hours,h:ft,u:ft/s\n"
        f"scenario_hash = {'0' * 64}\n"
        "wall_clock_seconds = 0.0\n"
        "x_miles:\n"
        "t_hours:\n"
        "\n"
        "[data]\n"
        "t_x_h_u:\n"
    )
    return path
