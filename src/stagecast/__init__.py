"""stagecast: neural river-stage surrogates trained against a shallow-water solver."""

import os as _os

# Honor the worker cap before numpy configures its BLAS thread pool; this
# package is imported before numpy in every supported entry point.
_threads = _os.environ.get("STAGECAST_THREADS")
if _threads and _threads.isdigit():
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

__version__ = "0.1.0"

from .geometry import (  # noqa: E402
    ChannelGeometry,
    BoundaryConditions,
    RiverScenario,
    TimeSeries,
    interpolate_boundary,
    make_flood_wave_scenario,
    normal_depth,
)
from .solver import FlowField, SolverConfig, SolverError, check_mass_balance, solve  # noqa: E402
from .surrogate import (  # noqa: E402
    Dual,
    FourierEncoder,
    NormalizationBox,
    SurrogateModel,
    encode,
    init_model,
    predict,
    predict_batch,
)
from .training import (  # noqa: E402
    AdamState,
    TrainConfig,
    TrainingDiverged,
    TrainingSet,
    adam_step,
    build_training_set,
    data_loss,
    grid_search,
    physics_loss,
    total_loss,
    train,
)
from .evaluation import (  # noqa: E402
    AblationResult,
    BenchmarkReport,
    EvalReport,
    benchmark,
    evaluate,
    mrae,
    run_ablation,
)

__all__ = [
    "__version__",
    "ChannelGeometry",
    "BoundaryConditions",
    "RiverScenario",
    "TimeSeries",
    "interpolate_boundary",
    "make_flood_wave_scenario",
    "normal_depth",
    "FlowField",
    "SolverConfig",
    "SolverError",
    "check_mass_balance",
    "solve",
    "Dual",
    "FourierEncoder",
    "NormalizationBox",
    "SurrogateModel",
    "encode",
    "init_model",
    "predict",
    "predict_batch",
    "AdamState",
    "TrainConfig",
    "TrainingDiverged",
    "TrainingSet",
    "adam_step",
    "build_training_set",
    "data_loss",
    "grid_search",
    "physics_loss",
    "total_loss",
    "train",
    "AblationResult",
    "BenchmarkReport",
    "EvalReport",
    "benchmark",
    "evaluate",
    "mrae",
    "run_ablation",
]
