"""Command-line front end.

Five subcommands cover the full workflow:

    stagecast simulate   -- run the shallow-water solver, write a field file
    stagecast train      -- fit a surrogate to a saved field
    stagecast eval       -- score a checkpoint against a field
    stagecast benchmark  -- time solver vs. surrogate on one scenario
    stagecast ablate     -- run the three-configuration comparison

Each flag's ``dest`` names the parameter it feeds, and a flag left out is
not set, so the library function or config it feeds supplies the default.
Only ``--peak-factor``, ``--budget`` and ``ablate --seed``, whose
parameters have no default, carry one here.

Exit codes: 0 success, 1 file/parse errors and invalid values (including
bad command lines), 2 solver failures, 3 cross-input consistency errors,
4 training divergence of the loss or the gradient (partial history is still written).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .evaluation import benchmark as run_benchmark
from .evaluation import ABLATION_CONFIGS, DATUMS, evaluate, run_ablation
from .fileio import (
    ABLATION_RUN_FILES,
    CHECKPOINT_FILE,
    HISTORY_FILE,
    REPORT_FILES,
    SUMMARY_FILE,
    load_checkpoint,
    read_field,
    read_scenario,
    save_checkpoint,
    scenario_hash,
    write_ablation,
    write_benchmark,
    write_field,
    write_history,
    write_report,
    write_scenario,
)
from .geometry import make_flood_wave_scenario
from .solver import SolverConfig, SolverError, check_mass_balance, solve
from .surrogate import ACTIVATIONS, box_for_scenario, init_model
from .training import TrainConfig, TrainingDiverged, build_training_set, train

EXIT_OK = 0
EXIT_FORMAT = 1
EXIT_SOLVER = 2
EXIT_CONSISTENCY = 3
EXIT_DIVERGED = 4

_N_CELLS_HELP = "solver grid points along the reach, both ends included"


class ConsistencyError(Exception):
    """Inputs that are individually valid but do not belong together."""


class _Parser(argparse.ArgumentParser):
    """argparse's default usage-error exit code is 2; we reserve that for
    solver failures, so command-line mistakes exit 1 like other bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_FORMAT, f"{self.prog}: error: {message}\n")


def _given(args, *names) -> dict:
    """The flags among ``names`` that the user set, keyed by the parameter
    they feed; the rest take the library's defaults."""
    return {name: getattr(args, name) for name in names if name in args}


def _check_outputs(outputs, inputs=()) -> None:
    """Refuse, before any work, an output where no file can be made, that is
    one of the command's ``inputs`` or that is named twice.  Every command
    checks each file it writes here.  Makes nothing."""
    claimed = {Path(path).resolve(): "an input" for path in inputs}
    for path in map(Path, outputs):
        if path.is_dir():
            raise IsADirectoryError(f"cannot write {path}: it is a directory")
        ancestor = next(p for p in path.parents if p.exists())
        if not ancestor.is_dir():
            raise NotADirectoryError(f"cannot write {path}: {ancestor} is not a directory")
        key = path.resolve()
        if key in claimed:
            raise ValueError(f"cannot write {path}: it is {claimed[key]} of this command")
        claimed[key] = "another output"


def _check_hash(expected: str, actual: str, what: str) -> None:
    if expected != actual:
        raise ConsistencyError(
            f"{what}: scenario hash mismatch (expected {expected[:12]}..., got {actual[:12]}...)"
        )


def _scenario_and_field(args):
    """The ``--scenario``, its hash, and the ``--field`` solved from it."""
    scenario = read_scenario(args.scenario)
    digest = scenario_hash(scenario)
    field, field_digest = read_field(args.field)
    _check_hash(digest, field_digest, "field file")
    return scenario, digest, field


def _load_checkpoint_for(path, scenario, digest: str):
    """The checkpoint at ``path`` if it belongs to ``scenario``, whose hash is
    ``digest``: by its recorded hash and by its normalization box."""
    model, ckpt_digest = load_checkpoint(path)
    _check_hash(digest, ckpt_digest, "checkpoint")
    if model.norm != box_for_scenario(scenario):
        raise ConsistencyError("checkpoint normalization box does not match the scenario domain")
    return model


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> int:
    if "synthetic_stations" in args:
        _check_outputs((args.scenario, args.field_out))
    else:
        _check_outputs((args.field_out,), inputs=(args.scenario,))
    config = SolverConfig(**_given(args, "n_cells", "cfl"))  # reject bad knobs before writing
    if "synthetic_stations" in args:
        scenario = make_flood_wave_scenario(
            args.synthetic_stations, args.peak_factor, **_given(args, "seed")
        )
        write_scenario(scenario, args.scenario)
        print(f"wrote synthetic scenario ({args.synthetic_stations} stations) to {args.scenario}")
    else:
        scenario = read_scenario(args.scenario)

    field = solve(scenario, config)
    digest = scenario_hash(scenario)
    write_field(field, digest, args.field_out)

    balance = check_mass_balance(field, scenario)
    print(f"solved {len(field.x_miles)} stations x {len(field.t_hours)} times "
          f"in {field.wall_clock_seconds:.2f} s (n_cells={config.n_cells})")
    print(f"mass balance error: {balance:.3e}")
    print(f"field written to {args.field_out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def _cmd_train(args) -> int:
    history_path, ckpt_path = Path(args.out_dir, HISTORY_FILE), Path(args.out_dir, CHECKPOINT_FILE)
    _check_outputs((history_path, ckpt_path), inputs=(args.scenario, args.field))
    scenario, digest, field = _scenario_and_field(args)
    training_set = build_training_set(field, scenario)
    model = init_model(training_set.norm, **_given(
        args, "n_blocks", "width", "m", "sigma", "activation", "seed", "use_fourier"
    ))
    config = TrainConfig(**_given(
        args, "lambda_physics", "batch_size", "collocation_per_batch", "lr_initial",
        "lr_decay_rate", "lr_decay_every", "max_iterations", "seed", "record_every",
    ))

    try:
        trained, history = train(model, training_set, config)
    except TrainingDiverged as err:
        write_history(err.history, history_path)
        print(f"training diverged: {err}", file=sys.stderr)
        print(f"partial history written to {history_path}", file=sys.stderr)
        return EXIT_DIVERGED

    write_history(history, history_path)
    save_checkpoint(trained, ckpt_path, scenario_digest=digest)
    if history:
        print(f"trained {config.max_iterations} iterations; final data loss "
              f"{history[-1].data_loss:.6e}, physics loss {history[-1].physics_loss:.6e}")
    print(f"checkpoint written to {ckpt_path}")
    print(f"history written to {history_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _cmd_eval(args) -> int:
    out_dir = Path(args.out_dir)
    _check_outputs([out_dir / name for name in REPORT_FILES],
                   inputs=(args.scenario, args.field, args.checkpoint))
    scenario, digest, field = _scenario_and_field(args)
    model = _load_checkpoint_for(args.checkpoint, scenario, digest)

    report = evaluate(model, field, scenario, **_given(args, "datum", "collocation_seed"))
    write_report(report, out_dir)
    print(f"overall stage MRAE:    {report.overall_stage_mrae:.4f}")
    print(f"overall velocity MRAE: {report.overall_velocity_mrae:.4f}")
    print(f"max stage abs error:   {report.max_stage_abs_error_ft:.4f} ft")
    print(f"mean physics residual: {report.mean_physics_residual:.4e}")
    print(f"report written to {out_dir / REPORT_FILES[0]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# benchmark


def _cmd_benchmark(args) -> int:
    if "json_out" in args:
        _check_outputs((args.json_out,), inputs=(args.scenario, args.checkpoint))
    scenario = read_scenario(args.scenario)
    model = _load_checkpoint_for(args.checkpoint, scenario, scenario_hash(scenario))

    result = run_benchmark(model, scenario, **_given(args, "repetitions", "n_cells"))
    print(f"solver median:    {result.solver_median:.3f} s "
          f"({result.repetitions} repetitions)")
    print(f"surrogate median: {result.surrogate_median:.6f} s "
          f"({result.n_points} points)")
    print(f"speedup:          {result.speedup:.3g}x")
    if "json_out" in args:
        write_benchmark(result, args.json_out)
        print(f"benchmark written to {args.json_out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ablate


def _cmd_ablate(args) -> int:
    out_dir = Path(args.out_dir)
    runs = [out_dir / name / file for name in ABLATION_CONFIGS for file in ABLATION_RUN_FILES]
    _check_outputs([out_dir / SUMMARY_FILE, *runs], inputs=(args.scenario,))
    scenario = read_scenario(args.scenario)
    result = run_ablation(scenario, args.budget_iters, args.seed, **_given(
        args, "sigma", "lambda_full", "width", "n_blocks", "m", "activation", "batch_size",
        "n_cells",
    ))
    write_ablation(result, out_dir)

    print(f"{'config':<14}{'stage MRAE':>12}{'data loss':>14}{'phys resid':>14}")
    for name, run in result.runs.items():
        if run.diverged:
            print(f"{name:<14}{'diverged':>12}")
        else:
            print(f"{name:<14}{run.report.overall_stage_mrae:>12.4f}"
                  f"{run.training_data_loss:>14.4e}"
                  f"{run.report.mean_physics_residual:>14.4e}")
    print(f"summary written to {out_dir / SUMMARY_FILE}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _command(sub, name: str, func, summary: str) -> argparse.ArgumentParser:
    """A subcommand whose flags, when left out, are not set at all."""
    p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
    p.set_defaults(func=func)
    return p


def _network_flags(p: argparse.ArgumentParser) -> None:
    """The architecture and batch flags that ``train`` and ``ablate`` share."""
    p.add_argument("--width", type=int, help="hidden layer width")
    p.add_argument("--blocks", dest="n_blocks", type=int, metavar="BLOCKS",
                   help="number of residual blocks")
    p.add_argument("--fourier-size", dest="m", type=int, metavar="FOURIER_SIZE",
                   help="number of Fourier feature rows")
    p.add_argument("--activation", choices=ACTIVATIONS, help="hidden activation")
    p.add_argument("--batch-size", type=int, help="supervised points per iteration")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stagecast",
        description="Physics-guided neural surrogates for river stage forecasting.",
    )
    parser.add_argument("--version", action="version", version=f"stagecast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = _command(sub, "simulate", _cmd_simulate, "run the shallow-water solver and save the field")
    p.add_argument("--scenario", required=True,
                   help="scenario file to read (or to write, with --synthetic-stations)")
    p.add_argument("--field-out", required=True, help="output path for the simulated field")
    p.add_argument("--n-cells", type=int, help=_N_CELLS_HELP)
    p.add_argument("--cfl", type=float, help="CFL number for adaptive stepping")
    p.add_argument("--synthetic-stations", type=int, metavar="N",
                   help="generate an N-station flood-wave scenario, write it to "
                        "--scenario, then solve it")
    p.add_argument("--peak-factor", type=float, default=3.0,
                   help="flood peak / baseflow ratio for synthetic scenarios")
    p.add_argument("--seed", type=int, help="seed for synthetic scenario jitter")

    p = _command(sub, "train", _cmd_train, "fit a surrogate to a saved field")
    p.add_argument("--scenario", required=True, help="scenario file the field was solved from")
    p.add_argument("--field", required=True, help="field file with the training data")
    p.add_argument("--out-dir", required=True,
                   help=f"directory for {CHECKPOINT_FILE} and {HISTORY_FILE}")
    p.add_argument("--lambda", dest="lambda_physics", type=float, metavar="LAMBDA",
                   help="weight on the physics residual loss (0 disables collocation)")
    p.add_argument("--sigma", type=float, help="Fourier feature bandwidth")
    p.add_argument("--iterations", dest="max_iterations", type=int, metavar="ITERATIONS",
                   help="training iterations")
    p.add_argument("--collocation", dest="collocation_per_batch", type=int,
                   metavar="COLLOCATION",
                   help="collocation points per iteration (default: batch size)")
    p.add_argument("--lr", dest="lr_initial", type=float, metavar="LR",
                   help="initial learning rate")
    p.add_argument("--lr-decay-rate", type=float, help="multiplicative decay factor")
    p.add_argument("--lr-decay-every", type=int, help="iterations per decay factor")
    p.add_argument("--seed", type=int, help="seed for init, batching, collocation")
    p.add_argument("--record-every", type=int, help="history record cadence")
    _network_flags(p)
    p.add_argument("--no-fourier", dest="use_fourier", action="store_false",
                   help="feed raw normalized coordinates instead of Fourier features")

    p = _command(sub, "eval", _cmd_eval, "score a checkpoint against a saved field")
    p.add_argument("--checkpoint", required=True, help="checkpoint file to load")
    p.add_argument("--field", required=True, help="reference field file")
    p.add_argument("--scenario", required=True, help="scenario both inputs must match")
    p.add_argument("--out-dir", required=True,
                   help=f"directory for {REPORT_FILES[0]} and the CSV side files")
    p.add_argument("--datum", choices=DATUMS,
                   help="compare water depth or water-surface elevation")
    p.add_argument("--collocation-seed", type=int, help="seed for the physics-residual sample")

    p = _command(sub, "benchmark", _cmd_benchmark, "time the solver against the surrogate")
    p.add_argument("--checkpoint", required=True, help="checkpoint file to load")
    p.add_argument("--scenario", required=True, help="scenario to solve and predict")
    p.add_argument("--repetitions", type=int, help="timing repetitions (>= 3)")
    p.add_argument("--n-cells", type=int, help=_N_CELLS_HELP)
    p.add_argument("--json-out", help="optional path for the timing JSON")

    p = _command(sub, "ablate", _cmd_ablate, "train base / fourier_only / full and compare")
    p.add_argument("--scenario", required=True, help="scenario file to solve and fit")
    p.add_argument("--out-dir", required=True, help="directory for per-config results")
    p.add_argument("--budget", dest="budget_iters", type=int, default=5000, metavar="BUDGET",
                   help="iterations per configuration")
    p.add_argument("--seed", type=int, default=0, help="shared seed for all three runs")
    p.add_argument("--sigma", type=float, help="Fourier bandwidth for the "
                   "fourier_only and full configurations")
    p.add_argument("--lambda-full", type=float, help="physics weight for the full configuration")
    _network_flags(p)
    p.add_argument("--n-cells", type=int, help=_N_CELLS_HELP)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except ConsistencyError as err:
        print(f"consistency error: {err}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (OSError, ValueError, MemoryError) as err:  # ValueError covers FormatError
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return EXIT_FORMAT
