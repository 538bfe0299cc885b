"""Command-line front end.

Five subcommands cover the full workflow:

    stagecast simulate   -- run the shallow-water solver, write a field file
    stagecast train      -- fit a surrogate to a saved field
    stagecast eval       -- score a checkpoint against a field
    stagecast benchmark  -- time solver vs. surrogate on one scenario
    stagecast ablate     -- run the three-configuration comparison

Exit codes: 0 success, 1 file/parse errors and invalid values (including
bad command lines), 2 solver failures, 3 cross-input consistency errors,
4 training divergence (partial history is still written).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .evaluation import benchmark as run_benchmark
from .evaluation import evaluate, run_ablation
from .fileio import (
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
from .surrogate import box_for_scenario, init_model
from .training import TrainConfig, TrainingDiverged, build_training_set, train

EXIT_OK = 0
EXIT_FORMAT = 1
EXIT_SOLVER = 2
EXIT_CONSISTENCY = 3
EXIT_DIVERGED = 4


class ConsistencyError(Exception):
    """Inputs that are individually valid but do not belong together."""


class _Parser(argparse.ArgumentParser):
    """argparse's default usage-error exit code is 2; we reserve that for
    solver failures, so command-line mistakes exit 1 like other bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_FORMAT, f"{self.prog}: error: {message}\n")


def _check_hash(expected: str, actual: str, what: str) -> None:
    if expected != actual:
        raise ConsistencyError(
            f"{what}: scenario hash mismatch (expected {expected[:12]}..., got {actual[:12]}...)"
        )


def _load_checkpoint_for(path, scenario, digest: str):
    """The checkpoint at ``path`` if it belongs to ``scenario``, whose hash is
    ``digest``: by its recorded hash, if any, and by its normalization box."""
    model, ckpt_digest = load_checkpoint(path)
    if ckpt_digest is not None:
        _check_hash(digest, ckpt_digest, "checkpoint")
    if model.norm != box_for_scenario(scenario):
        raise ConsistencyError("checkpoint normalization box does not match the scenario domain")
    return model


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> int:
    scenario_path = Path(args.scenario)
    config = SolverConfig(n_cells=args.n_cells, cfl=args.cfl)  # reject bad knobs before writing
    if args.synthetic_stations is not None:
        scenario = make_flood_wave_scenario(
            args.synthetic_stations, args.peak_factor, seed=args.seed
        )
        write_scenario(scenario, scenario_path)
        print(f"wrote synthetic scenario ({args.synthetic_stations} stations) to {scenario_path}")
    else:
        scenario = read_scenario(scenario_path)

    field = solve(scenario, config)
    digest = scenario_hash(scenario)
    write_field(field, digest, Path(args.field_out))

    balance = check_mass_balance(field, scenario)
    print(f"solved {len(field.x_miles)} stations x {len(field.t_hours)} times "
          f"in {field.wall_clock_seconds:.2f} s (n_cells={config.n_cells})")
    print(f"mass balance error: {balance:.3e}")
    print(f"field written to {args.field_out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def _cmd_train(args) -> int:
    scenario = read_scenario(Path(args.scenario))
    digest = scenario_hash(scenario)
    field, field_digest = read_field(Path(args.field))
    _check_hash(digest, field_digest, "field file")

    training_set = build_training_set(field, scenario)
    model = init_model(
        training_set.norm,
        n_blocks=args.blocks,
        width=args.width,
        m=args.fourier_size,
        sigma=args.sigma,
        activation=args.activation,
        seed=args.seed,
        use_fourier=not args.no_fourier,
    )
    config = TrainConfig(
        lambda_physics=args.lambda_physics,
        sigma=args.sigma,
        batch_size=args.batch_size,
        collocation_per_batch=args.collocation,
        lr_initial=args.lr,
        lr_decay_rate=args.lr_decay_rate,
        lr_decay_every=args.lr_decay_every,
        max_iterations=args.iterations,
        seed=args.seed,
        record_every=args.record_every,
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    history_path = out_dir / "history.csv"
    try:
        trained, history = train(model, training_set, config)
    except TrainingDiverged as err:
        write_history(err.history, history_path)
        print(f"training diverged at iteration {err.iteration}: {err}", file=sys.stderr)
        print(f"partial history written to {history_path}", file=sys.stderr)
        return EXIT_DIVERGED

    write_history(history, history_path)
    ckpt_path = out_dir / "checkpoint.bin"
    save_checkpoint(trained, ckpt_path, scenario_digest=digest)
    final = history[-1] if history else None
    if final is not None:
        print(f"trained {config.max_iterations} iterations; final data loss "
              f"{final.data_loss:.6e}, physics loss {final.physics_loss:.6e}")
    print(f"checkpoint written to {ckpt_path}")
    print(f"history written to {history_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _cmd_eval(args) -> int:
    scenario = read_scenario(Path(args.scenario))
    digest = scenario_hash(scenario)
    field, field_digest = read_field(Path(args.field))
    _check_hash(digest, field_digest, "field file")

    model = _load_checkpoint_for(Path(args.checkpoint), scenario, digest)

    report = evaluate(
        model,
        field,
        scenario,
        datum=args.datum,
        collocation_seed=args.collocation_seed,
    )
    write_report(report, Path(args.out_dir))
    print(f"overall stage MRAE:    {report.overall_stage_mrae:.4f}")
    print(f"overall velocity MRAE: {report.overall_velocity_mrae:.4f}")
    print(f"max stage abs error:   {report.max_stage_abs_error_ft:.4f} ft")
    print(f"mean physics residual: {report.mean_physics_residual:.4e}")
    print(f"report written to {Path(args.out_dir) / 'report.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# benchmark


def _cmd_benchmark(args) -> int:
    scenario = read_scenario(Path(args.scenario))
    model = _load_checkpoint_for(Path(args.checkpoint), scenario, scenario_hash(scenario))

    result = run_benchmark(model, scenario, repetitions=args.repetitions, n_cells=args.n_cells)
    print(f"solver median:    {result.solver_median:.3f} s "
          f"({result.repetitions} repetitions)")
    print(f"surrogate median: {result.surrogate_median:.6f} s "
          f"({result.n_points} points)")
    print(f"speedup:          {result.speedup:.3g}x")
    if args.json_out is not None:
        write_benchmark(result, Path(args.json_out))
        print(f"benchmark written to {args.json_out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ablate


def _cmd_ablate(args) -> int:
    scenario = read_scenario(Path(args.scenario))
    result = run_ablation(
        scenario,
        args.budget,
        args.seed,
        sigma=args.sigma,
        lambda_full=args.lambda_full,
        width=args.width,
        n_blocks=args.blocks,
        m=args.fourier_size,
        activation=args.activation,
        batch_size=args.batch_size,
        n_cells=args.n_cells,
    )

    out_dir = Path(args.out_dir)
    write_ablation(result, out_dir)

    print(f"{'config':<14}{'stage MRAE':>12}{'data loss':>14}{'phys resid':>14}")
    for name in result.settings:
        report = result.reports[name]
        if report is None:
            print(f"{name:<14}{'diverged':>12}")
        else:
            print(f"{name:<14}{report.overall_stage_mrae:>12.4f}"
                  f"{result.training_data_loss[name]:>14.4e}"
                  f"{report.mean_physics_residual:>14.4e}")
    print(f"summary written to {out_dir / 'summary.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stagecast",
        description="Physics-guided neural surrogates for river stage forecasting.",
    )
    parser.add_argument("--version", action="version", version=f"stagecast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="run the shallow-water solver and save the field")
    p.add_argument("--scenario", required=True,
                   help="scenario file to read (or to write, with --synthetic-stations)")
    p.add_argument("--field-out", required=True, help="output path for the simulated field")
    p.add_argument("--n-cells", type=int, default=400, help="interior grid resolution")
    p.add_argument("--cfl", type=float, default=0.9, help="CFL number for adaptive stepping")
    p.add_argument("--synthetic-stations", type=int, default=None, metavar="N",
                   help="generate an N-station flood-wave scenario, write it to "
                        "--scenario, then solve it")
    p.add_argument("--peak-factor", type=float, default=3.0,
                   help="flood peak / baseflow ratio for synthetic scenarios")
    p.add_argument("--seed", type=int, default=0, help="seed for synthetic scenario jitter")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="fit a surrogate to a saved field")
    p.add_argument("--scenario", required=True, help="scenario file the field was solved from")
    p.add_argument("--field", required=True, help="field file with the training data")
    p.add_argument("--out-dir", required=True, help="directory for checkpoint.bin and history.csv")
    p.add_argument("--lambda", dest="lambda_physics", type=float,
                   default=0.1, metavar="LAMBDA",
                   help="weight on the physics residual loss (0 disables collocation)")
    p.add_argument("--sigma", type=float, default=4.0, help="Fourier feature bandwidth")
    p.add_argument("--iterations", type=int, default=100000, help="training iterations")
    p.add_argument("--batch-size", type=int, default=1024, help="supervised points per iteration")
    p.add_argument("--collocation", type=int, default=None,
                   help="collocation points per iteration (default: batch size)")
    p.add_argument("--lr", type=float, default=1e-3, help="initial learning rate")
    p.add_argument("--lr-decay-rate", type=float, default=0.5,
                   help="multiplicative decay factor")
    p.add_argument("--lr-decay-every", type=int, default=20000,
                   help="iterations per decay factor")
    p.add_argument("--seed", type=int, default=0, help="seed for init, batching, collocation")
    p.add_argument("--record-every", type=int, default=100, help="history record cadence")
    p.add_argument("--width", type=int, default=512, help="hidden layer width")
    p.add_argument("--blocks", type=int, default=6, help="number of residual blocks")
    p.add_argument("--fourier-size", type=int, default=128,
                   help="number of Fourier feature rows")
    p.add_argument("--activation", choices=("relu", "tanh"), default="relu",
                   help="hidden activation")
    p.add_argument("--no-fourier", action="store_true",
                   help="feed raw normalized coordinates instead of Fourier features")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint against a saved field")
    p.add_argument("--checkpoint", required=True, help="checkpoint file to load")
    p.add_argument("--field", required=True, help="reference field file")
    p.add_argument("--scenario", required=True, help="scenario both inputs must match")
    p.add_argument("--out-dir", required=True,
                   help="directory for report.json and the CSV side files")
    p.add_argument("--datum", choices=("depth", "elevation"), default="depth",
                   help="compare water depth or water-surface elevation")
    p.add_argument("--collocation-seed", type=int, default=0,
                   help="seed for the physics-residual sample")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("benchmark", help="time the solver against the surrogate")
    p.add_argument("--checkpoint", required=True, help="checkpoint file to load")
    p.add_argument("--scenario", required=True, help="scenario to solve and predict")
    p.add_argument("--repetitions", type=int, default=3, help="timing repetitions (>= 3)")
    p.add_argument("--n-cells", type=int, default=400, help="solver grid resolution")
    p.add_argument("--json-out", default=None, help="optional path for the timing JSON")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("ablate", help="train base / fourier_only / full and compare")
    p.add_argument("--scenario", required=True, help="scenario file to solve and fit")
    p.add_argument("--out-dir", required=True, help="directory for per-config results")
    p.add_argument("--budget", type=int, default=5000, help="iterations per configuration")
    p.add_argument("--seed", type=int, default=0, help="shared seed for all three runs")
    p.add_argument("--sigma", type=float, default=4.0, help="Fourier bandwidth for the "
                   "fourier_only and full configurations")
    p.add_argument("--lambda-full", type=float, default=0.1,
                   help="physics weight for the full configuration")
    p.add_argument("--width", type=int, default=64, help="hidden layer width")
    p.add_argument("--blocks", type=int, default=2, help="number of residual blocks")
    p.add_argument("--fourier-size", type=int, default=32, help="Fourier feature rows")
    p.add_argument("--activation", choices=("relu", "tanh"), default="tanh",
                   help="hidden activation")
    p.add_argument("--batch-size", type=int, default=256,
                   help="supervised points per iteration")
    p.add_argument("--n-cells", type=int, default=400, help="solver grid resolution")
    p.set_defaults(func=_cmd_ablate)

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
    except (FileNotFoundError, ValueError) as err:  # ValueError covers FormatError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    raise SystemExit(main())
