"""Command-line surface: pipelines, exit codes, printed output."""

import json

import numpy as np
import pytest

from oracles import lake_at_rest_scenario
from stagecast.cli import main
from stagecast.fileio import (
    load_checkpoint,
    read_field,
    read_history,
    read_scenario,
    write_scenario,
)
from stagecast.geometry import (
    BoundaryConditions,
    ChannelGeometry,
    RiverScenario,
    TimeSeries,
)
from stagecast.solver import SolverConfig, solve
from stagecast.surrogate import box_for_scenario, init_model

TINY_TRAIN = [
    "--iterations", "40",
    "--batch-size", "32",
    "--collocation", "16",
    "--width", "16",
    "--blocks", "1",
    "--fourier-size", "8",
    "--activation", "tanh",
    "--record-every", "20",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulated field plus one trained checkpoint, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    rc = main([
        "simulate",
        "--scenario", str(root / "scenario.txt"),
        "--field-out", str(root / "field.txt"),
        "--n-cells", "60",
        "--synthetic-stations", "4",
        "--seed", "3",
    ])
    assert rc == 0
    rc = main([
        "train",
        "--scenario", str(root / "scenario.txt"),
        "--field", str(root / "field.txt"),
        "--out-dir", str(root / "run"),
        "--seed", "1",
        *TINY_TRAIN,
    ])
    assert rc == 0
    return root


def _assert_csv_cells_are_numbers(root):
    """Every cell below the header of every CSV under ``root`` reads back
    as a number (float() also reads the integer cells)."""
    paths = sorted(root.rglob("*.csv"))
    assert paths
    for path in paths:
        for lineno, line in enumerate(path.read_text().splitlines()[1:], 2):
            for cell in line.split(","):
                try:
                    float(cell)
                except ValueError:
                    pytest.fail(f"{path.name} line {lineno}: cell {cell!r} is not a number")


# ---------------------------------------------------------------------------
# parser basics


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["simulate", "--help"],
        ["train", "--help"],
        ["eval", "--help"],
        ["benchmark", "--help"],
        ["ablate", "--help"],
    ],
)
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert "stagecast" in capsys.readouterr().out


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 1
    with pytest.raises(SystemExit) as exc_info:
        main(["simulate", "--no-such-flag"])
    assert exc_info.value.code == 1


def test_help_documents_all_train_flags(capsys):
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    text = capsys.readouterr().out
    for flag in ("--lambda", "--sigma", "--no-fourier", "--iterations", "--seed", "--activation"):
        assert flag in text


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_scenario_and_field(workspace):
    scenario = read_scenario(workspace / "scenario.txt")
    assert len(scenario.station_positions_miles) == 4
    field, digest = read_field(workspace / "field.txt")
    assert field.h.shape == (len(field.t_hours), 4)
    assert len(digest) == 64

    # the saved field is bit-identical to re-running the solver in process
    again = solve(scenario, SolverConfig(n_cells=60, cfl=0.9))
    np.testing.assert_array_equal(field.h, again.h)
    np.testing.assert_array_equal(field.u, again.u)
    np.testing.assert_array_equal(field.x_miles, again.x_miles)
    np.testing.assert_array_equal(field.t_hours, again.t_hours)


def test_simulate_prints_mass_balance(workspace, capsys, tmp_path):
    rc = main([
        "simulate",
        "--scenario", str(workspace / "scenario.txt"),
        "--field-out", str(tmp_path / "field.txt"),
        "--n-cells", "60",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("mass balance error:"))
    assert float(line.split(":")[1]) < 0.01


def test_simulate_lake_at_rest_mass_balance(capsys, tmp_path):
    write_scenario(lake_at_rest_scenario(), tmp_path / "lake.txt")
    rc = main([
        "simulate",
        "--scenario", str(tmp_path / "lake.txt"),
        "--field-out", str(tmp_path / "lake_field.txt"),
        "--n-cells", "100",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("mass balance error:"))
    assert float(line.split(":")[1]) < 1e-10


def test_simulate_malformed_scenario_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("[geometry]\nwat\n")
    rc = main(["simulate", "--scenario", str(path), "--field-out", str(tmp_path / "f.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error" in err and "line" in err


def test_simulate_missing_file_exits_one(capsys, tmp_path):
    rc = main([
        "simulate",
        "--scenario", str(tmp_path / "nope.txt"),
        "--field-out", str(tmp_path / "f.txt"),
    ])
    assert rc == 1


def test_simulate_solver_failure_exits_two(capsys, tmp_path):
    geometry = ChannelGeometry(
        length_miles=2.0, width_ft=100.0, bed_slope=1e-4, manning_n=0.03,
        bed_elevation_upstream_ft=0.0,
    )
    # supercritical initial rush the scheme cannot hold together
    scenario = RiverScenario(
        geometry=geometry,
        boundaries=BoundaryConditions(
            initial_depth_ft=1.0,
            initial_velocity_fps=60.0,
            upstream_discharge_cfs=TimeSeries(np.array([0.0, 1.0]), np.array([100.0, 100.0])),
            downstream_stage_ft=TimeSeries(np.array([0.0, 1.0]), np.array([1.0, 1.0])),
        ),
        station_positions_miles=(0.0, 1.0, 2.0),
        t_total_hours=1.0,
        output_dt_hours=0.125,
    )
    write_scenario(scenario, tmp_path / "violent.txt")
    rc = main([
        "simulate",
        "--scenario", str(tmp_path / "violent.txt"),
        "--field-out", str(tmp_path / "f.txt"),
        "--n-cells", "60",
    ])
    assert rc == 2
    assert "solver error" in capsys.readouterr().err
    assert not (tmp_path / "f.txt").exists()


@pytest.mark.parametrize(
    "bad_flag", [["--cfl", "1.5"], ["--n-cells", "2"], ["--peak-factor", "0.5"]]
)
def test_simulate_bad_config_exits_one_before_writing(bad_flag, capsys, tmp_path):
    rc = main([
        "simulate",
        "--scenario", str(tmp_path / "scenario.txt"),
        "--field-out", str(tmp_path / "field.txt"),
        "--synthetic-stations", "4",
        *bad_flag,
    ])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# train


def test_train_artifacts(workspace):
    history = read_history(workspace / "run" / "history.csv")
    assert [row.iteration for row in history] == [20, 40]
    model, digest = load_checkpoint(workspace / "run" / "checkpoint.bin")
    assert digest is not None
    assert model.width == 16 and model.n_blocks == 1


def test_train_zero_iterations_equals_initialization(workspace, tmp_path):
    rc = main([
        "train",
        "--scenario", str(workspace / "scenario.txt"),
        "--field", str(workspace / "field.txt"),
        "--out-dir", str(tmp_path / "run0"),
        "--seed", "1",
        *TINY_TRAIN[:2], "--iterations", "0",
        *TINY_TRAIN[2:],
    ])
    assert rc == 0
    model, _ = load_checkpoint(tmp_path / "run0" / "checkpoint.bin")
    scenario = read_scenario(workspace / "scenario.txt")
    fresh = init_model(
        box_for_scenario(scenario),
        n_blocks=1, width=16, m=8, sigma=4.0, activation="tanh", seed=1,
    )
    np.testing.assert_array_equal(model.weights, fresh.weights)
    np.testing.assert_array_equal(model.encoder.b_matrix, fresh.encoder.b_matrix)
    assert read_history(tmp_path / "run0" / "history.csv") == []


def test_train_same_seed_byte_identical(workspace, tmp_path):
    outs = []
    for name in ("a", "b"):
        rc = main([
            "train",
            "--scenario", str(workspace / "scenario.txt"),
            "--field", str(workspace / "field.txt"),
            "--out-dir", str(tmp_path / name),
            "--seed", "7",
            *TINY_TRAIN,
        ])
        assert rc == 0
        outs.append(tmp_path / name)
    assert (outs[0] / "checkpoint.bin").read_bytes() == (outs[1] / "checkpoint.bin").read_bytes()
    assert (outs[0] / "history.csv").read_text() == (outs[1] / "history.csv").read_text()


def test_train_hash_mismatch_exits_three(workspace, capsys, tmp_path):
    other = tmp_path / "other.txt"
    rc = main([
        "simulate",
        "--scenario", str(other),
        "--field-out", str(tmp_path / "other_field.txt"),
        "--n-cells", "40",
        "--synthetic-stations", "4",
        "--seed", "99",
    ])
    assert rc == 0
    rc = main([
        "train",
        "--scenario", str(other),
        "--field", str(workspace / "field.txt"),  # belongs to a different scenario
        "--out-dir", str(tmp_path / "run"),
        *TINY_TRAIN,
    ])
    assert rc == 3
    assert "hash mismatch" in capsys.readouterr().err


def test_train_divergence_exits_four(workspace, capsys, tmp_path):
    rc = main([
        "train",
        "--scenario", str(workspace / "scenario.txt"),
        "--field", str(workspace / "field.txt"),
        "--out-dir", str(tmp_path / "boom"),
        "--lr", "1e5",
        "--seed", "0",
        *TINY_TRAIN,
    ])
    assert rc == 4
    err = capsys.readouterr().err
    assert "diverged" in err
    assert read_history(tmp_path / "boom" / "history.csv"), "partial history must be saved"
    assert not (tmp_path / "boom" / "checkpoint.bin").exists()


# ---------------------------------------------------------------------------
# eval


def test_eval_writes_report(workspace, capsys, tmp_path):
    rc = main([
        "eval",
        "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
        "--field", str(workspace / "field.txt"),
        "--scenario", str(workspace / "scenario.txt"),
        "--out-dir", str(tmp_path / "report"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "overall stage MRAE" in out
    blob = json.loads((tmp_path / "report" / "report.json").read_text())
    assert blob["datum"] == "depth"
    assert (tmp_path / "report" / "per_station.csv").exists()
    assert (tmp_path / "report" / "error_histogram.csv").exists()
    _assert_csv_cells_are_numbers(tmp_path / "report")


def test_eval_checkpoint_from_other_scenario_exits_three(workspace, capsys, tmp_path):
    rc = main([
        "simulate",
        "--scenario", str(tmp_path / "other.txt"),
        "--field-out", str(tmp_path / "other_field.txt"),
        "--n-cells", "40",
        "--synthetic-stations", "5",
        "--seed", "123",
    ])
    assert rc == 0
    rc = main([
        "eval",
        "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
        "--field", str(tmp_path / "other_field.txt"),
        "--scenario", str(tmp_path / "other.txt"),
        "--out-dir", str(tmp_path / "report"),
    ])
    assert rc == 3
    assert "mismatch" in capsys.readouterr().err


def test_eval_field_scenario_mismatch_exits_three(workspace, capsys, tmp_path):
    rc = main([
        "simulate",
        "--scenario", str(tmp_path / "other.txt"),
        "--field-out", str(tmp_path / "other_field.txt"),
        "--n-cells", "40",
        "--synthetic-stations", "4",
        "--seed", "5",
    ])
    assert rc == 0
    rc = main([
        "eval",
        "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
        "--field", str(tmp_path / "other_field.txt"),
        "--scenario", str(workspace / "scenario.txt"),
        "--out-dir", str(tmp_path / "report"),
    ])
    assert rc == 3


# ---------------------------------------------------------------------------
# benchmark


def test_benchmark_prints_speedup_and_writes_json(workspace, capsys, tmp_path):
    rc = main([
        "benchmark",
        "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
        "--scenario", str(workspace / "scenario.txt"),
        "--repetitions", "3",
        "--n-cells", "60",
        "--json-out", str(tmp_path / "bench.json"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    speedup_line = next(l for l in out.splitlines() if l.startswith("speedup:"))
    assert speedup_line.rstrip().endswith("x")
    blob = json.loads((tmp_path / "bench.json").read_text())
    assert blob["timing"]["speedup"] > 0
    assert len(blob["timing"]["solver_seconds"]) == 3


def test_benchmark_rejects_bad_repetitions(workspace, capsys, tmp_path):
    rc = main([
        "benchmark",
        "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
        "--scenario", str(workspace / "scenario.txt"),
        "--repetitions", "2",
    ])
    assert rc == 1  # bad usage, not a solver failure or an artifact mismatch


# ---------------------------------------------------------------------------
# ablate


def test_ablate_writes_three_report_directories(workspace, capsys, tmp_path):
    rc = main([
        "ablate",
        "--scenario", str(workspace / "scenario.txt"),
        "--out-dir", str(tmp_path / "ablation"),
        "--budget", "20",
        "--seed", "2",
        "--width", "8",
        "--blocks", "1",
        "--fourier-size", "4",
        "--batch-size", "16",
        "--n-cells", "40",
    ])
    assert rc == 0
    out_dir = tmp_path / "ablation"
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["seed"] == 2
    assert set(summary["configs"]) == {"base", "fourier_only", "full"}
    for name in ("base", "fourier_only", "full"):
        config_dir = out_dir / name
        meta = json.loads((config_dir / "config.json").read_text())
        assert meta["seed"] == 2
        assert meta["budget_iters"] == 20
        assert (config_dir / "history.csv").exists()
        assert (config_dir / "report.json").exists()
        curve = (config_dir / "curve.csv").read_text().splitlines()
        assert curve[0] == "t_hours,truth_h_ft,predicted_h_ft"
        assert len(curve) > 1
    assert json.loads((out_dir / "base" / "config.json").read_text())["use_fourier"] is False
    assert json.loads((out_dir / "full" / "config.json").read_text())["lambda_physics"] == 0.1
    _assert_csv_cells_are_numbers(out_dir)
    table = capsys.readouterr().out
    assert "base" in table and "fourier_only" in table and "full" in table


def test_ablate_writes_the_settings_table_it_is_given(workspace, capsys, tmp_path, monkeypatch):
    """config.json and the printed table come from AblationResult.settings,
    not from a copy of the table in the CLI."""
    import stagecast.cli as cli

    real = cli.run_ablation

    def marked(*args, **kwargs):
        result = real(*args, **kwargs)
        result.settings["full"] = {**result.settings["full"], "lambda_physics": 0.375}
        result.settings["base"]["marker"] = "from-result"
        return result

    monkeypatch.setattr(cli, "run_ablation", marked)
    rc = main([
        "ablate",
        "--scenario", str(workspace / "scenario.txt"),
        "--out-dir", str(tmp_path / "ablation"),
        "--budget", "5",
        "--width", "8",
        "--blocks", "1",
        "--fourier-size", "4",
        "--batch-size", "16",
        "--n-cells", "40",
    ])
    assert rc == 0
    out_dir = tmp_path / "ablation"
    assert json.loads((out_dir / "full" / "config.json").read_text())["lambda_physics"] == 0.375
    assert json.loads((out_dir / "base" / "config.json").read_text())["marker"] == "from-result"
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:4]]
    assert rows == ["base", "fourier_only", "full"]
