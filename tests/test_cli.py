"""Command-line surface: pipelines, exit codes, printed output."""

import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stagecast
from oracles import lake_at_rest_scenario
from stagecast.cli import main
from stagecast.fileio import (
    load_checkpoint,
    read_field,
    read_history,
    read_scenario,
    save_checkpoint,
    scenario_hash,
    write_scenario,
)
from stagecast.geometry import (
    BoundaryConditions,
    ChannelGeometry,
    RiverScenario,
    TimeSeries,
)
from stagecast.solver import SolverConfig, solve
from stagecast.surrogate import NormalizationBox, box_for_scenario, init_model

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


def test_the_module_runs_as_a_program():
    """``python -m stagecast`` is the package's one module entry point."""
    src = Path(stagecast.__file__).resolve().parents[1]  # -m finds the package in its cwd
    result = subprocess.run([sys.executable, "-m", "stagecast", "--version"],
                            cwd=src, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"stagecast {stagecast.__version__}\n"


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
# every output

# (command, output flag, whether the flag names a file rather than a directory);
# "simulate-synthetic" is simulate with --synthetic-stations, which writes --scenario
OUTPUTS = [
    ("simulate", "--field-out", True),
    ("simulate-synthetic", "--scenario", True),
    ("simulate-synthetic", "--field-out", True),
    ("train", "--out-dir", False),
    ("eval", "--out-dir", False),
    ("benchmark", "--json-out", True),
    ("ablate", "--out-dir", False),
]
OUTPUT_IDS = [f"{command}-{flag.lstrip('-')}" for command, flag, _ in OUTPUTS]


def _small_run(command, workspace, flag, path, tmp_path):
    """The argv of a small run of ``command`` that reads ``workspace``'s
    inputs, writes its output ``flag`` to ``path`` and its other outputs
    into ``tmp_path``."""

    def output(f):
        return str(path if f == flag else tmp_path / f.lstrip("-"))

    scenario, field = str(workspace / "scenario.txt"), str(workspace / "field.txt")
    checkpoint = str(workspace / "run" / "checkpoint.bin")
    return {
        "simulate": ["simulate", "--scenario", scenario, "--field-out", output("--field-out"),
                     "--n-cells", "40"],
        "simulate-synthetic": ["simulate", "--synthetic-stations", "4", "--seed", "3",
                               "--scenario", output("--scenario"),
                               "--field-out", output("--field-out"), "--n-cells", "40"],
        "train": ["train", "--scenario", scenario, "--field", field,
                  "--out-dir", output("--out-dir"), *TINY_TRAIN],
        "eval": ["eval", "--checkpoint", checkpoint, "--field", field, "--scenario", scenario,
                 "--out-dir", output("--out-dir")],
        "benchmark": ["benchmark", "--checkpoint", checkpoint, "--scenario", scenario,
                      "--repetitions", "3", "--n-cells", "40", "--json-out", output("--json-out")],
        "ablate": ["ablate", "--scenario", scenario, "--out-dir", output("--out-dir"),
                   "--budget", "5", "--width", "8", "--blocks", "1", "--fourier-size", "4",
                   "--batch-size", "16", "--n-cells", "40"],
    }[command]


# each output above, below a file and of the wrong kind; then each file that
# train and eval write under --out-dir, which is there as a directory, and
# three of ablate's: a file there as a directory, or a directory as a file
PRESENT_AS_FILE = {"base"}
UNWRITABLE = [
    (command, flag, is_file, case)
    for case in ("below-a-file", "wrong-kind")
    for command, flag, is_file in OUTPUTS
] + [
    (command, "--out-dir", False, name)
    for command, names in [("train", ["history.csv", "checkpoint.bin"]),
                           ("eval", ["report.json", "per_station.csv", "error_histogram.csv"]),
                           ("ablate", ["summary.json", "base", "full/curve.csv"])]
    for name in names
]


def _never_work(monkeypatch, command, what):
    """Patch every step of ``command``'s work to fail if it is reached."""
    import stagecast.cli as cli
    import stagecast.evaluation as ev

    def never(*args, **kwargs):
        raise AssertionError(f"{command} worked before checking {what}")

    for module, name in [(cli, "read_scenario"), (cli, "solve"), (cli, "train"),
                         (cli, "evaluate"), (ev, "solve"), (ev, "train"), (ev, "evaluate")]:
        monkeypatch.setattr(module, name, never)


@pytest.mark.parametrize(
    "command, flag, is_file, case", UNWRITABLE,
    ids=[f"{command}-{flag.lstrip('-')}-{case}" for command, flag, _, case in UNWRITABLE],
)
def test_an_unwritable_output_exits_one_before_any_work(workspace, monkeypatch, capsys, tmp_path,
                                                        command, flag, is_file, case):
    """An output below a file, or an existing directory given for a file (a
    file for a directory), or a directory where a command writes a file
    under its --out-dir, ends the command with one error line that names
    it, before any input is read or anything solved, trained or scored, and
    with nothing made."""
    _never_work(monkeypatch, command, flag)
    (tmp_path / "a_file").write_text("")
    (tmp_path / "a_directory").mkdir()
    if case == "below-a-file":
        bad = out = tmp_path / "a_file" / "sub" / "out"
    elif case == "wrong-kind":
        bad = out = tmp_path / ("a_directory" if is_file else "a_file")
    else:
        out = tmp_path / "a_directory"
        bad = out / case
        if case in PRESENT_AS_FILE:
            bad.write_text("")
        else:
            bad.mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    rc = main(_small_run(command, workspace, flag, out, tmp_path))
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(bad) in err[0]
    assert sorted(tmp_path.rglob("*")) == before


# (command, an input flag, an output flag, the file the output writes there):
# each output names the input's file, so the run would overwrite what it
# reads.  The input is spelled through "a_directory/..", so the check must
# compare resolved paths.  The last case names one file as two outputs.
CLOBBERING = [
    ("simulate", "--scenario", "--field-out", None),
    ("train", "--field", "--out-dir", "history.csv"),
    ("train", "--scenario", "--out-dir", "checkpoint.bin"),
    ("eval", "--checkpoint", "--out-dir", "report.json"),
    ("eval", "--field", "--out-dir", "per_station.csv"),
    ("benchmark", "--checkpoint", "--json-out", None),
    ("benchmark", "--scenario", "--json-out", None),
    ("ablate", "--scenario", "--out-dir", "summary.json"),
    ("simulate-synthetic", "--scenario", "--field-out", None),
]
WORKSPACE_INPUTS = {"--scenario": "scenario.txt", "--field": "field.txt",
                    "--checkpoint": "run/checkpoint.bin"}


@pytest.mark.parametrize(
    "command, input_flag, flag, name", CLOBBERING,
    ids=[f"{c}-{i.lstrip('-')}-as-{o.lstrip('-')}" for c, i, o, _ in CLOBBERING],
)
def test_an_output_that_names_an_input_exits_one_before_any_work(
        workspace, monkeypatch, capsys, tmp_path, command, input_flag, flag, name):
    """An output that is one of the command's inputs, or another of its
    outputs, ends the command with one error line that names it, before any
    work and with nothing written."""
    _never_work(monkeypatch, command, flag)
    (tmp_path / "a_directory").mkdir()
    out = tmp_path / "out"
    bad = out / name if name else out
    argv = _small_run(command, workspace, flag, out, tmp_path)
    respelled = tmp_path / "a_directory" / ".." / bad.relative_to(tmp_path)
    argv[argv.index(input_flag) + 1] = str(respelled)
    if command != "simulate-synthetic":  # there --scenario is an output too
        bad.parent.mkdir(exist_ok=True)
        bad.write_bytes((workspace / WORKSPACE_INPUTS[input_flag]).read_bytes())
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    rc = main(argv)
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(bad) in err[0], err
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


@pytest.mark.parametrize("command, flag, is_file", OUTPUTS, ids=OUTPUT_IDS)
def test_an_output_under_missing_directories_makes_them(workspace, capsys, tmp_path,
                                                         command, flag, is_file):
    """The README's runs/... layout works from an empty directory."""
    out = tmp_path / "runs" / "new" / "out"
    rc = main(_small_run(command, workspace, flag, out, tmp_path))
    assert rc == 0
    assert out.is_file() if is_file else any(out.iterdir())
    assert list(out.parent.iterdir()) == [out]  # no temp file is left beside it


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


def test_simulate_non_finite_scenario_number_exits_one_before_writing(capsys, tmp_path):
    path = tmp_path / "scenario.txt"
    write_scenario(lake_at_rest_scenario(t_total_hours=0.5), path)
    text = path.read_text()
    path.write_text(re.sub(r"(?m)^width_ft = .*$", "width_ft = nan", text))
    rc = main(["simulate", "--scenario", str(path), "--field-out", str(tmp_path / "f.txt")])
    assert rc == 1
    assert "[geometry] width_ft: not finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "line, message",
    [
        ("width_ft = -5.0", "[geometry] width_ft must be positive"),
        ("initial_depth_ft = -1.0", "[boundaries] initial_depth_ft must be positive"),
    ],
    ids=["width", "depth"],
)
def test_simulate_out_of_range_scenario_number_names_its_key(line, message, capsys, tmp_path):
    path = tmp_path / "scenario.txt"
    write_scenario(lake_at_rest_scenario(t_total_hours=0.5), path)
    key = line.split(" = ")[0]
    path.write_text(re.sub(rf"(?m)^{key} = .*$", line, path.read_text()))
    rc = main(["simulate", "--scenario", str(path), "--field-out", str(tmp_path / "f.txt")])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "bad_flag",
    [
        ["--cfl", "1.5"],
        ["--n-cells", "2"],
        ["--peak-factor", "0.5"],
        ["--peak-factor", "nan"],
        ["--peak-factor", "inf"],
        ["--seed", "-1"],
    ],
)
def test_simulate_bad_config_exits_one_before_writing(bad_flag, capsys, tmp_path):
    """The error line names the setting's key, a non-finite one included."""
    rc = main([
        "simulate",
        "--scenario", str(tmp_path / "scenario.txt"),
        "--field-out", str(tmp_path / "field.txt"),
        "--synthetic-stations", "4",
        *bad_flag,
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error" in err and bad_flag[0][2:].replace("-", "_") in err
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
    assert err.count("at iteration") == 1, err
    assert read_history(tmp_path / "boom" / "history.csv"), "partial history must be saved"
    assert not (tmp_path / "boom" / "checkpoint.bin").exists()


def test_train_nan_gradient_exits_four_with_its_row_last(workspace, monkeypatch, capsys,
                                                         tmp_path):
    import stagecast.training as training

    real, calls = training.loss_gradient, []

    def poisoned(lp):
        calls.append(None)
        grads = real(lp)
        if len(calls) == 25:
            grads[0] = np.nan
        return grads

    monkeypatch.setattr(training, "loss_gradient", poisoned)
    rc = main([
        "train",
        "--scenario", str(workspace / "scenario.txt"),
        "--field", str(workspace / "field.txt"),
        "--out-dir", str(tmp_path / "nan"),
        *TINY_TRAIN,
    ])
    assert rc == 4
    history = read_history(tmp_path / "nan" / "history.csv")
    assert [row.iteration for row in history] == [20, 25]
    assert f"at iteration {history[-1].iteration}\n" in capsys.readouterr().err
    assert not (tmp_path / "nan" / "checkpoint.bin").exists()


@pytest.mark.parametrize("bad_flag", [
    ["--record-every", "0"], ["--record-every", "-5"], ["--width", "0"], ["--blocks", "-1"],
    ["--fourier-size", "0"], ["--collocation", "0"], ["--lr", "-1"],
    ["--lambda", "nan"], ["--lambda", "inf"], ["--lr", "inf"], ["--sigma", "nan"],
    ["--sigma", "inf"], ["--seed", "-1"],
])
def test_train_bad_numbers_exit_one_before_writing(workspace, bad_flag, capsys, tmp_path):
    rc = main([
        "train",
        "--scenario", str(workspace / "scenario.txt"),
        "--field", str(workspace / "field.txt"),
        "--out-dir", str(tmp_path / "run"),
        *TINY_TRAIN,
        *bad_flag,
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err
    if bad_flag[0] == "--seed":  # numpy's own message would name no key
        assert "error: seed must be non-negative" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", ["scenario-is-a-directory", "out-dir-is-a-file"])
def test_train_file_system_errors_exit_one(workspace, case, capsys, tmp_path):
    """Any OSError, not only a missing file, ends in one error line."""
    (tmp_path / "file").write_text("")
    scenario = tmp_path if case == "scenario-is-a-directory" else workspace / "scenario.txt"
    out_dir = tmp_path / ("file" if case == "out-dir-is-a-file" else "run")
    rc = main([
        "train",
        "--scenario", str(scenario),
        "--field", str(workspace / "field.txt"),
        "--out-dir", str(out_dir),
        *TINY_TRAIN,
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("n_stations", "inf"), ("n_stations", "nan"), ("n_stations", "2.5"), ("n_times", "1e3"),
])
def test_train_non_integer_field_count_exits_one_before_writing(
    workspace, key, value, capsys, tmp_path
):
    text = (workspace / "field.txt").read_text()
    line = next(line for line in text.splitlines() if line.startswith(f"{key} = "))
    field = tmp_path / "field.txt"
    field.write_text(text.replace(line, f"{key} = {value}", 1))
    rc = main([
        "train",
        "--scenario", str(workspace / "scenario.txt"),
        "--field", str(field),
        "--out-dir", str(tmp_path / "run"),
        *TINY_TRAIN,
    ])
    assert rc == 1
    lineno = text.splitlines().index(line) + 1
    expected, found = line + "\n", f"{key} = {value}\n"
    assert capsys.readouterr().err.splitlines() == [
        f"error: {field}: line {lineno}: expected {expected!r}, found {found!r}"
    ]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("message", [
    "Unable to allocate 358. GiB for an array with shape (48000000001,) and data type float64",
    "",
], ids=["numpy", "bare"])
def test_a_refused_allocation_exits_one(workspace, message, capsys, tmp_path, monkeypatch):
    """A valid scenario can ask for more memory than the host gives (an
    ``output_dt_hours`` of 1e-9); whether the allocation is refused depends
    on the host, so the solve is patched to refuse it."""
    import stagecast.cli as cli

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "solve", refuse)
    rc = main(["simulate", "--scenario", str(workspace / "scenario.txt"),
               "--field-out", str(tmp_path / "field.txt"), "--n-cells", "40"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message or 'MemoryError'}"]


def test_train_non_finite_field_cell_exits_one_before_writing(workspace, capsys, tmp_path):
    """A nan depth in the field would otherwise be trained on, or, in the
    validation split, leave the checkpoint at its initial weights."""
    lines = (workspace / "field.txt").read_text().splitlines()
    at = lines.index("t_x_h_u:") + 1
    t, x, h, u = lines[at].split(",")
    lines[at] = ",".join([t, x, "nan", u])
    field = tmp_path / "field.txt"
    field.write_text("\n".join(lines) + "\n")
    rc = main([
        "train",
        "--scenario", str(workspace / "scenario.txt"),
        "--field", str(field),
        "--out-dir", str(tmp_path / "run"),
        *TINY_TRAIN,
    ])
    assert rc == 1
    assert "[data] t_x_h_u row 1: not finite: 'nan'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_bad_scenario_line_names_the_file(workspace, capsys, tmp_path):
    lines = (workspace / "scenario.txt").read_text().splitlines()
    lines.insert(5, "frobnicate")
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("\n".join(lines) + "\n")
    rc = main([
        "train",
        "--scenario", str(scenario),
        "--field", str(workspace / "field.txt"),
        "--out-dir", str(tmp_path / "run"),
        *TINY_TRAIN,
    ])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {scenario}: line 6: cannot parse 'frobnicate'"
    ]
    assert not (tmp_path / "run").exists()


def test_train_rejects_the_lambda_physics_spelling(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc_info:
        main([
            "train",
            "--scenario", str(tmp_path / "scenario.txt"),
            "--field", str(tmp_path / "field.txt"),
            "--out-dir", str(tmp_path / "run"),
            "--lambda-physics", "0.1",
        ])
    assert exc_info.value.code == 1
    assert "unrecognized arguments: --lambda-physics" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_eval_negative_collocation_seed_exits_one_before_writing(workspace, capsys, tmp_path):
    rc = main([
        "eval",
        "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
        "--field", str(workspace / "field.txt"),
        "--scenario", str(workspace / "scenario.txt"),
        "--out-dir", str(tmp_path / "report"),
        "--collocation-seed", "-2",
    ])
    assert rc == 1
    assert "error: collocation_seed must be non-negative" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def _rewrite_checkpoint_header(src, dst, edit):
    """Copy the checkpoint ``src`` to ``dst`` with its JSON header replaced by
    ``edit(header)``."""
    raw = src.read_bytes()
    length = int.from_bytes(raw[14:18], "little")
    blob = json.dumps(edit(json.loads(raw[18 : 18 + length])), sort_keys=True).encode()
    dst.write_bytes(raw[:14] + len(blob).to_bytes(4, "little") + blob + raw[18 + length :])


def _without(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


def _with(**changes):
    return lambda header: {**header, **changes}


@pytest.mark.parametrize(
    "edit, message",
    [
        (_with(activation="gelu"), "activation must be one of"),
        (_without("sigma"), "invalid header field: 'sigma' is missing"),
        (lambda header: [1, 2], "header is not a JSON object"),
        (_with(scenario_hash=5), "invalid header field: 'scenario_hash' is 5"),
        (_with(scenario_hash=None), "invalid header field: 'scenario_hash' is None"),
        (_with(seed=7.9), "invalid header field: 'seed' is 7.9"),
        (_with(seed="7"), "invalid header field: 'seed' is '7'"),
        (_with(seed=True), "invalid header field: 'seed' is True"),
        (_with(width=64.0), "invalid header field: 'width' is 64.0"),
        (_with(format_version=True), "invalid header field: 'format_version' is True"),
        (_with(use_fourier="false"), "invalid header field: 'use_fourier' is 'false'"),
        (_with(sigma="4.0"), "invalid header field: 'sigma' is '4.0'"),
        (_with(sigma=float("nan")), "sigma must be finite"),
        (_with(norm=[0.0, "8", 0.0, 6.0]), "invalid header field: 'norm'"),
        (_with(norm=[0.0, 8.0, 6.0]), "invalid header field: 'norm'"),
        (_with(norm=[0.0, 8.0, 0.0, float("inf")]), "normalization box is not finite in t"),
        (_with(use_fourier=False), "invalid header field: 'm' and 'sigma'"),
        (_with(comment="hand-edited"), "invalid header field: 'comment' is unknown"),
        (lambda header: {**header, "manifest": [[name, [float(n) for n in shape]]
                                                for name, shape in header["manifest"]]},
         "manifest disagrees with declared architecture"),
    ],
    ids=[
        "unknown-activation", "missing-sigma", "not-an-object", "integer-hash", "null-hash",
        "float-seed", "string-seed", "bool-seed", "float-width", "bool-version",
        "string-use-fourier", "string-sigma", "nan-sigma", "string-in-norm", "short-norm",
        "infinite-norm", "sizes-without-encoder", "unknown-key", "float-shapes",
    ],
)
def test_eval_checkpoint_header_the_model_refuses_exits_one(
    workspace, edit, message, capsys, tmp_path
):
    """Every header key is read once, with its JSON type, and the loader
    holds a checkpoint to the model type's own checks: an unknown
    activation does not run as tanh, a number in a string or a float seed
    is not coerced, and a missing or unknown key is named."""
    checkpoint = tmp_path / "checkpoint.bin"
    _rewrite_checkpoint_header(workspace / "run" / "checkpoint.bin", checkpoint, edit)
    rc = main([
        "eval",
        "--checkpoint", str(checkpoint),
        "--field", str(workspace / "field.txt"),
        "--scenario", str(workspace / "scenario.txt"),
        "--out-dir", str(tmp_path / "report"),
    ])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


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
# defaults


class _Stop(Exception):
    """Ends a command once the library call it is tested for has been seen."""


def test_flags_left_out_reach_no_library_call(workspace, monkeypatch, tmp_path):
    """Each subcommand run with only its required flags passes no optional
    keyword on, so every default is the library's own."""
    import stagecast.cli as cli

    calls = []

    def record(name, stop):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append((name, kwargs))
            if stop:
                raise _Stop
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    for name in ("SolverConfig", "init_model"):
        record(name, stop=False)
    for name in ("solve", "TrainConfig", "evaluate", "run_benchmark", "run_ablation"):
        record(name, stop=True)
    field = str(workspace / "field.txt")
    checkpoint = str(workspace / "run" / "checkpoint.bin")
    for argv in (
        ["simulate", "--field-out", str(tmp_path / "field.txt")],
        ["train", "--field", field, "--out-dir", str(tmp_path / "run")],
        ["eval", "--checkpoint", checkpoint, "--field", field, "--out-dir", str(tmp_path / "r")],
        ["benchmark", "--checkpoint", checkpoint],
        ["ablate", "--out-dir", str(tmp_path / "ablation")],
    ):
        with pytest.raises(_Stop):
            main([*argv, "--scenario", str(workspace / "scenario.txt")])
    assert calls == [
        ("SolverConfig", {}),
        ("solve", {}),
        ("init_model", {}),
        ("TrainConfig", {}),
        ("evaluate", {}),
        ("run_benchmark", {}),
        ("run_ablation", {}),
    ]
    assert list(tmp_path.iterdir()) == []  # every command stopped before writing


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
    assert blob["n_cells"] == 60
    assert blob["timing"]["speedup"] > 0
    assert len(blob["timing"]["solver_seconds"]) == 3


def test_benchmark_checkpoint_from_other_domain_exits_three(workspace, capsys, tmp_path):
    """A checkpoint that carries the scenario's hash is still checked against
    the scenario's normalization box, as eval checks it."""
    model = init_model(NormalizationBox(0.0, 99.0, 0.0, 99.0), n_blocks=1, width=16, m=8)
    digest = scenario_hash(read_scenario(workspace / "scenario.txt"))
    save_checkpoint(model, tmp_path / "other.bin", digest)
    rc = main([
        "benchmark",
        "--checkpoint", str(tmp_path / "other.bin"),
        "--scenario", str(workspace / "scenario.txt"),
        "--repetitions", "3",
        "--n-cells", "60",
        "--json-out", str(tmp_path / "bench.json"),
    ])
    assert rc == 3
    assert "normalization box" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()


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


@pytest.mark.parametrize(
    "bad_flag", [
        ["--width", "0"], ["--blocks", "-1"], ["--fourier-size", "0"], ["--lambda-full", "nan"],
        ["--sigma", "inf"], ["--seed", "-1"],
    ]
)
def test_ablate_bad_numbers_exit_one_before_writing(workspace, bad_flag, capsys, tmp_path):
    rc = main([
        "ablate",
        "--scenario", str(workspace / "scenario.txt"),
        "--out-dir", str(tmp_path / "ablation"),
        "--budget", "5",
        "--n-cells", "40",
        *bad_flag,
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err
    if bad_flag[0] == "--seed":  # numpy's own message would name no key
        assert "error: seed must be non-negative" in err
    assert list(tmp_path.iterdir()) == []


def test_ablate_zero_budget_exits_one_before_writing(workspace, capsys, tmp_path):
    rc = main([
        "ablate",
        "--scenario", str(workspace / "scenario.txt"),
        "--out-dir", str(tmp_path / "ablation"),
        "--budget", "0",
    ])
    assert rc == 1
    assert "error: budget_iters" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_ablate_writes_the_settings_table_it_is_given(workspace, capsys, tmp_path, monkeypatch):
    """config.json and the printed table come from the result's run records,
    not from a copy of the settings table in the CLI."""
    import stagecast.cli as cli

    real = cli.run_ablation

    def marked(*args, **kwargs):
        result = real(*args, **kwargs)
        result.runs["full"].lambda_physics = 0.375
        result.runs["base"].use_fourier = True
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
    assert json.loads((out_dir / "base" / "config.json").read_text())["use_fourier"] is True
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:4]]
    assert rows == ["base", "fourier_only", "full"]


def test_ablate_directory_repeats_bytewise(workspace, tmp_path):
    """Two ablations under one seed write the same bytes, apart from the
    wall-clock ``"timing"`` of each report.json."""
    for name in ("a", "b"):
        rc = main([
            "ablate",
            "--scenario", str(workspace / "scenario.txt"),
            "--out-dir", str(tmp_path / name),
            "--budget", "10",
            "--seed", "4",
            "--width", "8",
            "--blocks", "1",
            "--fourier-size", "4",
            "--batch-size", "16",
            "--n-cells", "40",
        ])
        assert rc == 0

    def contents(root):
        out = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                if path.name == "report.json":
                    report = json.loads(data)
                    report.pop("timing")
                    data = json.dumps(report, sort_keys=True).encode()
                out[str(path.relative_to(root))] = data
        return out

    first, second = contents(tmp_path / "a"), contents(tmp_path / "b")
    assert sum(name.endswith("report.json") for name in first) == 3
    assert first == second


def test_ablate_marks_an_overflowing_gradient_as_diverged(capsys, tmp_path):
    """A physics weight of 1e300 makes the full configuration's gradient
    overflow Adam's second moment at its first step: that configuration is
    marked diverged, the other two are reported, and nothing warns."""
    scenario = str(tmp_path / "scenario.txt")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([
            "simulate", "--scenario", scenario, "--field-out", str(tmp_path / "field.txt"),
            "--synthetic-stations", "6", "--n-cells", "60",
        ]) == 0
        rc = main([
            "ablate", "--scenario", scenario, "--out-dir", str(tmp_path / "ablation"),
            "--lambda-full", "1e300", "--sigma", "40", "--budget", "100", "--n-cells", "60",
        ])
    assert rc == 0
    configs = json.loads((tmp_path / "ablation" / "summary.json").read_text())["configs"]
    assert configs["full"] == {"diverged": True, "training_data_loss": None}
    for name in ("base", "fourier_only"):
        assert configs[name]["diverged"] is False
        assert configs[name]["overall_stage_mrae"] > 0
        assert (tmp_path / "ablation" / name / "report.json").exists()
