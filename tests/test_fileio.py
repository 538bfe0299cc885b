"""Round trips and failure modes of the on-disk formats."""

import json
from pathlib import Path

import numpy as np
import pytest

from stagecast.fileio import (
    CheckpointFormatError,
    FieldFormatError,
    FormatError,
    ScenarioFormatError,
    load_checkpoint,
    parse_scenario,
    read_field,
    read_history,
    read_scenario,
    report_to_dict,
    save_checkpoint,
    scenario_hash,
    serialize_scenario,
    write_benchmark,
    write_field,
    write_history,
    write_report,
    write_scenario,
)
from stagecast.evaluation import benchmark, evaluate
from stagecast.geometry import (
    BoundaryConditions,
    ChannelGeometry,
    RiverScenario,
    TimeSeries,
    make_flood_wave_scenario,
)
from stagecast.solver import SolverConfig, solve
from stagecast.surrogate import box_for_scenario, init_model
from stagecast.training import HistoryRow


def _awkward_scenario():
    """Floats chosen so any formatting shortcut would lose bits."""
    geometry = ChannelGeometry(
        length_miles=10.0 / 3.0,
        width_ft=0.1 + 0.2 + 100.0,
        bed_slope=1e-4 * (1.0 + 1e-13),
        manning_n=0.035,
        bed_elevation_upstream_ft=7.0 / 11.0,
    )
    q = TimeSeries(np.array([0.0, 1.0 / 7.0, 5.0]), np.array([800.0, 1234.567890123456, 900.0]))
    stage = TimeSeries(np.array([0.0, 5.0]), np.array([6.0 + 1e-12, 6.0]))
    boundaries = BoundaryConditions(
        initial_depth_ft=6.000000000000001,
        initial_velocity_fps=0.1 + 0.2,
        upstream_discharge_cfs=q,
        downstream_stage_ft=stage,
    )
    return RiverScenario(
        geometry=geometry,
        boundaries=boundaries,
        station_positions_miles=(0.3333333333333333, 1.7, 2.9),
        t_total_hours=5.0,
        output_dt_hours=0.25,
    )


# ---------------------------------------------------------------------------
# scenario format


def test_scenario_round_trip_in_memory():
    scenario = _awkward_scenario()
    assert parse_scenario(serialize_scenario(scenario)) == scenario


def test_scenario_round_trip_on_disk(tmp_path):
    scenario = make_flood_wave_scenario(6, 3.0, seed=11, t_total_hours=30.0)
    path = tmp_path / "scenario.txt"
    write_scenario(scenario, path)
    assert read_scenario(path) == scenario
    assert not list(tmp_path.glob(".*tmp*")), "temp files must not survive"


def test_scenario_hash_tracks_content():
    a = _awkward_scenario()
    b = _awkward_scenario()
    assert scenario_hash(a) == scenario_hash(b)
    assert len(scenario_hash(a)) == 64
    assert set(scenario_hash(a)) <= set("0123456789abcdef")

    import dataclasses

    c = dataclasses.replace(a, output_dt_hours=0.5)
    assert scenario_hash(c) != scenario_hash(a)


def test_scenario_unknown_key_names_line():
    text = serialize_scenario(_awkward_scenario())
    lines = text.splitlines()
    idx = lines.index("[run]") + 1
    lines.insert(idx, "frobnication_level = 9")
    with pytest.raises(ScenarioFormatError, match=rf"line {idx + 1}.*frobnication_level"):
        parse_scenario("\n".join(lines) + "\n")


def test_scenario_unknown_section_rejected():
    text = serialize_scenario(_awkward_scenario()) + "\n[telemetry]\nfoo = 1\n"
    with pytest.raises(ScenarioFormatError, match=r"\[telemetry\]"):
        parse_scenario(text)


def test_scenario_missing_key_rejected():
    text = serialize_scenario(_awkward_scenario()).replace("manning_n = 0.035\n", "")
    with pytest.raises(ScenarioFormatError, match="manning_n"):
        parse_scenario(text)


def test_scenario_missing_section_rejected():
    text = serialize_scenario(_awkward_scenario())
    head = text[: text.index("[run]")]
    with pytest.raises(ScenarioFormatError, match=r"\[run\]"):
        parse_scenario(head)


def test_scenario_duplicate_key_rejected():
    text = serialize_scenario(_awkward_scenario())
    text = text.replace("[run]\nt_total_hours", "[run]\nt_total_hours = 1.0\nt_total_hours")
    with pytest.raises(ScenarioFormatError, match="duplicate key"):
        parse_scenario(text)


def test_scenario_garbage_line_rejected():
    with pytest.raises(ScenarioFormatError, match="line 2"):
        parse_scenario("[geometry]\nwat\n")


def test_scenario_content_before_section_rejected():
    with pytest.raises(ScenarioFormatError, match="before any"):
        parse_scenario("length_miles = 3\n")


def test_scenario_non_numeric_value_rejected():
    text = serialize_scenario(_awkward_scenario())
    text = text.replace("t_total_hours = 5.0", "t_total_hours = five")
    with pytest.raises(ScenarioFormatError, match="not a number"):
        parse_scenario(text)


def test_scenario_bad_series_row_rejected():
    text = serialize_scenario(_awkward_scenario())
    text = text.replace("upstream_discharge_cfs:\n", "upstream_discharge_cfs:\n  1.0,2.0,3.0\n")
    with pytest.raises(ScenarioFormatError, match="row 1"):
        parse_scenario(text)


def test_readme_scenario_example_parses():
    """The example in README.md's "File formats" section is a valid scenario."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("Example scenario:", 1)[1].split("```", 2)[1]
    scenario = parse_scenario(example)
    assert scenario.station_positions_miles == (2.0, 5.0, 8.0)
    assert scenario.boundaries.upstream_discharge_cfs.values.tolist() == [20000.0, 60000.0, 20000.0]
    assert scenario.t_total_hours == 48.0


def test_scenario_inconsistent_content_rejected():
    text = serialize_scenario(_awkward_scenario())
    # stations outside the reach are a semantic error surfaced as a format error
    text = text.replace("  2.9", "  99.0")
    with pytest.raises(ScenarioFormatError, match="inconsistent"):
        parse_scenario(text)


# ---------------------------------------------------------------------------
# field format


@pytest.fixture(scope="module")
def solved():
    scenario = make_flood_wave_scenario(4, 2.0, seed=3, t_total_hours=6.0)
    return scenario, solve(scenario, SolverConfig(n_cells=60))


def test_field_round_trip(tmp_path, solved):
    scenario, field = solved
    digest = scenario_hash(scenario)
    path = tmp_path / "field.txt"
    write_field(field, digest, path)
    loaded, loaded_digest = read_field(path)
    assert loaded_digest == digest
    assert loaded == field  # bitwise: arrays and wall clock
    np.testing.assert_array_equal(loaded.h, field.h)
    np.testing.assert_array_equal(loaded.u, field.u)


def test_field_unit_string_is_checked(tmp_path, solved):
    scenario, field = solved
    path = tmp_path / "field.txt"
    write_field(field, "0" * 64, path)
    text = path.read_text().replace("h:ft", "h:m")
    path.write_text(text)
    with pytest.raises(FieldFormatError, match="unit"):
        read_field(path)


def test_field_row_count_is_checked(tmp_path, solved):
    _, field = solved
    path = tmp_path / "field.txt"
    write_field(field, "0" * 64, path)
    lines = path.read_text().splitlines()
    del lines[-1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FieldFormatError, match="rows"):
        read_field(path)


def test_field_grid_mismatch_is_checked(tmp_path, solved):
    _, field = solved
    path = tmp_path / "field.txt"
    write_field(field, "0" * 64, path)
    lines = path.read_text().splitlines()
    # corrupt the station column of the last data row
    t, x, h, u = lines[-1].split(",")
    lines[-1] = ",".join([t, "123.456", h, u])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FieldFormatError, match="station column"):
        read_field(path)


def test_field_bad_column_count(tmp_path, solved):
    _, field = solved
    path = tmp_path / "field.txt"
    write_field(field, "0" * 64, path)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1] + ",9.9"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FieldFormatError, match="4 columns"):
        read_field(path)


# ---------------------------------------------------------------------------
# checkpoints


def _model(scenario, use_fourier=True):
    return init_model(
        box_for_scenario(scenario),
        n_blocks=2,
        width=16,
        m=8,
        sigma=4.0,
        activation="relu",
        seed=7,
        use_fourier=use_fourier,
    )


def test_checkpoint_round_trip(tmp_path, solved):
    scenario, _ = solved
    model = _model(scenario)
    digest = scenario_hash(scenario)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, digest)
    loaded, loaded_digest = load_checkpoint(path)
    assert loaded_digest == digest
    np.testing.assert_array_equal(loaded.weights, model.weights)
    np.testing.assert_array_equal(loaded.encoder.b_matrix, model.encoder.b_matrix)
    assert loaded.encoder.sigma == model.encoder.sigma
    assert loaded.manifest == model.manifest
    assert (loaded.width, loaded.n_blocks, loaded.activation, loaded.seed) == (
        model.width,
        model.n_blocks,
        model.activation,
        model.seed,
    )
    assert loaded.norm == model.norm


def test_checkpoint_round_trip_without_fourier(tmp_path, solved):
    scenario, _ = solved
    model = _model(scenario, use_fourier=False)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded, digest = load_checkpoint(path)
    assert digest is None
    assert loaded.encoder is None
    np.testing.assert_array_equal(loaded.weights, model.weights)


def test_checkpoint_save_is_deterministic(tmp_path, solved):
    scenario, _ = solved
    model = _model(scenario)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, a, "x" * 64)
    save_checkpoint(model, b, "x" * 64)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACHECKPOINT" + b"\x00" * 64)
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncated_payload(tmp_path, solved):
    scenario, _ = solved
    model = _model(scenario)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(CheckpointFormatError, match="bytes"):
        load_checkpoint(path)


def test_checkpoint_corrupt_header(tmp_path, solved):
    scenario, _ = solved
    model = _model(scenario)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[20] = ord("!")  # inside the JSON header
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_weight_count_must_match_manifest(tmp_path, solved):
    scenario, _ = solved
    model = _model(scenario)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    # tamper with n_weights inside the JSON header, keeping its length fixed
    header_len = int.from_bytes(raw[14:18], "little")
    header = raw[18 : 18 + header_len].decode()
    n = model.weights.size
    assert str(n) in header
    tampered = header.replace(f'"n_weights": {n}', f'"n_weights": {n + 1}', 1)
    # pad to the declared length so the framing still parses
    body = tampered.encode().ljust(header_len, b" ")
    path.write_bytes(raw[:18] + body + raw[18 + header_len :])
    with pytest.raises(CheckpointFormatError, match="manifest"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# history CSV


def test_history_round_trip(tmp_path):
    history = [
        HistoryRow(100, 0.1 + 0.2, 1.0 / 3.0, 0.3 + 1.0 / 30.0, 1e-3),
        HistoryRow(200, 0.05, 0.25, 0.075, 1e-3 * 0.5**0.005),
    ]
    path = tmp_path / "history.csv"
    write_history(history, path)
    assert read_history(path) == history
    first = path.read_text().splitlines()[0]
    assert first == "iteration,data_loss,physics_loss,total_loss,lr"


def test_history_missing_header(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text("1,2,3,4,5\n")
    with pytest.raises(FormatError, match="header"):
        read_history(path)


def test_history_bad_row(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text("iteration,data_loss,physics_loss,total_loss,lr\n1,2,3\n")
    with pytest.raises(FormatError, match="line 2"):
        read_history(path)


# ---------------------------------------------------------------------------
# reports


@pytest.fixture(scope="module")
def report(solved):
    scenario, field = solved
    model = _model(scenario)
    return evaluate(model, field, scenario, n_collocation=200)


def test_report_json_isolates_timing(report):
    d = report_to_dict(report)
    assert set(d["timing"]) == {"solver_seconds", "surrogate_seconds", "speedup"}
    flat = json.dumps({k: v for k, v in d.items() if k != "timing"})
    assert "seconds" not in flat and "speedup" not in flat


def test_write_report_files(tmp_path, report):
    write_report(report, tmp_path / "out")
    out = tmp_path / "out"
    blob = json.loads((out / "report.json").read_text())
    assert blob["overall_stage_mrae"] == report.overall_stage_mrae
    assert blob["timing"]["speedup"] == report.speedup

    per_station = (out / "per_station.csv").read_text().splitlines()
    assert per_station[0] == "station_miles,stage_mrae"
    assert len(per_station) == 1 + report.n_stations

    hist = (out / "error_histogram.csv").read_text().splitlines()
    assert hist[0] == "bin_left,bin_right,count"
    assert len(hist) == 1 + 20
    counts = [int(line.rsplit(",", 1)[1]) for line in hist[1:]]
    assert sum(counts) == report.n_stations


def test_write_benchmark(tmp_path, solved):
    scenario, _ = solved
    model = _model(scenario)
    result = benchmark(model, scenario, repetitions=3, n_cells=60)
    path = tmp_path / "benchmark.json"
    write_benchmark(result, path)
    blob = json.loads(path.read_text())
    assert blob["n_cells"] == 60
    assert blob["timing"]["speedup"] == result.speedup
    assert len(blob["timing"]["solver_seconds"]) == 3


def test_atomic_overwrite(tmp_path):
    from stagecast.fileio import atomic_write_text

    path = tmp_path / "file.txt"
    atomic_write_text(path, "first\n")
    atomic_write_text(path, "second\n")
    assert path.read_text() == "second\n"
    assert list(tmp_path.iterdir()) == [path]
