"""Round trips and failure modes of the on-disk formats."""

import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagecast.fileio import (
    FormatError,
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
from stagecast.solver import FlowField, SolverConfig, solve
from stagecast.surrogate import (
    FourierEncoder,
    NormalizationBox,
    SurrogateModel,
    box_for_scenario,
    init_model,
)
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
    with pytest.raises(FormatError, match=rf"line {idx + 1}.*frobnication_level"):
        parse_scenario("\n".join(lines) + "\n")


def test_scenario_unknown_section_rejected():
    text = serialize_scenario(_awkward_scenario()) + "\n[telemetry]\nfoo = 1\n"
    with pytest.raises(FormatError, match=r"\[telemetry\]"):
        parse_scenario(text)


def test_scenario_missing_key_rejected():
    text = serialize_scenario(_awkward_scenario()).replace("manning_n = 0.035\n", "")
    with pytest.raises(FormatError, match="manning_n"):
        parse_scenario(text)


def test_scenario_missing_section_rejected():
    text = serialize_scenario(_awkward_scenario())
    head = text[: text.index("[run]")]
    with pytest.raises(FormatError, match=r"\[run\]"):
        parse_scenario(head)


def test_scenario_duplicate_key_rejected():
    text = serialize_scenario(_awkward_scenario())
    text = text.replace("[run]\nt_total_hours", "[run]\nt_total_hours = 1.0\nt_total_hours")
    with pytest.raises(FormatError, match="duplicate key"):
        parse_scenario(text)


def test_scenario_garbage_line_rejected():
    with pytest.raises(FormatError, match="line 2"):
        parse_scenario("[geometry]\nwat\n")


def test_scenario_content_before_section_rejected():
    with pytest.raises(FormatError, match="before any"):
        parse_scenario("length_miles = 3\n")


def test_scenario_non_numeric_value_rejected():
    text = serialize_scenario(_awkward_scenario())
    text = text.replace("t_total_hours = 5.0", "t_total_hours = five")
    with pytest.raises(FormatError, match="not a number"):
        parse_scenario(text)


def test_scenario_bad_series_row_rejected():
    text = serialize_scenario(_awkward_scenario())
    text = text.replace("upstream_discharge_cfs:\n", "upstream_discharge_cfs:\n  1.0,2.0,3.0\n")
    with pytest.raises(FormatError, match="row 1"):
        parse_scenario(text)


def test_scenario_non_numeric_station_names_its_row():
    text = serialize_scenario(_awkward_scenario())
    text = text.replace("  1.7\n", "  one\n")
    with pytest.raises(FormatError,
                       match=r"\[stations\] positions_miles row 2: not a number: 'one'"):
        parse_scenario(text)


@pytest.mark.parametrize("word", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "old, new, where",
    [
        ("width_ft = 100.3", "width_ft = {}", r"\[geometry\] width_ft: "),
        ("t_total_hours = 5.0", "t_total_hours = {}", r"\[run\] t_total_hours: "),
        ("  1.7\n", "  {}\n", r"\[stations\] positions_miles row 2: "),
        ("  5.0,900.0\n", "  5.0,{}\n", r"\[boundaries\] upstream_discharge_cfs row 3: "),
    ],
    ids=["scalar", "run-scalar", "block-row", "series-row"],
)
def test_scenario_non_finite_number_rejected(word, old, new, where):
    """nan and inf parse as floats but are no scenario's numbers: each is
    rejected where it is read, naming its section and key."""
    text = serialize_scenario(_awkward_scenario())
    assert old in text
    text = text.replace(old, new.format(word), 1)
    with pytest.raises(FormatError, match=where + "not finite: '[^']*" + re.escape(word)):
        parse_scenario(text)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("width_ft = 100.3", "width_ft = -5.0", "[geometry] width_ft must be positive"),
        ("manning_n = 0.035", "manning_n = 0.0", "[geometry] manning_n must be positive"),
        ("bed_slope = 0.", "bed_slope = -0.", "[geometry] bed_slope must be non-negative"),
        ("initial_depth_ft = 6.000000000000001", "initial_depth_ft = -1.0",
         "[boundaries] initial_depth_ft must be positive"),
    ],
    ids=["width", "roughness", "slope", "depth"],
)
def test_scenario_out_of_range_number_names_its_key(old, new, message):
    """A finite number out of its range is rejected naming its section and
    key, like a non-finite one."""
    text = serialize_scenario(_awkward_scenario())
    assert old in text
    with pytest.raises(FormatError, match=re.escape(message)):
        parse_scenario(text.replace(old, new, 1))


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
    with pytest.raises(FormatError, match="inconsistent"):
        parse_scenario(text)


# ---------------------------------------------------------------------------
# golden bytes: a writer refactor must not change a file, or every saved
# field and checkpoint would stop matching its scenario's hash.  The inputs
# are literals, not a solve or an RNG draw, so the digests hold on any platform.


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _literal_field():
    return FlowField(
        x_miles=np.array([0.0, 1.7, 10.0 / 3.0]),
        t_hours=np.array([0.0, 1.0 / 7.0]),
        h=np.array([[6.000000000000001, 5.5, 0.1 + 0.2], [7.25, 6.0 + 1e-12, 4.0 / 3.0]]),
        u=np.array([[0.0, -0.125, 1.0 / 3.0], [2.5, 1e-300, -7.0 / 11.0]]),
        wall_clock_seconds=0.125,
    )


def _literal_model():
    encoder = FourierEncoder(np.array([[0.5, -1.25], [3.0, 1.0 / 3.0]]), sigma=2.5)
    return SurrogateModel(
        encoder=encoder,
        weights=np.arange(28) / 7.0 - 2.0,  # width 2, one block, a 4-wide encoding
        width=2,
        n_blocks=1,
        activation="tanh",
        norm=NormalizationBox(0.0, 10.0 / 3.0, 0.0, 5.0),
        seed=3,
    )


def test_scenario_bytes_are_pinned():
    text = serialize_scenario(_awkward_scenario())
    assert _sha256(text.encode("utf-8")) == SCENARIO_SHA256


def test_field_bytes_are_pinned(tmp_path):
    path = tmp_path / "field.txt"
    write_field(_literal_field(), scenario_hash(_awkward_scenario()), path)
    assert _sha256(path.read_bytes()) == FIELD_SHA256


def test_checkpoint_bytes_are_pinned(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(_literal_model(), path, scenario_hash(_awkward_scenario()))
    assert _sha256(path.read_bytes()) == CHECKPOINT_SHA256


SCENARIO_SHA256 = "24e32cf91e98330f8c98daeaa8eefe0a99a3706bc3883481931d73602bbe92e1"
FIELD_SHA256 = "7fbdfa80b8bc743563159114a8a9053ed04d82cfd061237de04989a0efc933b6"
CHECKPOINT_SHA256 = "8061186c631f4801ce7e28da3dadfcc60ef4770ff92c2a0cda059639629921de"


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
    assert loaded == field  # bitwise: grids and data
    assert loaded.wall_clock_seconds == field.wall_clock_seconds
    np.testing.assert_array_equal(loaded.h, field.h)
    np.testing.assert_array_equal(loaded.u, field.u)


def test_field_unit_string_is_checked(tmp_path, solved):
    scenario, field = solved
    path = tmp_path / "field.txt"
    write_field(field, "0" * 64, path)
    text = path.read_text().replace("h:ft", "h:m")
    path.write_text(text)
    with pytest.raises(FormatError, match="unit"):
        read_field(path)


def test_field_row_count_is_checked(tmp_path, solved):
    _, field = solved
    path = tmp_path / "field.txt"
    write_field(field, "0" * 64, path)
    lines = path.read_text().splitlines()
    del lines[-1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="rows"):
        read_field(path)


def test_field_grid_mismatch_is_checked(tmp_path, solved):
    _, field = solved
    path = tmp_path / "field.txt"
    write_field(field, "0" * 64, path)
    lines = path.read_text().splitlines()
    # corrupt the station column of the last data row
    written = lines[-1]
    t, x, h, u = written.split(",")
    lines[-1] = ",".join([t, "123.456", h, u])
    path.write_text("\n".join(lines) + "\n")
    expected, found = written + "\n", lines[-1] + "\n"
    message = f"line {len(lines)}: expected {expected!r}, found {found!r}"
    with pytest.raises(FormatError, match=re.escape(message)):
        read_field(path)


def test_field_missing_its_final_newline_is_refused(tmp_path, solved):
    """Its lines split as the writer's do, so only the ending names the line."""
    _, field = solved
    path = tmp_path / "field.txt"
    write_field(field, "0" * 64, path)
    text = path.read_text()
    path.write_text(text[:-1])
    lines = text.splitlines()
    expected = lines[-1] + "\n"
    message = f"line {len(lines)}: expected {expected!r}, found {lines[-1]!r}"
    with pytest.raises(FormatError, match=re.escape(message) + "$"):
        read_field(path)


def test_field_bad_column_count(tmp_path, solved):
    _, field = solved
    path = tmp_path / "field.txt"
    write_field(field, "0" * 64, path)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1] + ",9.9"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="4 columns"):
        read_field(path)


@pytest.mark.parametrize("key", ["x_miles", "t_hours"])
def test_field_non_numeric_grid_row_names_its_row(tmp_path, solved, key):
    _, field = solved
    path = tmp_path / "field.txt"
    write_field(field, "0" * 64, path)
    lines = path.read_text().splitlines()
    lines[lines.index(f"{key}:") + 2] = "  zero"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=rf"\[field\] {key} row 2: not a number: 'zero'"):
        read_field(path)


@pytest.mark.parametrize("word", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [2, 3], ids=["depth", "velocity"])
def test_field_non_finite_cell_rejected(tmp_path, solved, word, column):
    """nan and inf parse as floats but are no field's numbers: a [data]
    cell holding one is rejected naming its row, as the grid rows are."""
    _, field = solved
    path = tmp_path / "field.txt"
    write_field(field, "0" * 64, path)
    lines = path.read_text().splitlines()
    at = lines.index("t_x_h_u:") + 3  # data row 3
    cells = lines[at].split(",")
    cells[column] = word
    lines[at] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError,
                       match=r"\[data\] t_x_h_u row 3: not finite: '" + re.escape(word) + "'"):
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
    save_checkpoint(model, path, scenario_hash(scenario))
    loaded, digest = load_checkpoint(path)
    assert digest == scenario_hash(scenario)
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
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncated_payload(tmp_path, solved):
    scenario, _ = solved
    model = _model(scenario)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, scenario_hash(scenario))
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(FormatError, match="bytes"):
        load_checkpoint(path)


def test_checkpoint_corrupt_header(tmp_path, solved):
    scenario, _ = solved
    model = _model(scenario)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, scenario_hash(scenario))
    raw = bytearray(path.read_bytes())
    raw[20] = ord("!")  # inside the JSON header
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("index", [3, -1], ids=["fourier-entry", "last-weight"])
def test_checkpoint_non_finite_number_rejected(tmp_path, solved, index):
    """A NaN weight would load, and eval would score it as a report of NaNs."""
    scenario, _ = solved
    model = _model(scenario)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, scenario_hash(scenario))
    raw = path.read_bytes()
    size = 8 * (model.encoder.b_matrix.size + model.n_weights)  # the Fourier matrix, the weights
    values = np.frombuffer(raw[-size:], dtype="<f8").copy()
    values[index] = np.nan
    path.write_bytes(raw[:-size] + values.tobytes())
    last = f"weight {model.n_weights - 1} is not finite"
    message = "b_matrix must be finite" if index >= 0 else last
    with pytest.raises(FormatError, match=message):
        load_checkpoint(path)


def test_checkpoint_weight_count_must_match_manifest(tmp_path, solved):
    scenario, _ = solved
    model = _model(scenario)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, scenario_hash(scenario))
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
    with pytest.raises(FormatError, match="'m' and 'n_weights' say"):
        load_checkpoint(path)


def _edit_header(path, **changes):
    """Rewrite the checkpoint at ``path`` with ``changes`` made to its JSON header."""
    raw = path.read_bytes()
    length = int.from_bytes(raw[14:18], "little")
    header = {**json.loads(raw[18 : 18 + length]), **changes}
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(raw[:14] + len(blob).to_bytes(4, "little") + blob + raw[18 + length :])


def test_checkpoint_with_a_billion_blocks_is_refused_without_a_manifest(
    tmp_path, solved, monkeypatch
):
    """The model checks its weight count in closed form; a manifest of the
    header's block count would walk a billion blocks before the refusal."""
    import stagecast.surrogate as surrogate

    real = surrogate._manifest

    def spy(in_dim, width, n_blocks):
        assert n_blocks <= 10**4, f"built a manifest of {n_blocks} blocks"
        return real(in_dim, width, n_blocks)

    monkeypatch.setattr(surrogate, "_manifest", spy)
    scenario, _ = solved
    path = tmp_path / "model.ckpt"
    save_checkpoint(_model(scenario), path, scenario_hash(scenario))
    _edit_header(path, n_blocks=10**9)
    with pytest.raises(FormatError, match=r"weights have shape \(\d+,\), the layers \(\d+,\)"):
        load_checkpoint(path)


def test_a_number_given_as_an_int_is_written_as_the_float_read_back(tmp_path):
    """A scenario hashes as its own file does, and a checkpoint of an int
    box saved again keeps its bytes."""
    scenario = make_flood_wave_scenario(5, 3.0, t_total_hours=6)
    path = tmp_path / "scenario.txt"
    write_scenario(scenario, path)
    assert read_scenario(path) == scenario
    assert scenario_hash(read_scenario(path)) == scenario_hash(scenario)

    model = init_model(box_for_scenario(scenario), n_blocks=1, width=4, m=2)
    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    save_checkpoint(model, first, scenario_hash(scenario))
    save_checkpoint(load_checkpoint(first)[0], second, scenario_hash(scenario))
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# every file a writer writes reads back, and is written again to the byte

AWKWARD = st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2])
FINITE = st.one_of(AWKWARD, st.floats(allow_nan=False, allow_infinity=False))


def _array(draw, *shape):
    size = math.prod(shape)
    values = draw(st.lists(FINITE, min_size=size, max_size=size))
    return np.array(values, dtype=np.float64).reshape(shape)


@st.composite
def _fields(draw):
    n_t, n_x = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return FlowField(
        x_miles=_array(draw, n_x),
        t_hours=_array(draw, n_t),
        h=_array(draw, n_t, n_x),
        u=_array(draw, n_t, n_x),
        wall_clock_seconds=draw(FINITE),
    )


@settings(max_examples=50, deadline=None, derandomize=True)
@given(field=_fields(), digest=st.text("0123456789abcdef", min_size=64, max_size=64))
def test_field_write_read_write_keeps_its_bytes(tmp_path_factory, field, digest):
    path = tmp_path_factory.getbasetemp() / "round_trip_field.txt"
    write_field(field, digest, path)
    written = path.read_bytes()
    loaded, loaded_digest = read_field(path)
    assert loaded == field and loaded_digest == digest
    write_field(loaded, loaded_digest, path)
    assert path.read_bytes() == written


@st.composite
def _models(draw):
    number = st.one_of(st.integers(-10**6, 10**6), FINITE)  # an int as a caller may pass one
    x_lo, x_hi = sorted(draw(st.lists(number, min_size=2, max_size=2, unique=True)))
    t_lo, t_hi = sorted(draw(st.lists(number, min_size=2, max_size=2, unique=True)))
    use_fourier = draw(st.booleans())
    model = init_model(
        NormalizationBox(x_lo, x_hi, t_lo, t_hi),
        n_blocks=draw(st.integers(0, 2)),
        width=draw(st.integers(1, 3)),
        m=draw(st.integers(1, 3)),
        activation=draw(st.sampled_from(["relu", "tanh"])),
        seed=draw(st.integers(0, 2**31)),
        use_fourier=use_fourier,
    )
    encoder = None
    if use_fourier:
        encoder = FourierEncoder(_array(draw, model.encoder.m, 2), draw(number))
    return dataclasses.replace(model, encoder=encoder, weights=_array(draw, model.n_weights))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(model=_models())
def test_checkpoint_save_load_save_keeps_its_bytes(tmp_path_factory, model):
    path = tmp_path_factory.getbasetemp() / "round_trip_model.ckpt"
    save_checkpoint(model, path, "0" * 64)
    written = path.read_bytes()
    loaded, digest = load_checkpoint(path)
    save_checkpoint(loaded, path, digest)
    assert path.read_bytes() == written


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


def test_history_non_numeric_cell_names_file_and_line(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text("iteration,data_loss,physics_loss,total_loss,lr\n1,2,3,4,5\n2,2,nope,4,5\n")
    with pytest.raises(FormatError, match=r"history\.csv line 3: not a number"):
        read_history(path)


# ---------------------------------------------------------------------------
# reports


@pytest.fixture(scope="module")
def report(solved):
    scenario, field = solved
    model = _model(scenario)
    return evaluate(model, field, scenario)


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


@pytest.mark.parametrize("writer, data", [("atomic_write_text", "x\n"),
                                          ("atomic_write_bytes", b"x\n")], ids=["text", "bytes"])
def test_a_failed_atomic_write_names_its_path_and_leaves_no_temp(tmp_path, writer, data):
    """Whether the temp write or the rename fails, the error names the
    destination, not the temp file, and the temp file is gone."""
    import stagecast.fileio as fileio

    (tmp_path / "a_directory").mkdir()
    (tmp_path / "a_file").write_text("")
    for path in (tmp_path / "a_directory", tmp_path / "a_file" / "out"):
        with pytest.raises(OSError) as info:
            getattr(fileio, writer)(path, data)
        assert info.value.filename == str(path)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a_directory", "a_file"]
    getattr(fileio, writer)(tmp_path / "missing" / "deeper" / "out", data)  # parents are made
    assert (tmp_path / "missing" / "deeper" / "out").read_bytes() == b"x\n"
