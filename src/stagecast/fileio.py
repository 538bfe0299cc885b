"""Every file stagecast writes, and the readers for its inputs.

Text formats share one sectioned grammar::

    # comment
    [section]
    scalar_key = value
    block_key:
      row
      row

Block rows are indented by exactly two spaces and run until the first
unindented line.  Scalar keys match the field names of the in-memory
types.  An unknown or missing section is a hard error, and so is an
unknown key, which is named with its line.  Floats are written with
``repr`` so every value survives a write/read round trip bit-for-bit.

Checkpoints are binary: a magic string, a JSON header (architecture,
normalization box, seed, scenario hash, weight manifest), then the
Fourier matrix and the flat weight vector as little-endian float64.

Tables (loss history, per-station error, error histogram, ablation
curve) are CSV with a header line; reports, benchmark timings and the
ablation summary are JSON.  One CSV writer and one JSON writer serve
them all, and both turn numpy values into Python numbers first.  The
history columns are the fields of :class:`~stagecast.training.HistoryRow`
and the report keys the fields of the report dataclasses, whose
wall-clock fields go under a single ``"timing"`` key; everything outside
``"timing"`` is a pure function of the seeds and inputs.  All writers go
through a temp-file-plus-rename so readers never observe a half-written
file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .evaluation import AblationResult, BenchmarkReport, EvalReport, error_histogram
from .geometry import (
    BoundaryConditions,
    ChannelGeometry,
    RiverScenario,
    TimeSeries,
)
from .solver import FlowField
from .surrogate import FourierEncoder, NormalizationBox, SurrogateModel, _manifest
from .training import HistoryRow

__all__ = [
    "FormatError",
    "ScenarioFormatError",
    "FieldFormatError",
    "CheckpointFormatError",
    "serialize_scenario",
    "parse_scenario",
    "write_scenario",
    "read_scenario",
    "scenario_hash",
    "write_field",
    "read_field",
    "save_checkpoint",
    "load_checkpoint",
    "write_history",
    "read_history",
    "report_to_dict",
    "write_report",
    "write_benchmark",
    "write_ablation",
    "atomic_write_text",
    "atomic_write_bytes",
]


class FormatError(ValueError):
    """Base for structured file-format violations."""


class ScenarioFormatError(FormatError):
    pass


class FieldFormatError(FormatError):
    pass


class CheckpointFormatError(FormatError):
    pass


# --------------------------------------------------------------------------
# atomic writes
# --------------------------------------------------------------------------


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def atomic_write_bytes(path, data: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


# --------------------------------------------------------------------------
# sectioned text grammar
# --------------------------------------------------------------------------


class _Section:
    """One parsed ``[section]``: typed reads by key, each key read once.

    Every error names the section and raises the format's error class.
    """

    def __init__(self, name: str, entries: dict, error_cls):
        self.name = name
        self._entries = entries  # key -> (lineno, scalar string or list of block rows)
        self._error = error_cls

    def _pop(self, key: str):
        if key not in self._entries:
            raise self._error(f"[{self.name}] is missing required key {key!r}")
        return self._entries.pop(key)[1]

    def text(self, key: str) -> str:
        value = self._pop(key)
        if isinstance(value, list):
            raise self._error(f"[{self.name}] {key}: expected a scalar, found a block")
        return value

    def float(self, key: str) -> float:
        value = self.text(key)
        try:
            return float(value)
        except ValueError as err:
            raise self._error(f"[{self.name}] {key}: not a number: {value!r}") from err

    def rows(self, key: str) -> list[str]:
        value = self._pop(key)
        if not isinstance(value, list):
            raise self._error(f"[{self.name}] {key}: expected an indented block")
        return value

    def series(self, key: str) -> TimeSeries:
        ts, vs = [], []
        for i, row in enumerate(self.rows(key)):
            parts = row.split(",")
            if len(parts) != 2:
                raise self._error(f"[{self.name}] {key} row {i + 1}: expected 't,value', got {row!r}")
            try:
                ts.append(float(parts[0]))
                vs.append(float(parts[1]))
            except ValueError as err:
                raise self._error(f"[{self.name}] {key} row {i + 1}: not numeric: {row!r}") from err
        try:
            return TimeSeries(np.array(ts), np.array(vs))
        except ValueError as err:
            raise self._error(f"[{self.name}] {key}: {err}") from err

    def close(self) -> None:
        """Reject any key that was not read."""
        if self._entries:
            key, (lineno, _) = next(iter(self._entries.items()))
            raise self._error(f"line {lineno}: unknown key {key!r} in [{self.name}]")


def _parse_sections(text: str, error_cls, kind: str, names: tuple[str, ...]) -> list[_Section]:
    """Parse the shared grammar; return the sections ``names``, in that order.

    An unknown, missing or duplicated section is an error, and so is a
    duplicated key or a line the grammar does not allow.
    """
    sections: dict[str, dict] = {}
    current: str | None = None
    block: list | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        if block is not None:
            if raw.startswith("  "):
                block.append(raw[2:].strip())
                continue
            block = None
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise error_cls(f"line {lineno}: malformed section header {raw!r}")
            name = line[1:-1].strip()
            if name in sections:
                raise error_cls(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise error_cls(f"line {lineno}: content before any [section]")
        if line.endswith(":") and "=" not in line:
            key = line[:-1].strip()
            if key in sections[current]:
                raise error_cls(f"line {lineno}: duplicate key {key!r} in [{current}]")
            block = []
            sections[current][key] = (lineno, block)
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            key = key.strip()
            if key in sections[current]:
                raise error_cls(f"line {lineno}: duplicate key {key!r} in [{current}]")
            sections[current][key] = (lineno, value.strip())
            continue
        raise error_cls(f"line {lineno}: cannot parse {raw!r}")
    for name in sections:
        if name not in names:
            raise error_cls(f"unknown {kind} section [{name}]")
    for name in names:
        if name not in sections:
            raise error_cls(f"missing required section [{name}]")
    return [_Section(name, sections[name], error_cls) for name in names]


def _series_rows(series: TimeSeries) -> list[str]:
    return [f"{t!r},{v!r}" for t, v in zip(series.t_hours.tolist(), series.values.tolist())]


# --------------------------------------------------------------------------
# scenario format
# --------------------------------------------------------------------------

_GEOMETRY_KEYS = tuple(f.name for f in dataclasses.fields(ChannelGeometry))


def serialize_scenario(scenario: RiverScenario) -> str:
    g, b = scenario.geometry, scenario.boundaries
    lines = ["# stagecast scenario v1", "[geometry]"]
    lines += [f"{name} = {getattr(g, name)!r}" for name in _GEOMETRY_KEYS]
    lines += ["", "[boundaries]"]
    lines.append(f"initial_depth_ft = {b.initial_depth_ft!r}")
    lines.append(f"initial_velocity_fps = {b.initial_velocity_fps!r}")
    lines.append("upstream_discharge_cfs:")
    lines += [f"  {row}" for row in _series_rows(b.upstream_discharge_cfs)]
    lines.append("downstream_stage_ft:")
    lines += [f"  {row}" for row in _series_rows(b.downstream_stage_ft)]
    lines += ["", "[stations]", "positions_miles:"]
    lines += [f"  {x!r}" for x in scenario.station_positions_miles]
    lines += ["", "[run]"]
    lines.append(f"t_total_hours = {scenario.t_total_hours!r}")
    lines.append(f"output_dt_hours = {scenario.output_dt_hours!r}")
    return "\n".join(lines) + "\n"


def parse_scenario(text: str) -> RiverScenario:
    err = ScenarioFormatError
    geo, bounds, stations, run = _parse_sections(
        text, err, "scenario", ("geometry", "boundaries", "stations", "run")
    )

    geometry = ChannelGeometry(**{name: geo.float(name) for name in _GEOMETRY_KEYS})
    geo.close()

    boundaries = BoundaryConditions(
        initial_depth_ft=bounds.float("initial_depth_ft"),
        initial_velocity_fps=bounds.float("initial_velocity_fps"),
        upstream_discharge_cfs=bounds.series("upstream_discharge_cfs"),
        downstream_stage_ft=bounds.series("downstream_stage_ft"),
    )
    bounds.close()

    rows = stations.rows("positions_miles")
    stations.close()
    try:
        positions = tuple(float(r) for r in rows)
    except ValueError as exc:
        raise err(f"[stations] positions_miles: non-numeric row") from exc

    t_total = run.float("t_total_hours")
    output_dt = run.float("output_dt_hours")
    run.close()

    try:
        return RiverScenario(
            geometry=geometry,
            boundaries=boundaries,
            station_positions_miles=positions,
            t_total_hours=t_total,
            output_dt_hours=output_dt,
        )
    except ValueError as exc:
        raise err(f"scenario is internally inconsistent: {exc}") from exc


def write_scenario(scenario: RiverScenario, path) -> None:
    atomic_write_text(path, serialize_scenario(scenario))


def read_scenario(path) -> RiverScenario:
    return parse_scenario(Path(path).read_text())


def scenario_hash(scenario: RiverScenario) -> str:
    """Content digest of the canonical serialization (platform-stable)."""
    return hashlib.sha256(serialize_scenario(scenario).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# field format
# --------------------------------------------------------------------------


def write_field(field: FlowField, scenario_digest: str, path) -> None:
    n_t, n_x = field.h.shape
    lines = ["# stagecast field v1", "[field]"]
    lines.append(f"n_stations = {n_x}")
    lines.append(f"n_times = {n_t}")
    lines.append("units = x:miles,t:hours,h:ft,u:ft/s")
    lines.append(f"scenario_hash = {scenario_digest}")
    lines.append(f"wall_clock_seconds = {float(field.wall_clock_seconds)!r}")
    lines.append("x_miles:")
    lines += [f"  {v!r}" for v in field.x_miles.tolist()]
    lines.append("t_hours:")
    lines += [f"  {v!r}" for v in field.t_hours.tolist()]
    lines += ["", "[data]", "t_x_h_u:"]
    h, u = field.h, field.u
    t_list, x_list = field.t_hours.tolist(), field.x_miles.tolist()
    for j, t in enumerate(t_list):
        hj, uj = h[j].tolist(), u[j].tolist()
        for k, x in enumerate(x_list):
            lines.append(f"  {t!r},{x!r},{hj[k]!r},{uj[k]!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_field(path) -> tuple[FlowField, str]:
    err = FieldFormatError
    head, data = _parse_sections(Path(path).read_text(), err, "field", ("field", "data"))

    n_x = int(head.float("n_stations"))
    n_t = int(head.float("n_times"))
    units = head.text("units")
    if units != "x:miles,t:hours,h:ft,u:ft/s":
        raise err(f"unsupported unit system {units!r}")
    digest = head.text("scenario_hash")
    wall = head.float("wall_clock_seconds")
    x = np.array([float(r) for r in head.rows("x_miles")])
    t = np.array([float(r) for r in head.rows("t_hours")])
    head.close()
    if x.size != n_x:
        raise err(f"x_miles has {x.size} rows, header says {n_x}")
    if t.size != n_t:
        raise err(f"t_hours has {t.size} rows, header says {n_t}")

    rows = data.rows("t_x_h_u")
    data.close()
    if len(rows) != n_t * n_x:
        raise err(f"[data] has {len(rows)} rows, expected n_times*n_stations = {n_t * n_x}")
    table = np.empty((len(rows), 4))
    for i, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) != 4:
            raise err(f"[data] row {i + 1}: expected 4 columns, got {row!r}")
        try:
            table[i] = [float(p) for p in parts]
        except ValueError as exc:
            raise err(f"[data] row {i + 1}: not numeric: {row!r}") from exc
    tt = table[:, 0].reshape(n_t, n_x)
    xx = table[:, 1].reshape(n_t, n_x)
    if not np.array_equal(tt, np.broadcast_to(t[:, None], (n_t, n_x))):
        raise err("[data] time column disagrees with the t_hours grid")
    if not np.array_equal(xx, np.broadcast_to(x[None, :], (n_t, n_x))):
        raise err("[data] station column disagrees with the x_miles grid")
    field = FlowField(
        x_miles=x,
        t_hours=t,
        h=table[:, 2].reshape(n_t, n_x),
        u=table[:, 3].reshape(n_t, n_x),
        wall_clock_seconds=wall,
    )
    return field, digest


# --------------------------------------------------------------------------
# checkpoint format
# --------------------------------------------------------------------------

_CKPT_MAGIC = b"STAGECASTCKPT\x00"


def save_checkpoint(model: SurrogateModel, path, scenario_digest: str | None = None) -> None:
    header = {
        "format_version": 1,
        "use_fourier": model.uses_fourier,
        "m": model.encoder.m if model.uses_fourier else None,
        "sigma": model.encoder.sigma if model.uses_fourier else None,
        "width": model.width,
        "n_blocks": model.n_blocks,
        "activation": model.activation,
        "seed": model.seed,
        "norm": [
            model.norm.x_min_miles,
            model.norm.x_max_miles,
            model.norm.t_min_hours,
            model.norm.t_max_hours,
        ],
        "scenario_hash": scenario_digest,
        "manifest": [[name, list(shape)] for name, shape in model.manifest],
        "n_weights": int(model.weights.size),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b""
    if model.uses_fourier:
        payload += np.ascontiguousarray(model.encoder.b_matrix).astype("<f8").tobytes()
    payload += model.weights.astype("<f8").tobytes()
    atomic_write_bytes(path, _CKPT_MAGIC + struct.pack("<I", len(blob)) + blob + payload)


def load_checkpoint(path) -> tuple[SurrogateModel, str | None]:
    raw = Path(path).read_bytes()
    if not raw.startswith(_CKPT_MAGIC):
        raise CheckpointFormatError(f"{path}: not a stagecast checkpoint (bad magic)")
    offset = len(_CKPT_MAGIC)
    if len(raw) < offset + 4:
        raise CheckpointFormatError(f"{path}: truncated header length")
    (header_len,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    try:
        header = json.loads(raw[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"{path}: corrupt JSON header") from exc
    offset += header_len
    if header.get("format_version") != 1:
        raise CheckpointFormatError(f"{path}: unsupported format version {header.get('format_version')}")

    try:
        use_fourier = header["use_fourier"]
        manifest = tuple((name, tuple(shape)) for name, shape in header["manifest"])
        in_dim = 2 * header["m"] if use_fourier else 2
        declared = _manifest(in_dim, header["width"], header["n_blocks"])
        n_weights = header["n_weights"]
        activation = str(header["activation"])
        seed = int(header["seed"])
        norm = NormalizationBox(*[float(v) for v in header["norm"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: invalid header field: {exc}") from exc
    if manifest != declared:
        raise CheckpointFormatError(f"{path}: manifest disagrees with declared architecture")
    expected = sum(int(np.prod(shape)) for _, shape in manifest)
    if n_weights != expected:
        raise CheckpointFormatError(f"{path}: weight count {n_weights} != manifest total {expected}")

    body = raw[offset:]
    encoder = None
    if use_fourier:
        m = header["m"]
        need = m * 2 * 8
        if len(body) < need:
            raise CheckpointFormatError(f"{path}: truncated Fourier matrix")
        b = np.frombuffer(body[:need], dtype="<f8").astype(np.float64).reshape(m, 2)
        encoder = FourierEncoder(b, float(header["sigma"]))
        body = body[need:]
    if len(body) != n_weights * 8:
        raise CheckpointFormatError(
            f"{path}: weight payload is {len(body)} bytes, expected {n_weights * 8}"
        )
    weights = np.frombuffer(body, dtype="<f8").astype(np.float64)

    model = SurrogateModel(
        encoder=encoder,
        weights=weights,
        manifest=manifest,
        width=int(header["width"]),
        n_blocks=int(header["n_blocks"]),
        activation=activation,
        norm=norm,
        seed=seed,
    )
    return model, header.get("scenario_hash")


# --------------------------------------------------------------------------
# tables and reports
# --------------------------------------------------------------------------


def _plain(value):
    """A numpy scalar or array as the Python number or list it holds."""
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def _write_csv(path, header, rows) -> None:
    """A header line of column names, then one ``repr`` cell per value."""
    lines = [",".join(header)]
    lines += [",".join([repr(_plain(v)) for v in row]) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _write_json(path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True, default=_plain) + "\n")


_HISTORY_HEADER = ",".join(HistoryRow._fields)


def write_history(history, path) -> None:
    _write_csv(path, HistoryRow._fields, history)


def read_history(path) -> list[HistoryRow]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != _HISTORY_HEADER:
        raise FormatError(f"{path}: missing history header {_HISTORY_HEADER!r}")
    n_columns = len(HistoryRow._fields)
    out = []
    for i, line in enumerate(lines[1:], 2):
        parts = line.split(",")
        if len(parts) != n_columns:
            raise FormatError(f"{path} line {i}: expected {n_columns} columns")
        out.append(HistoryRow(int(parts[0]), *map(float, parts[1:])))  # iteration, then floats
    return out


def report_to_dict(report: EvalReport | BenchmarkReport) -> dict:
    """A report's fields as JSON-ready values; its wall-clock fields go
    under the ``"timing"`` key, so the rest is a pure function of seeds and inputs."""
    out, timing = {}, {}
    for f in dataclasses.fields(report):
        (timing if f.metadata.get("wall_clock") else out)[f.name] = _plain(getattr(report, f.name))
    out["timing"] = timing
    return out


def write_report(report: EvalReport, out_dir) -> None:
    """Write report.json, per_station.csv, and error_histogram.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", report_to_dict(report))
    _write_csv(
        out / "per_station.csv",
        ("station_miles", "stage_mrae"),
        zip(report.station_miles, report.per_station_mrae),
    )
    edges, counts = error_histogram(report.per_station_mrae)
    _write_csv(out / "error_histogram.csv", ("bin_left", "bin_right", "count"),
               zip(edges[:-1], edges[1:], counts))


def write_benchmark(result: BenchmarkReport, path) -> None:
    _write_json(path, report_to_dict(result))


_ABLATION_SUMMARY_KEYS = ("overall_stage_mrae", "overall_velocity_mrae", "mean_physics_residual")


def write_ablation(result: AblationResult, out_dir) -> None:
    """Write summary.json and one directory per configuration: config.json,
    history.csv and, unless the run diverged, the report files and curve.csv
    (stage at the curve station over time, truth against prediction)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = {"seed": result.seed, "budget_iters": result.budget_iters}
    configs = {}
    for name, settings in result.settings.items():
        config_dir = out / name
        config_dir.mkdir(exist_ok=True)
        _write_json(config_dir / "config.json", {"config": name, **run, **settings})
        write_history(result.histories[name], config_dir / "history.csv")
        entry = {
            "diverged": result.diverged[name],
            "training_data_loss": result.training_data_loss[name],
        }
        report = result.reports[name]
        if report is not None:
            write_report(report, config_dir)
            entry.update({key: getattr(report, key) for key in _ABLATION_SUMMARY_KEYS})
            _write_csv(
                config_dir / "curve.csv",
                ("t_hours", "truth_h_ft", "predicted_h_ft"),
                zip(result.curve_t_hours, result.curve_truth_h, result.curves[name]),
            )
        configs[name] = entry
    _write_json(
        out / "summary.json",
        {**run, "curve_station_miles": result.curve_station_miles, "configs": configs},
    )
