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
types.  A scenario's keys are declared once, in ``_GEOMETRY_KEYS``,
``_BOUNDARY_SCALARS``, ``_BOUNDARY_SERIES`` and ``_RUN_KEYS``, which the
writer and the reader both walk.  A field file's keys are spelled once,
in its writer ``_field_text``: :func:`read_field` parses the grid and
the data, then refuses any text but the writer's for the field it read,
naming the first line that differs.  An unknown or missing section is a
hard error, and so is an unknown key, which is named with its line.
Every number read as a float is written as one, with ``repr``, so every
value survives a write/read round trip bit-for-bit and a file read back
is written again to the byte.  Every number must be finite; one table
reader parses each numeric block in one pass and names its first row
with a wrong column count, a non-number or a non-finite cell.  Every
reader raises one error type, :class:`FormatError`, whose message starts
with the path of the file.

Checkpoints are binary: a magic string, a JSON header (architecture,
normalization box, seed, scenario hash, weight manifest), then the
Fourier matrix and the flat weight vector as little-endian float64.
:func:`save_checkpoint` spells the header keys, and ``_CKPT_HEADER``
declares each one required with its JSON type (a bool is no integer and
a string no number); an unknown key is an error.  The loader builds the
model type from them, so a checkpoint is held to the model's own checks
(its weight count among them), the stored manifest must be the one the
writer derives from the model, and every weight finite.

Tables (loss history, per-station error, error histogram, ablation
curve) are CSV with a header line; reports, benchmark timings and the
ablation summary are JSON.  One CSV writer and one JSON writer serve
them all, and both turn numpy values into Python numbers first.  The
history columns are the fields of :class:`~stagecast.training.HistoryRow`
and the report keys the fields of the report dataclasses, whose
wall-clock fields go under a single ``"timing"`` key; everything outside
``"timing"`` is a pure function of the seeds and inputs.  All writers go
through a temp-file-plus-rename so readers never observe a half-written
file, and that write alone makes a missing parent directory.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
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
from .surrogate import FourierEncoder, NormalizationBox, SurrogateModel
from .training import HistoryRow

__all__ = [
    "CHECKPOINT_FILE",
    "HISTORY_FILE",
    "REPORT_FILES",
    "SUMMARY_FILE",
    "ABLATION_RUN_FILES",
    "FormatError",
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
    """Input that breaks its format; read from a file, the message starts with its path."""


# --------------------------------------------------------------------------
# atomic writes
# --------------------------------------------------------------------------


def _write_through_temp(path, write) -> None:
    """Make ``path``'s parent, ``write`` a hidden sibling and rename it onto ``path``;
    a failure removes the sibling.  No other code makes a directory."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write(tmp)
        os.replace(tmp, path)
    except OSError as err:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise OSError(err.errno, err.strerror, str(path)) from err


def atomic_write_text(path, text: str) -> None:
    _write_through_temp(path, lambda tmp: tmp.write_text(text))


def atomic_write_bytes(path, data: bytes) -> None:
    _write_through_temp(path, lambda tmp: tmp.write_bytes(data))


# --------------------------------------------------------------------------
# sectioned text grammar
# --------------------------------------------------------------------------


class _Section:
    """One parsed ``[section]``: typed reads by key, each key read once.

    Every error is a :class:`FormatError` that names the section; the
    file reader puts the path in front.
    """

    def __init__(self, name: str, entries: dict):
        self.name = name
        self._entries = entries  # key -> (lineno, scalar string or list of block rows)

    def _pop(self, key: str):
        if key not in self._entries:
            raise FormatError(f"[{self.name}] is missing required key {key!r}")
        return self._entries.pop(key)[1]

    def text(self, key: str) -> str:
        value = self._pop(key)
        if isinstance(value, list):
            raise FormatError(f"[{self.name}] {key}: expected a scalar, found a block")
        return value

    def _finite(self, text: str, where: str) -> float:
        """``text`` as a float; nan and inf parse but are no file's numbers."""
        try:
            value = float(text)
        except ValueError as err:
            raise FormatError(f"[{self.name}] {where}: not a number: {text!r}") from err
        if not math.isfinite(value):
            raise FormatError(f"[{self.name}] {where}: not finite: {text!r}")
        return value

    def float(self, key: str) -> float:
        return self._finite(self.text(key), key)

    def table(self, key: str, columns: int) -> np.ndarray:
        """An indented block of ``columns`` comma-separated numbers per row,
        as a (rows, columns) array; every number must be finite."""
        rows = self._pop(key)
        if not isinstance(rows, list):
            raise FormatError(f"[{self.name}] {key}: expected an indented block")
        values = []
        for i, row in enumerate(rows, 1):
            cells = row.split(",")
            if len(cells) != columns:
                raise FormatError(f"[{self.name}] {key} row {i}: expected {columns} columns, got {row!r}")
            for cell in cells:
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan  # not a number: named below
                if not math.isfinite(value):
                    self._finite(cell, f"{key} row {i}")  # raises, naming the row and why
                values.append(value)
        return np.array(values, dtype=np.float64).reshape(len(rows), columns)

    def series(self, key: str) -> TimeSeries:
        t_hours, values = self.table(key, 2).T
        try:
            return TimeSeries(t_hours, values)
        except ValueError as err:
            raise FormatError(f"[{self.name}] {key}: {err}") from err

    def floats(self, keys) -> dict:
        """The scalar ``keys``, read in order, as floats."""
        return {key: self.float(key) for key in keys}

    def build(self, cls, values: dict):
        """``cls(**values)`` from this section's ``values``; a range error of
        ``cls``, whose message starts with the key, gets the section in front."""
        try:
            return cls(**values)
        except ValueError as err:
            raise FormatError(f"[{self.name}] {err}") from err

    def close(self) -> None:
        """Reject any key that was not read."""
        if self._entries:
            key, (lineno, _) = next(iter(self._entries.items()))
            raise FormatError(f"line {lineno}: unknown key {key!r} in [{self.name}]")


def _parse_sections(text: str, kind: str, names: tuple[str, ...]) -> list[_Section]:
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
                raise FormatError(f"line {lineno}: malformed section header {raw!r}")
            name = line[1:-1].strip()
            if name in sections:
                raise FormatError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise FormatError(f"line {lineno}: content before any [section]")
        if line.endswith(":") and "=" not in line:
            key = line[:-1].strip()
            if key in sections[current]:
                raise FormatError(f"line {lineno}: duplicate key {key!r} in [{current}]")
            block = []
            sections[current][key] = (lineno, block)
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            key = key.strip()
            if key in sections[current]:
                raise FormatError(f"line {lineno}: duplicate key {key!r} in [{current}]")
            sections[current][key] = (lineno, value.strip())
            continue
        raise FormatError(f"line {lineno}: cannot parse {raw!r}")
    for name in sections:
        if name not in names:
            raise FormatError(f"unknown {kind} section [{name}]")
    for name in names:
        if name not in sections:
            raise FormatError(f"missing required section [{name}]")
    return [_Section(name, sections[name]) for name in names]


# --------------------------------------------------------------------------
# scenario format
# --------------------------------------------------------------------------

_GEOMETRY_KEYS = tuple(f.name for f in dataclasses.fields(ChannelGeometry))
_BOUNDARY_SCALARS = ("initial_depth_ft", "initial_velocity_fps")  # then its series blocks
_BOUNDARY_SERIES = ("upstream_discharge_cfs", "downstream_stage_ft")
_RUN_KEYS = ("t_total_hours", "output_dt_hours")


def _scalar_lines(obj, keys) -> list[str]:
    """``key = value`` lines, each value written as the float the reader makes of it."""
    return [f"{key} = {float(getattr(obj, key))!r}" for key in keys]


def serialize_scenario(scenario: RiverScenario) -> str:
    b = scenario.boundaries
    lines = ["# stagecast scenario v1", "[geometry]"]
    lines += _scalar_lines(scenario.geometry, _GEOMETRY_KEYS)
    lines += ["", "[boundaries]", *_scalar_lines(b, _BOUNDARY_SCALARS)]
    for key in _BOUNDARY_SERIES:
        series = getattr(b, key)
        lines.append(f"{key}:")
        lines += [f"  {t!r},{v!r}" for t, v in zip(series.t_hours.tolist(), series.values.tolist())]
    lines += ["", "[stations]", "positions_miles:"]
    lines += [f"  {x!r}" for x in scenario.station_positions_miles]
    lines += ["", "[run]", *_scalar_lines(scenario, _RUN_KEYS)]
    return "\n".join(lines) + "\n"


def parse_scenario(text: str) -> RiverScenario:
    geo, bounds, stations, run = _parse_sections(
        text, "scenario", ("geometry", "boundaries", "stations", "run")
    )

    geometry = geo.build(ChannelGeometry, geo.floats(_GEOMETRY_KEYS))
    geo.close()

    values = bounds.floats(_BOUNDARY_SCALARS)
    values.update((key, bounds.series(key)) for key in _BOUNDARY_SERIES)
    boundaries = bounds.build(BoundaryConditions, values)
    bounds.close()

    positions = tuple(stations.table("positions_miles", 1)[:, 0].tolist())
    stations.close()

    times = run.floats(_RUN_KEYS)
    run.close()

    try:
        return RiverScenario(
            geometry=geometry, boundaries=boundaries, station_positions_miles=positions, **times
        )
    except ValueError as exc:
        raise FormatError(f"scenario is internally inconsistent: {exc}") from exc


def write_scenario(scenario: RiverScenario, path) -> None:
    atomic_write_text(path, serialize_scenario(scenario))


@contextlib.contextmanager
def _in_file(path):
    """Prefix ``path`` to the message of a format error raised inside."""
    try:
        yield
    except FormatError as err:
        raise FormatError(f"{path}: {err}") from err


def read_scenario(path) -> RiverScenario:
    with _in_file(path):
        return parse_scenario(Path(path).read_text())


def scenario_hash(scenario: RiverScenario) -> str:
    """Content digest of the canonical serialization (platform-stable)."""
    return hashlib.sha256(serialize_scenario(scenario).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# field format
# --------------------------------------------------------------------------

_FIELD_UNITS = "x:miles,t:hours,h:ft,u:ft/s"


def _field_text(field: FlowField, scenario_digest: str) -> str:
    n_t, n_x = field.h.shape
    lines = ["# stagecast field v1", "[field]"]
    lines.append(f"n_stations = {n_x}")
    lines.append(f"n_times = {n_t}")
    lines.append(f"units = {_FIELD_UNITS}")
    lines.append(f"scenario_hash = {scenario_digest}")
    lines.append(f"wall_clock_seconds = {float(field.wall_clock_seconds)!r}")
    x_list, t_list = field.x_miles.tolist(), field.t_hours.tolist()
    lines.append("x_miles:")
    lines += [f"  {v!r}" for v in x_list]
    lines.append("t_hours:")
    lines += [f"  {v!r}" for v in t_list]
    lines += ["", "[data]", "t_x_h_u:"]
    for t, h_row, u_row in zip(t_list, field.h.tolist(), field.u.tolist()):
        lines += [f"  {t!r},{x!r},{h!r},{u!r}" for x, h, u in zip(x_list, h_row, u_row)]
    return "\n".join(lines) + "\n"


def write_field(field: FlowField, scenario_digest: str, path) -> None:
    atomic_write_text(path, _field_text(field, scenario_digest))


def read_field(path) -> tuple[FlowField, str]:
    """The field and scenario digest in ``path``, which must hold the very
    text :func:`write_field` writes for them; the error names the first
    line that differs, with its line ending (a missing line is ``None``)."""
    with _in_file(path):
        text = Path(path).read_text()
        head, data = _parse_sections(text, "field", ("field", "data"))
        digest = head.text("scenario_hash")
        wall = head.float("wall_clock_seconds")
        x = head.table("x_miles", 1)[:, 0]
        t = head.table("t_hours", 1)[:, 0]
        table = data.table("t_x_h_u", 4)
        n_t, n_x = t.size, x.size
        if len(table) != n_t * n_x:
            raise FormatError(f"[data] has {len(table)} rows, not {n_t} times x {n_x} stations")
        try:
            field = FlowField(
                x_miles=x,
                t_hours=t,
                h=table[:, 2].reshape(n_t, n_x),
                u=table[:, 3].reshape(n_t, n_x),
                wall_clock_seconds=wall,
            )
        except ValueError as err:  # the field refuses its grid
            raise FormatError(str(err)) from err
        written = _field_text(field, digest)
        if text != written:
            pairs = itertools.zip_longest(text.splitlines(True), written.splitlines(True))
            lineno, (found, expected) = next((n, p) for n, p in enumerate(pairs, 1) if p[0] != p[1])
            raise FormatError(f"line {lineno}: expected {expected!r}, found {found!r}")
    return field, digest


# --------------------------------------------------------------------------
# checkpoint format
# --------------------------------------------------------------------------

_CKPT_MAGIC = b"STAGECASTCKPT\x00"
_NULL = type(None)
# every header key, with the JSON types its value may have
_CKPT_HEADER = {
    "format_version": (int,), "use_fourier": (bool,), "m": (int, _NULL),
    "sigma": (int, float, _NULL), "width": (int,), "n_blocks": (int,), "activation": (str,),
    "seed": (int,), "norm": (list,), "scenario_hash": (str,), "manifest": (list,),
    "n_weights": (int,),
}


CHECKPOINT_FILE = "checkpoint.bin"  # the checkpoint's name in a training run's directory


def _manifest_json(model: SurrogateModel) -> list:
    return [[name, list(shape)] for name, shape in model.manifest]


def save_checkpoint(model: SurrogateModel, path, scenario_digest: str) -> None:
    header = {
        "format_version": 1,
        "use_fourier": model.uses_fourier,
        "m": model.encoder.m if model.uses_fourier else None,
        "sigma": float(model.encoder.sigma) if model.uses_fourier else None,
        "width": model.width,
        "n_blocks": model.n_blocks,
        "activation": model.activation,
        "seed": model.seed,
        "norm": [float(v) for v in dataclasses.astuple(model.norm)],
        "scenario_hash": scenario_digest,
        "manifest": _manifest_json(model),
        "n_weights": int(model.weights.size),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b""
    if model.uses_fourier:
        payload += np.ascontiguousarray(model.encoder.b_matrix).astype("<f8").tobytes()
    payload += model.weights.astype("<f8").tobytes()
    atomic_write_bytes(path, _CKPT_MAGIC + struct.pack("<I", len(blob)) + blob + payload)


def load_checkpoint(path) -> tuple[SurrogateModel, str]:
    raw = Path(path).read_bytes()
    if not raw.startswith(_CKPT_MAGIC):
        raise FormatError(f"{path}: not a stagecast checkpoint (bad magic)")
    offset = len(_CKPT_MAGIC)
    if len(raw) < offset + 4:
        raise FormatError(f"{path}: truncated header length")
    (header_len,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    try:
        header = json.loads(raw[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: corrupt JSON header") from exc
    offset += header_len
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    for key in sorted(header.keys() ^ _CKPT_HEADER.keys()):  # the first unknown or missing key
        state = "unknown" if key in header else "missing"
        raise FormatError(f"{path}: invalid header field: {key!r} is {state}")
    for key, kinds in _CKPT_HEADER.items():
        if type(header[key]) not in kinds:  # exact: a bool is no int, a string no number
            raise FormatError(f"{path}: invalid header field: {key!r} is {header[key]!r}")
    if header["format_version"] != 1:
        raise FormatError(f"{path}: unsupported format version {header['format_version']}")
    use_fourier, m, sigma, norm = (header[k] for k in ("use_fourier", "m", "sigma", "norm"))
    if (m is None) == use_fourier or (sigma is None) == use_fourier:
        what = "'m' and 'sigma' must be null exactly when 'use_fourier' is false"
        raise FormatError(f"{path}: invalid header field: {what}")
    if len(norm) != 4 or not all(type(v) in (int, float) for v in norm):
        raise FormatError(f"{path}: invalid header field: 'norm' is {norm!r}")
    n_weights = header["n_weights"]
    m = m or 0  # a model without an encoder stores no Fourier rows

    body = raw[offset:]
    need = 8 * (2 * m + n_weights)  # the Fourier matrix, then the weights
    if len(body) != need:
        raise FormatError(f"{path}: payload is {len(body)} bytes, 'm' and 'n_weights' say {need}")
    values = np.frombuffer(body, dtype="<f8").astype(np.float64)
    try:  # the encoder checks its matrix, and the model its weights
        model = SurrogateModel(
            encoder=(
                FourierEncoder(values[: 2 * m].reshape(m, 2), float(sigma)) if use_fourier else None
            ),
            weights=values[2 * m :],
            width=header["width"],
            n_blocks=header["n_blocks"],
            activation=header["activation"],
            norm=NormalizationBox(*map(float, norm)),
            seed=header["seed"],
        )
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if json.dumps(header["manifest"]) != json.dumps(_manifest_json(model)):  # 8.0 is no 8
        raise FormatError(f"{path}: manifest disagrees with declared architecture")
    return model, header["scenario_hash"]


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
    text = json.dumps(payload, indent=2, sort_keys=True, default=_plain, allow_nan=False)
    atomic_write_text(path, text + "\n")


_HISTORY_HEADER = ",".join(HistoryRow._fields)
HISTORY_FILE = "history.csv"  # the loss history's name in a training run's directory


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
        try:
            out.append(HistoryRow(int(parts[0]), *map(float, parts[1:])))  # iteration, then floats
        except ValueError as err:
            raise FormatError(f"{path} line {i}: not a number in {line!r}") from err
    return out


def report_to_dict(report: EvalReport | BenchmarkReport) -> dict:
    """A report's fields as JSON-ready values; its wall-clock fields go
    under the ``"timing"`` key, so the rest is a pure function of seeds and inputs."""
    out, timing = {}, {}
    for f in dataclasses.fields(report):
        (timing if f.metadata.get("wall_clock") else out)[f.name] = _plain(getattr(report, f.name))
    out["timing"] = timing
    return out


REPORT_FILES = ("report.json", "per_station.csv", "error_histogram.csv")  # write_report's


def write_report(report: EvalReport, out_dir) -> None:
    """Write the :data:`REPORT_FILES` into ``out_dir``: the report, the
    per-station error and the error histogram."""
    report_path, per_station_path, histogram_path = (Path(out_dir) / name for name in REPORT_FILES)
    _write_json(report_path, report_to_dict(report))
    _write_csv(
        per_station_path,
        ("station_miles", "stage_mrae"),
        zip(report.station_miles, report.per_station_mrae),
    )
    edges, counts = error_histogram(report.per_station_mrae)
    _write_csv(histogram_path, ("bin_left", "bin_right", "count"),
               zip(edges[:-1], edges[1:], counts))


def write_benchmark(result: BenchmarkReport, path) -> None:
    _write_json(path, report_to_dict(result))


_ABLATION_SUMMARY_KEYS = ("overall_stage_mrae", "overall_velocity_mrae", "mean_physics_residual")
_CONFIG_FILE = "config.json"  # an ablation configuration's settings, in its directory
_CURVE_FILE = "curve.csv"  # its stage curve, in the same directory
# every file write_ablation may write into a configuration's directory
ABLATION_RUN_FILES = (_CONFIG_FILE, HISTORY_FILE, *REPORT_FILES, _CURVE_FILE)
SUMMARY_FILE = "summary.json"  # the ablation's summary, beside the directories


def write_ablation(result: AblationResult, out_dir) -> None:
    """Write the :data:`SUMMARY_FILE` and one directory per configuration
    with the :data:`ABLATION_RUN_FILES`: the settings, the history and,
    unless the run diverged, the report files and the stage curve (stage at
    the curve station over time, truth against prediction)."""
    out = Path(out_dir)
    shared = {"seed": result.seed, "budget_iters": result.budget_iters}
    configs = {}
    for name, run in result.runs.items():
        config_dir = out / name
        _write_json(config_dir / _CONFIG_FILE, {
            "config": name, **shared,
            "use_fourier": run.use_fourier, "lambda_physics": run.lambda_physics,
        })
        write_history(run.history, config_dir / HISTORY_FILE)
        entry = {"diverged": run.diverged, "training_data_loss": run.training_data_loss}
        if not run.diverged:
            write_report(run.report, config_dir)
            entry.update({key: getattr(run.report, key) for key in _ABLATION_SUMMARY_KEYS})
            _write_csv(
                config_dir / _CURVE_FILE,
                ("t_hours", "truth_h_ft", "predicted_h_ft"),
                zip(result.curve_t_hours, result.curve_truth_h, run.curve),
            )
        configs[name] = entry
    _write_json(
        out / SUMMARY_FILE,
        {**shared, "curve_station_miles": result.curve_station_miles, "configs": configs},
    )
