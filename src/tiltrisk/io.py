"""CSV ingestion, report emission, and the end-to-end analysis pipeline.

The data format is a headered CSV with column ``s`` (0/1), column ``y``
(may be empty on target rows), and numeric covariate columns.  Outputs
are a curve CSV (one row per eta) and a JSON report that validates
against the shipped schema.  Identical config and seed give byte-
identical outputs.
"""

from __future__ import annotations

import array
import contextlib
import csv
import functools
import importlib.resources
import importlib.util
import io
import json
import numbers
import platform
import re
import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .config import FORMAT_VERSION, AnalysisConfig, _model_from_config, _xstar_indices
from .data import ObservationTable, build_table
from .errors import DataError
from .estimators import SensitivityCurve, sensitivity_curve
from .etaselect import eta_grid_from_prevalence_range
from .nuisance import DesignSpec, NuisanceRecipe, NuisanceSet, fit_logistic
from .tilt import LossFunction, PredictionModel

CURVE_HEADER = (
    "eta", "estimate", "se", "ci_lo", "ci_hi",
    "diag_max_weight", "diag_clip_count", "status",
)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


@dataclass
class RawData:
    s: np.ndarray
    y: np.ndarray
    x: np.ndarray
    columns: tuple
    masked_y_count: int


def _read_raw(csv_path, x_columns) -> RawData:
    r"""Read the ``s``, ``y`` and covariate columns of a data file.

    The byte pass (``_read_chunks``) checks the data rows exactly and
    parses them with one float64 loadtxt per line-aligned chunk of the
    file's own bytes (``_line_chunks``), when the file is unquoted ASCII
    with ``\n`` or ``\r\n`` line ends, bare ``0``/``1`` in ``s`` and no
    blank line.  Any other file, and one the byte pass cannot decide, goes
    to the row scanner ``_read_rows``, which alone words the errors.  Both
    give the same result, bit for bit, or the same error.
    """
    try:
        raw = _read_chunks(Path(csv_path), x_columns)
    except (OSError, ValueError, csv.Error):
        raw = None
    return _read_rows(csv_path, x_columns) if raw is None else raw


def _open_data(path: Path):
    """Open a data file for the csv module, past a UTF-8 byte-order mark."""
    fh = open(path, newline="")
    if fh.read(1) != "\ufeff":
        fh.seek(0)
    return fh


def _column_indices(path: Path, fieldnames, x_columns) -> tuple:
    """Header positions of ``s``, ``y`` and the covariates, in that order."""
    if fieldnames is None:
        raise DataError(f"{path}: empty file")
    wanted = ("s", "y", *x_columns)
    missing = [c for c in wanted if c not in fieldnames]
    if missing:
        raise DataError(f"{path}: missing columns: {missing}")
    duplicated = [c for c in dict.fromkeys(wanted) if fieldnames.count(c) > 1]
    if duplicated:
        raise DataError(f"{path}: duplicate columns: {duplicated}")
    return tuple(fieldnames.index(c) for c in wanted)


# the byte pass reads the data rows in line-aligned chunks of about this size
_CHUNK_BYTES = 1 << 20
_HEADER_BYTES = 1 << 20   # a longer header line, or a file without line feeds, is declined
_LF, _CR, _COMMA, _ZERO, _ONE = b"\n\r,01"


def _read_chunks(path: Path, x_columns) -> Optional[RawData]:
    """The byte pass over the chunks of ``_line_chunks``: the cell count of
    the header and the positions of ``s``, ``y`` and the covariates, then
    the data rows in chunks that each end in a line feed.  Each chunk's
    field bounds come from its comma and line-feed positions, then ``y``
    and the covariates from one float64 loadtxt, written into outputs of
    an eighth more rows than the first chunk's bytes per row give the file
    (doubled when a chunk does not fit, cut to the rows read at the end),
    so no chunk is held past its own parse.  Returns None for a file it
    cannot decide (see ``_chunk_layout``), one with no data rows or one
    that reads ``y`` as a covariate too; a cell that does not parse raises
    ValueError.
    """
    if "y" in x_columns:   # the covariate would read the placeholder of an empty y
        return None
    with contextlib.closing(_line_chunks(path, x_columns)) as parts:
        layout = next(parts, None)
        if layout is None:
            return None
        n_cells, (s_col, y_col, *x_cols) = layout
        out, n, masked = None, 0, 0
        for chunk in parts:
            parsed = _chunk_values(chunk, n_cells, s_col, y_col, (y_col, *x_cols))
            if parsed is None:
                return None
            source, values, count = parsed
            rows = slice(n, n + source.size)
            if out is None:  # an eighth more, for rows longer than the first chunk's
                size = 9 * source.size * path.stat().st_size // (8 * len(chunk)) + 1
                out = [np.empty(size, dtype=bool), np.empty(size), np.empty((size, len(x_cols)))]
            elif rows.stop > out[0].size:
                size = max(2 * out[0].size, rows.stop)
                out = [_resized(a, size) for a in out]
            out[0][rows], out[1][rows], out[2][rows] = source, values[:, 0], values[:, 1:]
            n, masked = rows.stop, masked + count
            del parsed, source, values   # not held through the next chunk's parse
    if out is None:
        return None
    source, y, x = (_resized(a, n) for a in out)
    y[~source] = np.nan
    return RawData(s=source.astype(np.int64), y=y, x=x, columns=tuple(x_columns),
                   masked_y_count=masked)


def _resized(a: np.ndarray, rows: int) -> np.ndarray:
    """``a`` with ``rows`` rows, in place: its leading rows kept, the rest
    zero.  No view of ``a`` may be held."""
    a.resize((rows,) + a.shape[1:], refcheck=False)
    return a


def _header_fields(line: bytes) -> Optional[list]:
    """The header's cells from its line, read as the csv module reads the
    file; None unless the line ends in a line feed and holds the whole
    header."""
    if not line.endswith(b"\n"):
        return None
    # decoded as open() decodes the file, past a byte-order mark
    text = io.TextIOWrapper(io.BytesIO(line), newline="").read().removeprefix("\ufeff")
    fields = next(csv.reader([text]))
    # a quoted cell running on past the line keeps the line break
    return None if any("\n" in f or "\r" in f for f in fields) else fields


def _line_chunks(path: Path, x_columns):
    """The file's own bytes: the header's cell count and the positions of
    ``s``, ``y`` and the covariates in it, then the data rows in chunks of
    about ``_CHUNK_BYTES`` that each end in a line feed; a last line
    without one gets one.  Nothing for a header ``_header_fields`` cannot
    read, which includes one not ended within ``_HEADER_BYTES``."""
    with open(path, "rb") as fh:
        header = _header_fields(fh.readline(_HEADER_BYTES))
        if header is None:
            return
        yield len(header), _column_indices(path, header, x_columns)
        rest = b""
        while block := fh.read(_CHUNK_BYTES):
            rest, block = rest + block, None   # hold no block beside the chunk
            cut = rest.rfind(b"\n") + 1
            if cut:
                chunk, rest = rest[:cut], rest[cut:]
                yield chunk
        if rest:
            yield rest + b"\n"


def _chunk_values(chunk: bytes, n_cells: int, s_col: int, y_col: int, usecols: tuple):
    """(source, values, masked) of the rows of ``chunk``: which rows have
    ``s`` = 1, the float64 columns ``usecols`` and the count of filled
    target outcomes; None when ``_chunk_layout`` is."""
    layout = _chunk_layout(chunk, n_cells, s_col, y_col)
    if layout is None:
        return None
    source, empty_y, masked = layout
    if empty_y.size:   # a placeholder digit in each empty target outcome
        chunk = np.insert(np.frombuffer(chunk, np.uint8), empty_y, _ZERO).tobytes()
    values = np.loadtxt(_lines(chunk), dtype=np.float64, delimiter=",",
                        comments=None, quotechar=None, usecols=usecols, ndmin=2)
    return source, values, masked


def _chunk_layout(chunk: bytes, n_cells: int, s_col: int, y_col: int):
    r"""(source, empty_y, masked) of the rows of ``chunk``: which rows have
    ``s`` = 1, the offsets of the empty target outcomes and the count of
    filled ones.  None unless the chunk is ASCII with no quote or NUL,
    every line has ``n_cells`` cells and ends in ``\n`` or ``\r\n``, every
    ``s`` is a bare ``0`` or ``1``, no source ``y`` is empty and no field is
    longer than ``csv.field_size_limit()``.
    """
    if not chunk.isascii() or b'"' in chunk or b"\0" in chunk:
        return None
    a = np.frombuffer(chunk, np.uint8)
    is_end = a == _COMMA
    is_end |= a == _LF
    ends = np.flatnonzero(is_end)
    del is_end
    rows = chunk.count(b"\n")
    if ends.size != rows * n_cells:
        return None
    # field lengths: from one separator to the next
    lengths = np.empty_like(ends)
    lengths[0] = ends[0]
    np.subtract(ends[1:], ends[:-1], out=lengths[1:])
    lengths[1:] -= 1
    ends, lengths = ends.reshape(rows, n_cells), lengths.reshape(rows, n_cells)
    line_ends = ends[:, -1]
    # n_cells separators a line, the last of them its line feed
    if not (a[line_ends] == _LF).all():
        return None
    crlf = a[line_ends - 1] == _CR
    if chunk.count(b"\r") != np.count_nonzero(crlf):
        return None
    s_start, y_start = (ends[:, c] - lengths[:, c] for c in (s_col, y_col))
    lengths[:, -1] -= crlf
    if lengths.max() > csv.field_size_limit():
        return None
    s_cell = a[s_start]
    source = s_cell == _ONE
    y_len = lengths[:, y_col]
    if ((lengths[:, s_col] != 1) | ~(source | (s_cell == _ZERO)) | (source & (y_len == 0))).any():
        return None
    empty = y_len == 0
    return source, y_start[empty], int(np.count_nonzero(~(source | empty)))


def _lines(data: bytes):
    """UTF-8 text as lines split like a file opened with newline="".  A
    StringIO would hold the whole text at four bytes a character."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


def _read_rows(csv_path, x_columns) -> RawData:
    """Read a data file one row at a time.

    The reference reader, and the only one that words row errors.  Rows are
    numbered from 0 over the data rows; blank lines are skipped.  ``s``,
    ``y`` and the covariate cells go into typed buffers, eight bytes a
    cell, read by the result's arrays in place.
    """
    path = Path(csv_path)
    if not path.exists():
        raise DataError(f"data file not found: {path}")
    with _open_data(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        s_col, y_col, *x_cols = _column_indices(path, header, x_columns)
        width, x_cells = len(header), list(zip(x_columns, x_cols))
        s_vals, y_vals, x_vals = array.array("q"), array.array("d"), array.array("d")
        masked = 0
        for i, row in enumerate(filter(None, reader)):  # blank rows read as []
            if len(row) > width:
                raise DataError(f"row {i}: {len(row)} cells, header has {width}")
            row += [None] * (width - len(row))  # a missing cell reads as None
            sv = (row[s_col] or "").strip()
            if sv not in ("0", "1"):
                raise DataError(f"row {i}: s must be 0 or 1, got {row[s_col]!r}")
            s = int(sv)
            yv = (row[y_col] or "").strip()
            if s == 1:
                if yv == "":
                    raise DataError(f"row {i}: source row has empty y")
                try:
                    y = float(yv)
                except ValueError:
                    raise DataError(f"row {i}, column y: could not parse {yv!r}")
            else:
                if yv != "":
                    masked += 1
                y = np.nan
            for c, j in x_cells:
                cell = (row[j] or "").strip()
                try:
                    x_vals.append(float(cell))
                except ValueError:
                    raise DataError(f"row {i}, column {c}: could not parse {cell!r}")
            s_vals.append(s)
            y_vals.append(y)
    if not s_vals:
        raise DataError(f"{path}: no data rows")
    return RawData(
        s=np.frombuffer(s_vals, dtype=np.int64),
        y=np.frombuffer(y_vals, dtype=np.float64),
        x=np.frombuffer(x_vals, dtype=np.float64).reshape(len(s_vals), len(x_columns)),
        columns=tuple(x_columns),
        masked_y_count=masked,
    )


def load_table(csv_path, config: AnalysisConfig) -> ObservationTable:
    """Read and validate a CSV into an ObservationTable, as ``run_analysis``
    reads its data file (with a fit-split config, the table holds the rows
    the model was not fitted on).  Outcome values supplied on target rows
    are ignored with a warning carrying the count.
    """
    table, extra = _read_table(csv_path, config)
    if extra["masked_target_outcomes"]:
        warnings.warn(
            f"{extra['masked_target_outcomes']} target rows carried outcome values; ignored",
            stacklevel=2,
        )
    return table


# ---------------------------------------------------------------------------
# Curve CSV
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    return "" if v is None else repr(float(v))


def write_curve_csv(curve: SensitivityCurve, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_HEADER)
        for pt in curve:
            if pt.ok:
                r = pt.result
                ci_lo, ci_hi = (r.ci if r.ci is not None else (None, None))
                writer.writerow([
                    _fmt(pt.eta), _fmt(r.estimate), _fmt(r.se), _fmt(ci_lo), _fmt(ci_hi),
                    _fmt(r.diagnostics.get("max_weight")),
                    "" if r.diagnostics.get("clip_count") is None
                    else str(int(r.diagnostics["clip_count"])),
                    pt.status,
                ])
            else:
                writer.writerow([_fmt(pt.eta), "", "", "", "", "", "", pt.status])


def read_curve_csv(path) -> list:
    """Parse a curve CSV back into a list of row dicts (floats or None)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CURVE_HEADER:
            raise DataError(f"{path}: unexpected curve header {reader.fieldnames}")
        out = []
        for row in reader:
            parsed = {}
            for key in CURVE_HEADER[:-2]:
                parsed[key] = float(row[key]) if row[key] != "" else None
            parsed["diag_clip_count"] = (
                int(row["diag_clip_count"]) if row["diag_clip_count"] != "" else None
            )
            parsed["status"] = row["status"]
            out.append(parsed)
    return out


# ---------------------------------------------------------------------------
# JSON report
# ---------------------------------------------------------------------------


def report_schema() -> dict:
    text = importlib.resources.files("tiltrisk").joinpath("report_schema.json").read_text()
    return json.loads(text)


# The JSON Schema (Draft 2020-12) keywords the validator checks; $schema and
# title are annotations.  Any other keyword makes the schema unsupported, so
# an edit to the schema cannot silently weaken the check.
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}
_KEYWORDS = {"type", "required", "properties", "minimum", "items", "minItems", "const", "enum"}
_ANNOTATIONS = {"$schema", "title"}


def _type_names(types) -> tuple:
    return (types,) if isinstance(types, str) else tuple(types)


def _check_schema(schema, path: str = "$") -> dict:
    """Return ``schema`` if the validator supports every keyword and type
    name in it, at any depth; raise ValueError otherwise."""
    if not isinstance(schema, dict):
        raise ValueError(f"schema at {path}: only object subschemas are supported")
    unknown = sorted(schema.keys() - _KEYWORDS - _ANNOTATIONS)
    if unknown:
        raise ValueError(f"schema at {path}: unsupported keywords {unknown}")
    if not set(_type_names(schema.get("type", ()))) <= _JSON_TYPES.keys():
        raise ValueError(f"schema at {path}: unsupported type {schema['type']!r}")
    for name, sub in schema.get("properties", {}).items():
        _check_schema(sub, f"{path}.{name}")
    if "items" in schema:
        _check_schema(schema["items"], f"{path}[]")
    return schema


@functools.lru_cache(maxsize=None)
def _shipped_schema() -> dict:
    return _check_schema(report_schema())


def _json_equal(a, b) -> bool:
    """JSON equality: ``True`` is not ``1``; arrays and objects compare
    member by member."""
    if a is b:
        return True
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, Sequence) and isinstance(b, Sequence):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return len(a) == len(b) and all(k in b and _json_equal(v, b[k]) for k, v in a.items())
    # a bool equals only itself
    return not (isinstance(a, bool) or isinstance(b, bool)) and a == b


def _check(value, schema: dict, path: str) -> None:
    def fail(keyword, why):
        raise ValueError(f"report fails the schema at {path}: {keyword}: {why}")

    if "type" in schema and not any(
            _JSON_TYPES[t](value) for t in _type_names(schema["type"])):
        fail("type", f"{value!r} is not of type {schema['type']!r}")
    if "const" in schema and not _json_equal(value, schema["const"]):
        fail("const", f"{schema['const']!r} was expected, got {value!r}")
    if "enum" in schema and not any(_json_equal(value, e) for e in schema["enum"]):
        fail("enum", f"{value!r} is not one of {schema['enum']!r}")
    if "minimum" in schema and _JSON_TYPES["number"](value) and value < schema["minimum"]:
        fail("minimum", f"{value!r} is less than {schema['minimum']!r}")
    if isinstance(value, dict):
        missing = [k for k in schema.get("required", ()) if k not in value]
        if missing:
            fail("required", f"missing {missing}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _check(value[key], sub, f"{path}.{key}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            fail("minItems", f"{len(value)} items, at least {schema['minItems']} needed")
        if "items" in schema:
            for i, item in enumerate(value):
                _check(item, schema["items"], f"{path}[{i}]")


def validate_report(report: dict) -> None:
    """Check ``report`` against the shipped report schema, with Draft
    2020-12 semantics for the keywords in ``_KEYWORDS``.  A failure is a
    ValueError naming the JSON path and the keyword: the program builds the
    report, so an invalid one is a bug, not a data or config error."""
    _check(report, _shipped_schema(), "$")


def _scipy_version() -> str:
    """The installed scipy's version.  The analysis path does not import
    scipy, and importing it here would cost more than the rest of the
    report: the version file next to its spec is read (about 1 ms), or its
    package metadata (about 30 ms) when that file is missing or laid out
    otherwise."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        return "not installed"
    try:
        text = Path(spec.origin).with_name("version.py").read_text()
        return re.search(r"^version = ['\"](.+)['\"]", text, re.M).group(1)
    except (AttributeError, TypeError, OSError):
        from importlib import metadata

        return metadata.version("scipy")


def build_report(config: AnalysisConfig, table: ObservationTable,
                 curve: SensitivityCurve, curve_csv_name: str,
                 extra: Optional[dict] = None) -> dict:
    report = {
        "format_version": FORMAT_VERSION,
        "config": config.to_dict(),
        "seed": config.seed,
        "versions": {
            "tiltrisk": __version__,
            "numpy": np.__version__,
            "scipy": _scipy_version(),
            "python": platform.python_version(),
        },
        "data": {
            "n": table.n,
            "n1": table.n1,
            "n0": table.n0,
            "design": table.design,
        },
        "eta_grid": [float(e) for e in curve.metadata["eta_grid"]],
        "statuses": [pt.status for pt in curve],
        "diagnostics": {
            "n_failed_points": sum(0 if pt.ok else 1 for pt in curve),
            "max_weight": max(
                (pt.result.diagnostics.get("max_weight", 0.0) for pt in curve if pt.ok),
                default=0.0,
            ),
            "resampling": curve.metadata.get("resampling"),
        },
        "outputs": {"curve_csv": curve_csv_name},
    }
    if extra:
        report["diagnostics"].update(extra)
    return report


def write_report(report: dict, path) -> None:
    validate_report(report)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def _fit_model_on_split(raw: RawData, config: AnalysisConfig):
    """Split source rows; fit h on one half, return the model plus the row
    mask for the evaluation table (held-out sources and all targets)."""
    rng = np.random.default_rng(config.seed)
    src_idx = np.flatnonzero(raw.s == 1)
    if src_idx.size < 4:
        raise DataError("fit-split needs at least 4 source rows")
    perm = rng.permutation(src_idx)
    n_fit = int(round(config.fit_split * src_idx.size))
    n_fit = min(max(n_fit, 2), src_idx.size - 2)
    fit_rows = perm[:n_fit]
    xstar_idx = _xstar_indices(config)
    spec = DesignSpec(range(len(xstar_idx)))
    x_fit = raw.x[fit_rows][:, list(xstar_idx)]
    y_fit = raw.y[fit_rows]
    if config.model_link == "logit":
        glm = fit_logistic(spec, x_fit, y_fit)
        coefs = glm.coefficients
    else:
        d = np.column_stack([np.ones(x_fit.shape[0]), x_fit])
        coefs, *_ = np.linalg.lstsq(d, y_fit, rcond=None)
    model = PredictionModel(
        coefficients=tuple(float(c) for c in coefs),
        link=config.model_link,
        xstar_columns=xstar_idx,
    )
    keep = np.ones(raw.s.shape[0], dtype=bool)
    keep[fit_rows] = False
    return model, keep


def _recipe_from_config(config: AnalysisConfig) -> NuisanceRecipe:
    return NuisanceRecipe(
        outcome=config.outcome, loss=LossFunction(config.loss),
        p_design=config.p_basis, g_design=config.g_basis,
        a_design=config.p_basis if config.estimator == "aug-alt" else None,
    )


def _read_table(csv_path, config: AnalysisConfig) -> tuple:
    """(table, report notes) of the data file: read it, (optionally)
    split-and-fit the prediction model and build the table."""
    raw = _read_raw(csv_path, config.x_columns)
    extra = {"masked_target_outcomes": raw.masked_y_count}
    if config.fit_split is not None:
        model, keep = _fit_model_on_split(raw, config)
        extra["fit_split_rows_used"] = int((~keep).sum())
        raw_s, raw_x, raw_y = raw.s[keep], raw.x[keep], raw.y[keep]
    else:
        model = _model_from_config(config)
        raw_s, raw_x, raw_y = raw.s, raw.x, raw.y
    extra["model_coefficients_used"] = [float(c) for c in model.coefficients]
    table = build_table(raw_s, raw_x, raw_y, model, LossFunction(config.loss), config.design)
    return table, extra


def _analysis_inputs(config: AnalysisConfig) -> tuple:
    """(table, nuisances, eta grid, report notes) of ``config``: the table
    ``_read_table`` builds, the nuisances fitted once and the eta grid,
    explicit or prevalence-anchored."""
    table, extra = _read_table(config.data_path, config)
    nuis = _recipe_from_config(config).fit(table)
    if config.eta_grid is not None:
        grid = np.asarray(config.eta_grid, dtype=np.float64)
    else:
        grid = eta_grid_from_prevalence_range(table, nuis.g, config.anchor, p=nuis.p)
    return table, nuis, grid, extra


@dataclass(frozen=True)
class AnalysisOutput:
    curve: SensitivityCurve
    curve_csv: Path
    report_json: Path
    report: dict


def run_analysis(config: AnalysisConfig) -> AnalysisOutput:
    """Execute the full pipeline and write curve CSV plus JSON report.

    Steps: ``_analysis_inputs``, then sweep the configured estimator with
    confidence intervals and emit reports.
    Partial curves are still written; per-point failures land in the
    status column.
    """
    table, nuis, grid, extra = _analysis_inputs(config)
    curve = sensitivity_curve(
        table, nuis, grid, estimator=config.estimator, resample=config.resample
    )

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    curve_csv = out_dir / "curve.csv"
    report_json = out_dir / "report.json"
    write_curve_csv(curve, curve_csv)
    report = build_report(config, table, curve, curve_csv.name, extra=extra)
    write_report(report, report_json)
    return AnalysisOutput(curve=curve, curve_csv=curve_csv, report_json=report_json, report=report)
