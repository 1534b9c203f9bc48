"""CSV ingestion, report emission, and the end-to-end analysis pipeline.

The data format is a headered CSV with column ``s`` (0/1), column ``y``
(may be empty on target rows), and numeric covariate columns.  Outputs
are a curve CSV (one row per eta) and a JSON report that validates
against the shipped schema.  Identical config and seed give byte-
identical outputs.
"""

from __future__ import annotations

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
from .config import FORMAT_VERSION, AnalysisConfig
from .data import ObservationTable, build_table
from .errors import ConfigError, DataError
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
    """Read the ``s``, ``y`` and covariate columns of a data file.

    A regular file is parsed one column group at a time in C
    (``_read_columns``).  Any file that pass cannot take goes to the row
    scanner, which gives the same result or words the error.
    """
    try:
        raw = _read_columns(Path(csv_path), x_columns)
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


def _read_columns(path: Path, x_columns) -> Optional[RawData]:
    """The columnar pass: the covariates straight to float64, ``s`` and
    ``y`` as text checked with array operations.  Returns None when the
    file needs the row scanner (a bad ``s``, a row with more cells than the
    header, or no data rows); ragged rows and cells that do not parse, an
    empty source ``y`` among them, raise ValueError.
    """
    with _open_data(path) as fh:
        header = next(csv.reader(fh), None)
        s_col, y_col, *x_cols = _column_indices(path, header, x_columns)
        text = fh.read()
    # NUL is dropped from the end of numpy strings; a header-only file would
    # make loadtxt warn
    if "\0" in text or not text.strip("\r\n"):
        return None
    data = text.encode()
    # the same dialect as csv.reader on a file opened with newline=""
    dialect = dict(delimiter=",", comments=None, quotechar='"', ndmin=2)
    with warnings.catch_warnings():
        # the chunked text read remarks on skipped blank lines
        warnings.filterwarnings("ignore", "Input line", UserWarning)
        sy = np.loadtxt(_lines(data), dtype=str, usecols=(s_col, y_col), **dialect)
    s_text, y_text = np.char.strip(sy).T
    source = s_text == "1"
    if not (source | (s_text == "0")).all() or not _regular_rows(text, data, len(header)):
        return None
    x = np.loadtxt(_lines(data), dtype=np.float64, usecols=x_cols, **dialect)
    y = np.full(source.shape, np.nan)
    # float() on each source cell, as in the row scanner; an empty one raises
    y[source] = y_text[source].astype(np.float64)
    return RawData(
        s=source.astype(np.int64),
        y=y,
        x=x,
        columns=tuple(x_columns),
        masked_y_count=int(np.count_nonzero((y_text != "") & ~source)),
    )


def _lines(data: bytes):
    """UTF-8 text as lines split like a file opened with newline="".  A
    StringIO would hold the whole text at four bytes a character."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


# every byte but the comma and the line breaks
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\r\n")))


def _regular_rows(text: str, data: bytes, n_cells: int) -> bool:
    """Whether no row has more cells than the header's ``n_cells`` and no
    field is longer than ``csv.field_size_limit()``: loadtxt ignores extra
    cells and has no field limit, and the row scanner rejects both.
    """
    if '"' in text:   # quoted fields can hold separators: let csv split the rows
        return all(len(row) <= n_cells for row in csv.reader(_lines(data)))
    # a longer row leaves n_cells adjacent commas once every byte but the
    # commas and line breaks is deleted
    return (b"," * n_cells not in data.translate(None, _NOT_SEPARATORS)
            and _fields_within_csv_limit(text))


def _fields_within_csv_limit(text: str) -> bool:
    """Whether no field of unquoted ``text`` is longer than
    ``csv.field_size_limit()``."""
    limit = csv.field_size_limit()
    if len(text) <= limit:
        return True
    # an unquoted field longer than the limit holds a whole aligned block of
    # limit // 2 characters with no separator in it
    step = limit // 2
    return all(
        any(text.find(sep, i, i + step) >= 0 for sep in ",\r\n")
        for i in range(0, len(text) - step + 1, step)
    )


def _read_rows(csv_path, x_columns) -> RawData:
    """Read a data file one row at a time.

    The reference reader, and the only one that words row errors.  Rows are
    numbered from 0 over the data rows; blank lines are skipped.
    """
    path = Path(csv_path)
    if not path.exists():
        raise DataError(f"data file not found: {path}")
    with _open_data(path) as fh:
        reader = csv.DictReader(fh)
        _column_indices(path, reader.fieldnames, x_columns)
        s_vals, y_vals, x_rows = [], [], []
        masked = 0
        for i, row in enumerate(reader):
            if None in row:
                raise DataError(f"row {i}: {len(reader.fieldnames) + len(row[None])} cells, "
                                f"header has {len(reader.fieldnames)}")
            sv = (row["s"] or "").strip()
            if sv not in ("0", "1"):
                raise DataError(f"row {i}: s must be 0 or 1, got {row['s']!r}")
            s = int(sv)
            yv = (row["y"] or "").strip()
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
            xs = []
            for c in x_columns:
                cell = (row[c] or "").strip()
                try:
                    xs.append(float(cell))
                except ValueError:
                    raise DataError(f"row {i}, column {c}: could not parse {cell!r}")
            s_vals.append(s)
            y_vals.append(y)
            x_rows.append(xs)
    if not s_vals:
        raise DataError(f"{path}: no data rows")
    return RawData(
        s=np.array(s_vals, dtype=np.int64),
        y=np.array(y_vals, dtype=np.float64),
        x=np.array(x_rows, dtype=np.float64),
        columns=tuple(x_columns),
        masked_y_count=masked,
    )


def load_table(csv_path, config: AnalysisConfig) -> ObservationTable:
    """Read and validate a CSV into an ObservationTable.

    Requires pre-fitted model coefficients in the config (the fit-split
    path lives in run_analysis).  Outcome values supplied on target rows
    are ignored with a warning carrying the count.
    """
    if config.model_coefficients is None:
        raise ConfigError("load_table needs model_coefficients; use run_analysis for fit-split")
    raw = _read_raw(csv_path, config.x_columns)
    if raw.masked_y_count:
        warnings.warn(
            f"{raw.masked_y_count} target rows carried outcome values; ignored",
            stacklevel=2,
        )
    model = _model_from_config(config)
    return build_table(
        raw.s, raw.x, raw.y, model, LossFunction(config.loss), config.design
    )


def _xstar_indices(config: AnalysisConfig) -> tuple:
    return tuple(config.x_columns.index(c) for c in config.xstar_columns)


def _model_from_config(config: AnalysisConfig) -> PredictionModel:
    return PredictionModel(
        coefficients=config.model_coefficients,
        link=config.model_link,
        xstar_columns=_xstar_indices(config),
    )


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
    cols = tuple(range(len(config.x_columns)))

    def mk(basis):
        if basis.kind == "linear":
            return DesignSpec(cols)
        return DesignSpec(cols, basis="spline", degree=basis.degree,
                          interior_knots=basis.interior_knots)

    loss = LossFunction(config.loss)
    a_design = mk(config.p_basis) if config.estimator == "aug-alt" else None
    if config.outcome == "binary":
        return NuisanceRecipe(
            outcome="binary", loss=loss,
            p_design=mk(config.p_basis), g_design=mk(config.g_basis),
            a_design=a_design,
        )
    return NuisanceRecipe(
        outcome="continuous", loss=loss,
        p_design=mk(config.p_basis), b_design=mk(config.g_basis),
        c_design=mk(config.g_basis), a_design=a_design,
    )


def _resolve_grid(config: AnalysisConfig, table: ObservationTable,
                  nuis: NuisanceSet) -> np.ndarray:
    if config.eta_grid is not None:
        return np.asarray(config.eta_grid, dtype=np.float64)
    return eta_grid_from_prevalence_range(table, nuis.g, config.anchor, p=nuis.p)


@dataclass(frozen=True)
class AnalysisOutput:
    curve: SensitivityCurve
    curve_csv: Path
    report_json: Path
    report: dict


def run_analysis(config: AnalysisConfig) -> AnalysisOutput:
    """Execute the full pipeline and write curve CSV plus JSON report.

    Steps: (optionally) split-and-fit the prediction model, build the
    table, fit the nuisances once, resolve the eta grid (explicit or
    prevalence-anchored), sweep the configured estimator with confidence
    intervals, emit reports.
    Partial curves are still written; per-point failures land in the
    status column.
    """
    raw = _read_raw(config.data_path, config.x_columns)
    extra = {"masked_target_outcomes": raw.masked_y_count}
    if config.fit_split is not None:
        model, keep = _fit_model_on_split(raw, config)
        extra["fit_split_rows_used"] = int((~keep).sum())
        raw_s, raw_x, raw_y = raw.s[keep], raw.x[keep], raw.y[keep]
    else:
        model = _model_from_config(config)
        raw_s, raw_x, raw_y = raw.s, raw.x, raw.y
    table = build_table(raw_s, raw_x, raw_y, model, LossFunction(config.loss), config.design)

    nuis = _recipe_from_config(config).fit(table)
    grid = _resolve_grid(config, table, nuis)
    curve = sensitivity_curve(
        table, nuis, grid, estimator=config.estimator, resample=config.resample
    )
    extra["model_coefficients_used"] = [float(c) for c in model.coefficients]

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    curve_csv = out_dir / "curve.csv"
    report_json = out_dir / "report.json"
    write_curve_csv(curve, curve_csv)
    report = build_report(config, table, curve, curve_csv.name, extra=extra)
    write_report(report, report_json)
    return AnalysisOutput(curve=curve, curve_csv=curve_csv, report_json=report_json, report=report)
