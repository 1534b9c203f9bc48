"""Command-line interface.

Subcommands:

* ``analyze``   -- run the full pipeline from a CSV plus a config file or
  flags; writes curve.csv and report.json.
* ``eta-range`` -- solve the prevalence-anchored eta range for a dataset.
* ``simulate``  -- draw a synthetic dataset from a DGP spec file.
* ``selftest``  -- quick internal consistency checks.

``analyze`` and ``eta-range`` merge the flags given, each at the config
key ``FLAGS`` names, into one config mapping that ``AnalysisConfig``
checks in full, and read their data through ``io._analysis_inputs``.
A DGP spec file gets the same mapping checks (``simgen.dgp_from_dict``).

Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .config import AnalysisConfig
from .data import DESIGNS
from .errors import ConfigError, DataError, TiltriskError
from .estimators import ESTIMATOR_NAMES
from .tilt import LINKS, LOSSES

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _names(text, flag):
    return [part.strip() for part in text.split(",") if part.strip()]


def _numbers(text, flag):
    try:
        return [float(v) for v in _names(text, flag)]
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated numbers, got {text!r}") from None


class Flag:
    """A flag: the config key it sets (``block.key`` inside a block), how
    its text is read after parsing (a fault is a ConfigError), whether it
    opens its block or needs one the config or another flag opened, the
    (key, value) pairs it sets besides, the config keys it replaces (the
    other grid choice, the other anchor kind), and its argparse keywords."""

    def __init__(self, key: str, read=None, opens=False, also=(), drops=(), **options):
        self.key, self.read, self.opens, self.also = key, read, opens, also
        self.drops, self.options = drops, options


FLAGS = {
    "--data": Flag("data_path", help="input CSV path"),
    "--design": Flag("design", choices=DESIGNS),
    "--loss": Flag("loss", choices=LOSSES),
    "--x-cols": Flag("x_columns", _names, help="comma-separated covariate columns"),
    "--xstar-cols": Flag("xstar_columns", _names,
                         help="comma-separated model columns (subset of --x-cols)"),
    "--coefficients": Flag("model_coefficients", _numbers,
                           help="comma-separated model coefficients, intercept first"),
    "--fit-split": Flag("fit_split", type=float,
                        help="fit the model on this fraction of source rows"),
    "--link": Flag("model_link", choices=LINKS),
    "--g-basis": Flag("g_basis", help="linear or spline[:degree[:knots]]"),
    "--p-basis": Flag("p_basis", help="linear or spline[:degree[:knots]]"),
    "--eta-list": Flag("eta_grid", _numbers, drops=("anchor",),
                       help="comma-separated explicit eta grid"),
    "--anchor-mu": Flag("anchor.mu", opens=True, drops=("eta_grid", "anchor.alpha"), type=float,
                        help="target prevalence anchor (non-nested)"),
    "--anchor-alpha": Flag("anchor.alpha", opens=True, drops=("eta_grid", "anchor.mu"),
                           type=float,
                           help="cohort prevalence anchor (nested)"),
    "--multipliers": Flag("anchor.multipliers", _numbers,
                          help="anchor range multipliers, e.g. 0.5,2"),
    "--step": Flag("anchor.step", type=float,
                   help="eta grid step for anchored ranges (default 0.05)"),
    "--estimator": Flag("estimator", choices=ESTIMATOR_NAMES),
    "--bootstrap": Flag("resample.replicates", opens=True, also=(("resample.method", "bootstrap"),),
                        type=int, metavar="B", help="bootstrap replicates"),
    "--jackknife": Flag("resample.method", opens=True, action="store_const", const="jackknife",
                        help="jackknife intervals"),
    "--level": Flag("resample.level", type=float, help="confidence level (default 0.95)"),
    "--seed": Flag("seed", type=int, help="seed; mandatory for any stochastic step"),
    "--out": Flag("out_dir", help="output directory"),
}
ETA_RANGE_FLAGS = ("--data", "--x-cols", "--anchor-mu", "--anchor-alpha", "--multipliers", "--step")

# what opens a block, for the error of a flag that needs one
_BLOCKS = {
    "anchor": "an anchor: --anchor-mu, --anchor-alpha or an anchor block in the config",
    "resample": "resampling: --bootstrap, --jackknife or a resample block in the config",
}


def _merge_flags(config: dict, args, names) -> dict:
    """``config`` with every flag of ``names`` given in ``args`` set at its key.

    A grid flag replaces the config file's grid choice, and an anchor flag
    its other anchor kind; two grid flags still conflict."""
    given = {name: getattr(args, name[2:].replace("-", "_")) for name in names}
    given = {name: value for name, value in given.items() if value is not None}
    for name in given:
        for key in FLAGS[name].drops:
            block, _, field = key.rpartition(".")
            target = config.get(block) if block else config
            if isinstance(target, dict):
                target.pop(field, None)
    set_by = {}
    for name, value in given.items():
        flag = FLAGS[name]
        if flag.read is not None:
            value = flag.read(value, name)
        for key, v in ((flag.key, value), *flag.also):
            if key in set_by:
                raise ConfigError(f"choose one of {set_by[key]} or {name}")
            set_by[key] = name
            block, _, field = key.rpartition(".")
            target = config
            if block:
                if not isinstance(config.get(block), dict):
                    if not flag.opens:
                        raise ConfigError(f"{name} needs {_BLOCKS[block]}")
                    config[block] = {}
                target = config[block]
            target[field] = v
    return config


def _load_json(path, what: str) -> dict:
    try:
        with open(path) as fh:
            value = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file is not valid JSON: {exc}")
    if not isinstance(value, dict):
        raise ConfigError(f"{what} file must hold a JSON object, got {type(value).__name__}")
    return value


def _cmd_analyze(args) -> int:
    from .io import run_analysis

    base = _load_json(args.config, "config") if args.config else {}
    out = run_analysis(AnalysisConfig.from_dict(_merge_flags(base, args, FLAGS)))
    n_failed = out.report["diagnostics"]["n_failed_points"]
    print(f"wrote {out.curve_csv} ({len(out.curve)} grid points, {n_failed} failed)")
    print(f"wrote {out.report_json}")
    return 0


def _cmd_eta_range(args) -> int:
    from .io import _analysis_inputs

    # the grid analyze would sweep; anchoring reads only the fitted g and p,
    # so the loss, the prediction model and the output directory are placeholders
    config = _merge_flags({"loss": "brier", "anchor": {}, "out_dir": "."}, args, ETA_RANGE_FLAGS)
    config["design"] = "non-nested" if "mu" in config["anchor"] else "nested"
    config["model_coefficients"] = [0.0] * (len(config["x_columns"]) + 1)
    _, _, grid, _ = _analysis_inputs(AnalysisConfig.from_dict(config))
    grid = [float(e) for e in grid]
    print(json.dumps({"eta_lo": grid[0], "eta_hi": grid[-1], "n_points": len(grid),
                      "grid": grid}, sort_keys=True))
    return 0


def _cmd_simulate(args) -> int:
    from .simgen import dgp_from_dict, generate

    spec = dgp_from_dict(_load_json(args.dgp, "DGP spec"))
    sim = generate(spec, args.seed)
    t = sim.table
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "y"] + [f"x{j}" for j in range(t.x.shape[1])])
        for i in range(t.n):
            yv = "" if t.s[i] == 0 else repr(float(t.y[i]))
            writer.writerow([int(t.s[i]), yv] + [repr(float(v)) for v in t.x[i]])
    print(f"wrote {args.out} (n={t.n}, n1={t.n1}, n0={t.n0})")
    if args.hidden_out:
        with open(args.hidden_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y_hidden"])
            for v in sim.target_y:
                writer.writerow([repr(float(v))])
        print(f"wrote {args.hidden_out} (hidden target outcomes, oracle use only)")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    ok = run_selftest(seed=args.seed)
    return 0 if ok else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltrisk",
        description="Sensitivity analysis for transported prediction-model risk",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run a sensitivity analysis")
    p.add_argument("--config", help="JSON config file; flags override its keys")
    for name, flag in FLAGS.items():
        p.add_argument(name, **flag.options)

    p = sub.add_parser("eta-range", help="prevalence-anchored eta range")
    for name in ETA_RANGE_FLAGS:
        p.add_argument(name, required=name in ("--data", "--x-cols"), **FLAGS[name].options)

    p = sub.add_parser("simulate", help="draw a synthetic dataset")
    p.add_argument("--dgp", required=True, help="JSON DGP spec")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--hidden-out", help="optional CSV of hidden target outcomes")

    p = sub.add_parser("selftest", help="quick internal consistency checks")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "eta-range": _cmd_eta_range,
        "simulate": _cmd_simulate,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TiltriskError as exc:  # every other package error is numeric
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
