"""Command-line interface.

Subcommands:

* ``analyze``   -- run the full pipeline from a CSV plus a config file or
  flags; writes curve.csv and report.json.
* ``eta-range`` -- solve the prevalence-anchored eta range for a dataset.
* ``simulate``  -- draw a synthetic dataset from a DGP spec file.
* ``selftest``  -- quick internal consistency checks.

Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .config import AnalysisConfig
from .errors import ConfigError, DataError, TiltriskError

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _split_csv_list(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def _float_list(text, flag):
    try:
        return [float(v) for v in _split_csv_list(text)]
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated numbers, got {text!r}") from None


def _add_analyze_parser(sub):
    p = sub.add_parser("analyze", help="run a sensitivity analysis")
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--data", help="input CSV path")
    p.add_argument("--design", choices=["nested", "non-nested"])
    p.add_argument("--loss", choices=["brier", "squared-error", "absolute-deviation"])
    p.add_argument("--x-cols", help="comma-separated covariate columns")
    p.add_argument("--xstar-cols", help="comma-separated model columns (subset of --x-cols)")
    p.add_argument("--coefficients", help="comma-separated model coefficients, intercept first")
    p.add_argument("--fit-split", type=float, help="fit the model on this fraction of source rows")
    p.add_argument("--link", choices=["logit", "identity"])
    p.add_argument("--g-basis", help="linear or spline[:degree[:knots]]")
    p.add_argument("--p-basis", help="linear or spline[:degree[:knots]]")
    p.add_argument("--eta-list", help="comma-separated explicit eta grid")
    p.add_argument("--anchor-mu", type=float, help="target prevalence anchor (non-nested)")
    p.add_argument("--anchor-alpha", type=float, help="cohort prevalence anchor (nested)")
    p.add_argument("--multipliers", help="anchor range multipliers, e.g. 0.5,2")
    p.add_argument("--step", type=float, help="eta grid step for anchored ranges")
    p.add_argument("--estimator", choices=["cl", "aug", "aug-alt"])
    p.add_argument("--bootstrap", type=int, metavar="B", help="bootstrap replicates")
    p.add_argument("--jackknife", action="store_true", help="jackknife intervals")
    p.add_argument("--level", type=float, help="confidence level (default 0.95)")
    p.add_argument("--seed", type=int, help="seed; mandatory for any stochastic step")
    p.add_argument("--out", help="output directory")


def _analyze_config(args) -> AnalysisConfig:
    base = {}
    if args.config:
        try:
            with open(args.config) as fh:
                base = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
    if args.data:
        base["data_path"] = args.data
    if args.design:
        base["design"] = args.design
    if args.loss:
        base["loss"] = args.loss
    if args.x_cols:
        base["x_columns"] = _split_csv_list(args.x_cols)
    if args.xstar_cols:
        base["xstar_columns"] = _split_csv_list(args.xstar_cols)
    if args.coefficients:
        base["model_coefficients"] = _float_list(args.coefficients, "--coefficients")
    if args.fit_split is not None:
        base["fit_split"] = args.fit_split
    if args.link:
        base["model_link"] = args.link
    if args.g_basis:
        base["g_basis"] = args.g_basis
    if args.p_basis:
        base["p_basis"] = args.p_basis
    if args.eta_list:
        base["eta_grid"] = _float_list(args.eta_list, "--eta-list")
    if args.anchor_mu is not None or args.anchor_alpha is not None:
        anchor = base["anchor"] if isinstance(base.get("anchor"), dict) else {}
        if args.anchor_mu is not None:
            anchor["mu"] = args.anchor_mu
        if args.anchor_alpha is not None:
            anchor["alpha"] = args.anchor_alpha
        if args.multipliers:
            anchor["multipliers"] = _float_list(args.multipliers, "--multipliers")
        if args.step is not None:
            anchor["step"] = args.step
        base["anchor"] = anchor
    if args.estimator:
        base["estimator"] = args.estimator
    if args.bootstrap is not None and args.jackknife:
        raise ConfigError("choose one of --bootstrap or --jackknife")
    if args.bootstrap is not None or args.jackknife:
        resample = base["resample"] if isinstance(base.get("resample"), dict) else {}
        resample["method"] = "jackknife" if args.jackknife else "bootstrap"
        if args.bootstrap is not None:
            resample["replicates"] = args.bootstrap
        base["resample"] = resample
    if args.level is not None:
        if not isinstance(base.get("resample"), dict):
            raise ConfigError("--level needs resampling: --bootstrap, --jackknife or a "
                              "resample block in the config")
        base["resample"]["level"] = args.level
    if args.seed is not None:
        base["seed"] = args.seed
    if args.out:
        base["out_dir"] = args.out
    return AnalysisConfig.from_dict(base)


def _cmd_analyze(args) -> int:
    from .io import run_analysis

    config = _analyze_config(args)
    out = run_analysis(config)
    n_failed = out.report["diagnostics"]["n_failed_points"]
    print(f"wrote {out.curve_csv} ({len(out.curve)} grid points, {n_failed} failed)")
    print(f"wrote {out.report_json}")
    return 0


def _cmd_eta_range(args) -> int:
    from .data import build_table
    from .io import _model_from_config, _read_raw, _recipe_from_config, _resolve_grid
    from .tilt import LossFunction

    x_cols = _split_csv_list(args.x_cols)
    anchor = {"mu": args.anchor_mu, "alpha": args.anchor_alpha}
    if args.step is not None:
        anchor["step"] = args.step
    if args.multipliers:
        anchor["multipliers"] = _float_list(args.multipliers, "--multipliers")
    # the grid analyze would sweep; anchoring reads only the fitted g and p,
    # so the prediction model is a placeholder
    config = AnalysisConfig.from_dict({
        "data_path": args.data,
        "design": "non-nested" if args.anchor_mu is not None else "nested",
        "loss": "brier",
        "x_columns": x_cols,
        "model_coefficients": [0.0] * (len(x_cols) + 1),
        "anchor": anchor,
        "out_dir": ".",
    })
    raw = _read_raw(config.data_path, config.x_columns)
    if not np.all(np.isin(raw.y[raw.s == 1], (0.0, 1.0))):
        raise DataError("eta-range needs a binary outcome")
    table = build_table(raw.s, raw.x, raw.y, _model_from_config(config),
                        LossFunction(config.loss), config.design)
    grid = _resolve_grid(config, table, _recipe_from_config(config).fit(table))
    print(json.dumps({
        "eta_lo": float(grid[0]),
        "eta_hi": float(grid[-1]),
        "n_points": int(grid.size),
        "grid": [float(e) for e in grid],
    }, sort_keys=True))
    return 0


def _cmd_simulate(args) -> int:
    from .simgen import dgp_from_dict, generate

    try:
        with open(args.dgp) as fh:
            spec = dgp_from_dict(json.load(fh))
    except FileNotFoundError:
        raise ConfigError(f"DGP spec file not found: {args.dgp}")
    except (KeyError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad DGP spec: {exc}")
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

    _add_analyze_parser(sub)

    p = sub.add_parser("eta-range", help="prevalence-anchored eta range")
    p.add_argument("--data", required=True)
    p.add_argument("--x-cols", required=True)
    p.add_argument("--anchor-mu", type=float)
    p.add_argument("--anchor-alpha", type=float)
    p.add_argument("--multipliers")
    p.add_argument("--step", type=float, help="eta grid step (default 0.05)")

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
