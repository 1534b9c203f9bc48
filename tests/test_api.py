"""The package's public names: a fixed snapshot, every one importable, and
every name the README and the demos import from the package among them;
and the fitting parameters the library no longer takes."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tiltrisk
import tiltrisk.resampling
from tiltrisk.etaselect import solve_monotone_root

from conftest import random_binary_table

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "AnalysisConfig", "ConfigError", "ConvergenceError", "DataError", "DesignSpec",
    "DgpSpec", "DomainError", "EstimateResult", "GlmFit", "InfluenceValues",
    "LossFunction", "NuisanceRecipe", "NuisanceSet", "NumericError", "ObservationTable",
    "OracleValue", "PositivityError", "PredictionModel", "PrevalenceAnchor",
    "RankDeficientError", "ResampleConfig", "SensitivityCurve",
    "SimulatedData", "TiltOverflowError", "TiltSpec", "TiltriskError", "__version__",
    "binary_b", "binary_c", "brute_force_phi", "brute_force_psi",
    "build_table", "estimate", "eta_from_prevalence_nested", "eta_from_prevalence_nonnested",
    "eta_grid_from_prevalence_range", "eval_loss", "fit_logistic", "generate",
    "influence_values", "recipe_for", "selection_a", "sensitivity_curve",
    "tilt_weight", "tilted_bernoulli", "true_phi_oracle", "true_psi_oracle",
]


def package_imports(source: str) -> list:
    """The names a Python source imports with ``from tiltrisk import``."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "tiltrisk"
            for alias in node.names]


def readme_blocks() -> list:
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def test_public_names_snapshot():
    assert sorted(tiltrisk.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in tiltrisk.__all__:
        assert hasattr(tiltrisk, name), name


ONE = tiltrisk.DesignSpec(())
RECIPE = dict(outcome="continuous", loss=tiltrisk.LossFunction("squared-error"),
              p_design=ONE, g_design=ONE)
REMOVED = {
    "b_design": lambda: tiltrisk.NuisanceRecipe(**RECIPE, b_design=ONE),
    "c_design": lambda: tiltrisk.NuisanceRecipe(**RECIPE, c_design=ONE),
    "p_clip": lambda: tiltrisk.NuisanceRecipe(**RECIPE, p_clip=(0.01, 0.99)),
    "intercept": lambda: tiltrisk.DesignSpec((0,), intercept=True),
    "case_weights": lambda: tiltrisk.fit_logistic(ONE, np.zeros((2, 1)), np.array([0.0, 1.0]),
                                                  case_weights=np.ones(2)),
    "n_probe": lambda: tiltrisk.TiltSpec(eta=0.0).validate_q(0.0, 1.0, n_probe=101),
    "lo": lambda: solve_monotone_root(lambda eta: eta, lo=-1.0, hi=1.0),
}


@pytest.mark.parametrize("name", REMOVED)
def test_removed_parameters_are_refused(name):
    # removed without a shim: passing one is a TypeError naming it
    with pytest.raises(TypeError, match=name):
        REMOVED[name]()


# the second resampling engine, a ``take`` table per replicate, was removed
# with its names: the package resamples as row counts alone
REMOVED_NAMES = [
    (tiltrisk, "bootstrap_ci"), (tiltrisk, "jackknife_ci"), (tiltrisk, "table_matrix"),
    (tiltrisk, "ResampleResult"), (tiltrisk.resampling, "bootstrap_ci"),
    (tiltrisk.resampling, "jackknife_ci"), (tiltrisk.resampling, "table_matrix"),
    (tiltrisk.resampling, "ResampleResult"), (tiltrisk.ObservationTable, "drop_row"),
]


@pytest.mark.parametrize("owner, name", REMOVED_NAMES,
                         ids=[f"{owner.__name__}.{name}" for owner, name in REMOVED_NAMES])
def test_removed_names_are_gone(owner, name):
    assert not hasattr(owner, name)


def test_readme_and_demo_imports_are_public():
    sources = readme_blocks() + [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    names = {name for source in sources for name in package_imports(source)}
    assert names and names <= set(tiltrisk.__all__)


def test_readme_quick_start_imports():
    (block,) = [b for b in readme_blocks() if "from tiltrisk import" in b]
    tree = ast.parse(block)
    imports = ast.Module([n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))],
                         type_ignores=[])
    exec(compile(imports, "README.md", "exec"), {})


def test_readme_opaque_estimator_recipe_runs():
    # the documented take() loop gives the count engine's standard error for
    # the same draws, here of a column mean
    (block,) = [b for b in readme_blocks() if "resample_indices" in b]
    rng = np.random.default_rng(3)
    table = random_binary_table(rng, n=60)
    fn = lambda t: float(t.x[:, 0].mean())  # noqa: E731
    space = {"table": table, "fn": fn}
    exec(compile(block, "README.md", "exec"), space)
    cfg = tiltrisk.ResampleConfig(replicates=200, seed=7, stratified=True)
    counts = tiltrisk.resampling.replicate_counts(table, cfg, range(200))
    means = (counts @ table.x[:, :1]) / counts.sum(axis=1, keepdims=True)
    [(se, _)] = tiltrisk.resampling.standard_errors(
        means, np.full(means.shape, None, dtype=object), "bootstrap")
    assert space["note"] is None
    assert abs(space["se"] - se) <= 1e-12 * se
    lo, hi = space["ci"]
    assert lo < fn(table) < hi


def test_simgen_is_imported_on_first_use():
    # an analysis never uses the generator: the package, the CLI and io
    # import without it, and its public names load it when first read
    code = "\n".join([
        "import sys",
        "import tiltrisk, tiltrisk.cli, tiltrisk.io",
        "assert 'tiltrisk.simgen' not in sys.modules",
        "assert tiltrisk.generate is tiltrisk.simgen.generate",
        "from tiltrisk import DgpSpec",
        "assert DgpSpec is tiltrisk.simgen.DgpSpec",
        "assert not hasattr(tiltrisk, 'no_such_name')",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
