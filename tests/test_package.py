"""The names `logklab` exports, and the README's library example."""

import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import logklab

ROOT = Path(__file__).resolve().parent.parent

# Every name the package exports, under the module that defines it.
EXPORTS = {
    "exactnum": ["decimal_string", "format_rational", "parse_rational"],
    "pairmodel": ["CATALOG", "PolarisedPair", "avg_scalar_s1", "avg_scalar_sD"],
    "scalar": ["ScalarReport", "avg_scalar_sbeta"],
    "info": ["validate_pair"],
    "hilbert": ["CATALOG_MODELS", "HilbertModel"],
    "closedform": ["DFReport", "instability_threshold"],
    "expansion": ["NormalConeCoefficients", "coefficients"],
    "df": ["df_checked", "df_from_coefficients"],
    "normalcone": ["CriticalBracket", "critical_c", "find_destabilizer"],
    "verdict": ["Verdict", "VerdictStatus"],
    "thresholds": ["AngleWindow", "PositivityData",
                   "alpha_beta_lower_bound", "angle_window", "beta_u",
                   "entropy_threshold_check", "eta_feasibility", "min_multiplicity_eta0"],
    "criteria": ["SingularCriteriaInput", "singular_criteria"],
    "weightoracle": ["WeightSample", "dims_and_weights", "oracle_report"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_export_resolves_to_its_module(module, name):
    namespace = {}
    exec(f"from logklab import {name}", namespace)
    assert namespace[name] is getattr(import_module(f"logklab.{module}"), name)
    assert name in dir(logklab)


def test_version():
    from logklab import __version__

    assert __version__ == "0.1.0"
    assert "__version__" in dir(logklab)


def test_unknown_name():
    with pytest.raises(AttributeError, match="no_such_name"):
        logklab.no_such_name
    with pytest.raises(ImportError):
        exec("from logklab import no_such_name", {})


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "-1/48\n2\n[1/4, 3/8)\n(0, 1/2]\n"
