"""Which modules a `logklab` process loads for one subcommand.

Start-up is most of a short invocation's cost, so each subcommand imports
only the modules it runs: the thresholds route, the normal-cone route and
the oracle are imported by the handlers that use them, a pair file's
dimension model is built without the oracle, and no logklab module imports
dataclasses. A well-formed argv is read without argparse, and so without
gettext and locale, which it pulls in; --help and usage errors load it.
Each case runs a fresh `python -X importtime -m logklab.cli` process and
reads the modules it imported from the -X importtime report, less those a
bare interpreter imports on its own.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+\d+ \|\s*(\S+)$", re.M)

ORACLE = "logklab.weightoracle"
NORMALCONE = "logklab.normalcone"
THRESHOLDS = "logklab.thresholds"
PARSER = {"argparse", "gettext", "locale"}


def imported(*args, cwd=None):
    """(exit code, stdout, modules imported) of a fresh `python -X importtime ARGS`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, set(IMPORT_LINE.findall(proc.stderr))


@pytest.fixture(scope="module")
def bare():
    return imported("-c", "pass")[2]


def cli_imports(bare, *argv, cwd=None):
    code, out, modules = imported("-m", "logklab.cli", *argv, cwd=cwd)
    assert code == 0, out
    return out, modules - bare


def test_catalog_list(bare):
    out, modules = cli_imports(bare, "catalog", "list")
    assert "P2-line" in out
    assert "logklab.pairmodel" in modules  # the report reads this process's imports
    assert not modules & {"dataclasses", NORMALCONE, THRESHOLDS, ORACLE, *PARSER}


@pytest.mark.parametrize("argv", [
    ["df", "catalog:P2-line", "--c", "1/2", "--beta", "1/2"],
    ["critical-c", "catalog:P2-line", "--beta", "1/2", "--tol", "1/1024"],
], ids=["df", "critical-c"])
def test_normal_cone_route(bare, argv):
    _, modules = cli_imports(bare, *argv)
    assert NORMALCONE in modules
    assert not modules & {"dataclasses", THRESHOLDS, ORACLE, *PARSER}


def test_df_curve_json_needs_no_json_module(bare):
    out, modules = cli_imports(bare, "df-curve", "catalog:P2-line", "--beta", "1/2",
                               "--steps", "3", "--format", "json")
    assert out.startswith("[")
    assert NORMALCONE in modules
    assert not modules & {"json", "dataclasses", THRESHOLDS, ORACLE}


def test_criteria(bare, tmp_path):
    (tmp_path / "criteria.json").write_text(json.dumps(
        {"Sbeta": "-3", "alpha_beta": "0", "n": 2, "is_lc": True, "bullet2_nef": True}))
    out, modules = cli_imports(bare, "criteria", "--file", "criteria.json", cwd=tmp_path)
    assert "CriterionSatisfied" in out
    assert THRESHOLDS in modules
    assert not modules & {NORMALCONE, ORACLE}


def test_oracle(bare):
    out, modules = cli_imports(bare, "oracle", "catalog:P2-line", "--c", "1/2", "--kmax", "4")
    assert json.loads(out)["match"] is True
    assert ORACLE in modules
    assert not modules & {"dataclasses", *PARSER}


@pytest.mark.parametrize("m, loaded", [("1", True), ("2", False)], ids=["m1", "m2"])
def test_entropy_reads_the_threshold_only_at_m_1(bare, m, loaded):
    # A satisfied entropy verdict is compared with the instability threshold
    # only for D in |L|; at m = 2 the thresholds route alone runs.
    out, modules = cli_imports(bare, "entropy", "catalog:P2-line", "--m", m, "--beta", "1",
                               "--entropy-lower", "100", "--alpha-L", "0", "--alpha-LD", "0")
    assert "CriterionSatisfied" in out
    assert (NORMALCONE in modules) is loaded
    assert not modules & {"dataclasses", ORACLE}


@pytest.mark.parametrize("argv", [
    ["eta", "pair.json", "--m", "4", "--beta", "5/16"],
    ["window", "pair.json", "--m", "4", "--case", "uniform"],
], ids=["eta", "window"])
def test_hilbert_block_needs_no_oracle(bare, tmp_path, argv):
    (tmp_path / "pair.json").write_text(json.dumps({
        "name": "P2", "dimension": 2, "L_top": "1", "cX_L": "3", "proportional_x": "3",
        "divisor": {"m": 1},
        "positivity": {"alpha_L": "1/3", "alpha_LD_restricted": "1/2"},
        "hilbert": {"kind": "projective_space"}}))
    _, modules = cli_imports(bare, *argv, cwd=tmp_path)
    assert THRESHOLDS in modules
    assert not modules & {"dataclasses", NORMALCONE, ORACLE, *PARSER}


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["df", "catalog:P2-line", "--c", "1/0", "--beta", "1/2"], 3),
], ids=["help", "usage-error"])
def test_help_and_usage_errors_load_argparse(bare, argv, code):
    # So that the absence of argparse above is not vacuous.
    got, _, modules = imported("-m", "logklab.cli", *argv)
    assert got == code
    assert "argparse" in modules - bare
