"""Which modules a `logklab` process loads for one subcommand.

Start-up is most of a short invocation's cost, and without a bytecode cache
most of that is compiling, so each subcommand imports only the modules it
runs: the thresholds route, the closed form, the sign kernel (normalcone)
and the oracle are imported by the handlers that use them, a pair file's
dimension model is built without the oracle, and no logklab module imports
dataclasses. df, info and oracle need the closed form alone. The file
readers (inputs) are loaded only for a pair file, a criteria file and what
argparse reads. A well-formed argv is read without argparse, and so without
gettext and locale, which it pulls in; --help and usage errors load it.
Each case runs a fresh `python -X importtime -m logklab.cli` process and
reads the modules it imported from the -X importtime report, less those a
bare interpreter imports on its own. None may import logklab.cli: the
process already runs it as __main__, and an import would run it again.
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

CLI = "logklab.cli"
ORACLE = "logklab.weightoracle"
CLOSEDFORM = "logklab.closedform"
NORMALCONE = "logklab.normalcone"
THRESHOLDS = "logklab.thresholds"
INPUTS = "logklab.inputs"
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


def cli_imports(bare, *argv, cwd=None, code=0):
    got, out, modules = imported("-m", "logklab.cli", *argv, cwd=cwd)
    assert got == code, out
    assert CLI not in modules
    return out, modules - bare


def test_catalog_list(bare):
    out, modules = cli_imports(bare, "catalog", "list")
    assert "P2-line" in out
    assert "logklab.pairmodel" in modules  # the report reads this process's imports
    assert not modules & {
        "dataclasses", CLOSEDFORM, NORMALCONE, INPUTS, THRESHOLDS, ORACLE, *PARSER}


@pytest.mark.parametrize("argv, kernel", [
    (["df", "catalog:P2-line", "--c", "1/2", "--beta", "1/2"], False),
    (["info", "catalog:P2-line"], False),
    (["critical-c", "catalog:P2-line", "--beta", "1/2", "--tol", "1/1024"], True),
    (["destabilize", "catalog:P2-line", "--beta", "15/16"], True),
    (["df-curve", "catalog:P2-line", "--beta", "1/2", "--steps", "3"], True),
], ids=["df", "info", "critical-c", "destabilize", "df-curve"])
def test_normal_cone_route(bare, argv, kernel):
    # df and info need the closed form alone; the sign-kernel searches and
    # the grid load normalcone too.
    _, modules = cli_imports(bare, *argv)
    assert CLOSEDFORM in modules
    assert (NORMALCONE in modules) is kernel
    assert not modules & {"dataclasses", INPUTS, THRESHOLDS, ORACLE, *PARSER}


def test_df_curve_json_needs_no_json_module(bare):
    out, modules = cli_imports(bare, "df-curve", "catalog:P2-line", "--beta", "1/2",
                               "--steps", "3", "--format", "json")
    assert out.startswith("[")
    assert NORMALCONE in modules
    assert not modules & {"json", "dataclasses", INPUTS, THRESHOLDS, ORACLE}


def test_criteria(bare, tmp_path):
    (tmp_path / "criteria.json").write_text(json.dumps(
        {"Sbeta": "-3", "alpha_beta": "0", "n": 2, "is_lc": True, "bullet2_nef": True}))
    out, modules = cli_imports(bare, "criteria", "--file", "criteria.json", cwd=tmp_path)
    assert "CriterionSatisfied" in out
    assert {THRESHOLDS, INPUTS} <= modules
    assert not modules & {CLOSEDFORM, NORMALCONE, ORACLE, *PARSER}


def test_oracle(bare):
    out, modules = cli_imports(bare, "oracle", "catalog:P2-line", "--c", "1/2", "--kmax", "4")
    assert json.loads(out)["match"] is True
    assert {ORACLE, CLOSEDFORM} <= modules
    assert not modules & {"dataclasses", NORMALCONE, INPUTS, *PARSER}


@pytest.mark.parametrize("m, loaded", [("1", True), ("2", False)], ids=["m1", "m2"])
def test_entropy_reads_the_threshold_only_at_m_1(bare, m, loaded):
    # A satisfied entropy verdict is compared with the instability threshold
    # only for D in |L|; at m = 2 the thresholds route alone runs.
    out, modules = cli_imports(bare, "entropy", "catalog:P2-line", "--m", m, "--beta", "1",
                               "--entropy-lower", "100", "--alpha-L", "0", "--alpha-LD", "0")
    assert "CriterionSatisfied" in out
    assert (CLOSEDFORM in modules) is loaded
    assert not modules & {"dataclasses", NORMALCONE, INPUTS, ORACLE}


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
    assert {THRESHOLDS, INPUTS} <= modules
    assert not modules & {"dataclasses", CLOSEDFORM, NORMALCONE, ORACLE, *PARSER}


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["df", "catalog:P2-line", "--c", "1/0", "--beta", "1/2"], 3),
], ids=["help", "usage-error"])
def test_help_and_usage_errors_load_argparse(bare, argv, code):
    # So that the absence of argparse above is not vacuous.
    _, modules = cli_imports(bare, *argv, code=code)
    assert {"argparse", INPUTS} <= modules
