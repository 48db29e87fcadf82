"""Which modules a `logklab` process loads for one subcommand, and how many
AST nodes of logklab it compiles.

Start-up is most of a short invocation's cost, and without a bytecode cache
most of that is compiling, so each subcommand imports only the modules it
runs. Each handler lives in a module that only its own subcommands load
(info, scalar for scalar and catalog, df, normalcone, curve, weightoracle,
thresholds and criteria), and cli, which defines none, imports that one
module. The modules several subcommands share hold no handler: the tables
and fields are tables', which df-curve and oracle never load, and the
verdict form verdict's, so criteria loads no thresholds. The dimension
models (hilbert) load only for oracle, catalog show and a pair file's
hilbert block, which builds its model without the oracle; the coefficient
path (expansion) only for df and oracle, and df's second DF path (df) only
for df. No logklab module imports dataclasses, and oracle writes its JSON
without the json module, as df-curve does. df-curve loads no search. The
file readers (inputs) are loaded only for a pair file, a criteria file and
what argparse reads. A well-formed argv is read without argparse, and so
without gettext and locale, which it pulls in; --help and usage errors load
it. Each case runs a fresh `python -X importtime -m logklab.cli` process
and reads the modules it imported from the -X importtime report (through
scripts/code_lines.py's imported, the reader its route counts use too),
less those a bare interpreter imports on its own. None may import
logklab.cli: the process already runs it as __main__, and an import would
run it again.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from code_lines import ROUTES, imported, route_imports, route_nodes  # noqa: E402  (scripts/ is not a package)

CLI = "logklab.cli"
ORACLE = "logklab.weightoracle"
CLOSEDFORM = "logklab.closedform"
KERNEL = "logklab.kernel"
NORMALCONE = "logklab.normalcone"
CURVE = "logklab.curve"
THRESHOLDS = "logklab.thresholds"
INPUTS = "logklab.inputs"
HILBERT = "logklab.hilbert"
EXPANSION = "logklab.expansion"
CRITERIA = "logklab.criteria"
INFO = "logklab.info"
SCALAR = "logklab.scalar"
DF = "logklab.df"
TABLES = "logklab.tables"
VERDICT = "logklab.verdict"
PARSER = {"argparse", "gettext", "locale"}


@pytest.fixture(scope="module")
def bare():
    return imported("-c", "pass")[1]


def cli_imports(bare, *argv, cwd=None, code=0):
    proc, modules = imported("-m", "logklab.cli", *argv, cwd=cwd)
    assert proc.returncode == code, proc.stdout
    assert CLI not in modules
    return proc.stdout, modules - bare


def test_catalog_list(bare):
    out, modules = cli_imports(bare, "catalog", "list")
    assert "P2-line" in out
    assert "logklab.pairmodel" in modules  # the report reads this process's imports
    assert not modules & {"dataclasses", CLOSEDFORM, KERNEL, NORMALCONE, CURVE, INPUTS,
                          THRESHOLDS, ORACLE, HILBERT, EXPANSION, CRITERIA, INFO, DF,
                          VERDICT, TABLES, *PARSER}


def test_catalog_show_reads_the_models(bare):
    out, modules = cli_imports(bare, "catalog", "show", "P2-line")
    assert "dimension model: projective_space" in out
    assert HILBERT in modules
    assert not modules & {CLOSEDFORM, EXPANSION, THRESHOLDS, CRITERIA, ORACLE, INPUTS, INFO,
                          DF, VERDICT}


@pytest.fixture(scope="module")
def route_modules():
    return {route: route_imports(argv) for route, argv in ROUTES.items()}


def test_a_handler_module_loads_only_on_its_own_subcommands(route_modules):
    # A module that defines a handler is one only its subcommands load, so
    # no route compiles another subcommand's handler; cli defines none.
    from logklab import cli

    subcommands = {}  # handler module -> the subcommands whose handlers it defines
    for name, _, (module, _), *_ in cli._COMMANDS:
        subcommands.setdefault(f"logklab.{module}", set()).add(name)
    for path in Path(cli.__file__).parent.glob("*.py"):  # _COMMANDS names every handler
        defines = "\ndef _cmd_" in path.read_text(encoding="utf-8")
        assert defines == (f"logklab.{path.stem}" in subcommands), path.name
    for route, modules in route_modules.items():
        for module in modules & subcommands.keys():
            assert ROUTES[route][0] in subcommands[module], (route, module)


@pytest.mark.parametrize("argv, route", [
    (["df", "catalog:P2-line", "--c", "1/2", "--beta", "1/2"], {EXPANSION, DF}),
    (["info", "catalog:P2-line"], {INFO}),
    (["critical-c", "catalog:P2-line", "--beta", "1/2", "--tol", "1/1024"], {KERNEL, NORMALCONE}),
    (["destabilize", "catalog:P2-line", "--beta", "15/16"], {KERNEL, NORMALCONE}),
    (["df-curve", "catalog:P2-line", "--beta", "1/2", "--steps", "3"], {KERNEL, CURVE}),
], ids=["df", "info", "critical-c", "destabilize", "df-curve"])
def test_normal_cone_route(bare, argv, route):
    # info needs the closed form alone, and df the coefficient path too. The
    # searches load the sign kernel and normalcone, and the grid the kernel
    # and curve, so df-curve compiles no root search and the searches no
    # grid or row template.
    _, modules = cli_imports(bare, *argv)
    assert CLOSEDFORM in modules
    assert modules & {KERNEL, NORMALCONE, CURVE, EXPANSION, DF, INFO} == route
    assert not modules & {"dataclasses", INPUTS, THRESHOLDS, ORACLE, HILBERT, CRITERIA,
                          *PARSER}


def test_df_curve_json_needs_no_json_module(bare):
    out, modules = cli_imports(bare, "df-curve", "catalog:P2-line", "--beta", "1/2",
                               "--steps", "3", "--format", "json")
    assert out.startswith("[")
    assert {KERNEL, CURVE} <= modules
    assert not modules & {"json", "dataclasses", NORMALCONE, INPUTS, THRESHOLDS, ORACLE,
                          HILBERT, EXPANSION, TABLES}


def test_criteria(bare, tmp_path):
    (tmp_path / "criteria.json").write_text(json.dumps(
        {"Sbeta": "-3", "alpha_beta": "0", "n": 2, "is_lc": True, "bullet2_nef": True}))
    out, modules = cli_imports(bare, "criteria", "--file", "criteria.json", cwd=tmp_path)
    assert "CriterionSatisfied" in out
    assert {VERDICT, CRITERIA, INPUTS} <= modules
    assert not modules & {THRESHOLDS, CLOSEDFORM, NORMALCONE, ORACLE, HILBERT, EXPANSION,
                          *PARSER}


def test_oracle(bare):
    # The report is written without the json module, and the tables,
    # the df path and the other handlers are not compiled.
    out, modules = cli_imports(bare, "oracle", "catalog:P2-line", "--c", "1/2", "--kmax", "4")
    assert json.loads(out)["match"] is True
    assert {ORACLE, CLOSEDFORM, EXPANSION, HILBERT} <= modules
    assert not modules & {"json", "dataclasses", KERNEL, NORMALCONE, CURVE, INPUTS, THRESHOLDS,
                          CRITERIA, TABLES, DF, INFO, SCALAR, VERDICT, *PARSER}


@pytest.mark.parametrize("m, loaded", [("1", True), ("2", False)], ids=["m1", "m2"])
def test_entropy_reads_the_threshold_only_at_m_1(bare, m, loaded):
    # A satisfied entropy verdict is compared with the instability threshold
    # only for D in |L|; at m = 2 the thresholds route alone runs.
    out, modules = cli_imports(bare, "entropy", "catalog:P2-line", "--m", m, "--beta", "1",
                               "--entropy-lower", "100", "--alpha-L", "0", "--alpha-LD", "0")
    assert "CriterionSatisfied" in out
    assert (CLOSEDFORM in modules) is loaded
    assert not modules & {"dataclasses", NORMALCONE, INPUTS, ORACLE, HILBERT, EXPANSION,
                          CRITERIA, DF, INFO}


@pytest.mark.parametrize("block", [True, False], ids=["hilbert-block", "no-block"])
@pytest.mark.parametrize("argv", [
    ["eta", "pair.json", "--m", "4", "--beta", "5/16"],
    ["window", "pair.json", "--m", "4", "--case", "uniform"],
], ids=["eta", "window"])
def test_hilbert_block_needs_no_oracle(bare, tmp_path, argv, block):
    # A hilbert block is built and checked, by hilbert, on every subcommand;
    # a pair file without one loads no model.
    doc = {"name": "P2", "dimension": 2, "L_top": "1", "cX_L": "3", "proportional_x": "3",
           "divisor": {"m": 1},
           "positivity": {"alpha_L": "1/3", "alpha_LD_restricted": "1/2"}}
    if block:
        doc["hilbert"] = {"kind": "projective_space"}
    (tmp_path / "pair.json").write_text(json.dumps(doc))
    _, modules = cli_imports(bare, *argv, cwd=tmp_path)
    assert {THRESHOLDS, INPUTS} <= modules
    assert (HILBERT in modules) is block
    assert not modules & {"dataclasses", CLOSEDFORM, NORMALCONE, ORACLE, EXPANSION, CRITERIA,
                          *PARSER}


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["df", "catalog:P2-line", "--c", "1/0", "--beta", "1/2"], 3),
], ids=["help", "usage-error"])
def test_help_and_usage_errors_load_argparse(bare, argv, code):
    # So that the absence of argparse above is not vacuous.
    _, modules = cli_imports(bare, *argv, code=code)
    assert {"argparse", INPUTS} <= modules


# The AST nodes of logklab each route of scripts/code_lines.py compiles, at
# most: the totals it prints, which are the same on Python 3.10 to 3.13.
ROUTE_NODES = {
    "catalog list": 3419, "catalog show": 5009, "info": 4084, "scalar": 3671,
    "thresholds": 6223, "window": 6223, "eta": 6223, "entropy": 6790, "df": 4691,
    "df-curve": 5268, "destabilize": 5793, "critical-c": 5793, "oracle": 7511,
    "oracle file": 8867, "criteria": 5722,
}


def test_every_route_is_pinned():
    assert set(ROUTES) == set(ROUTE_NODES)


@pytest.mark.parametrize("route", list(ROUTE_NODES))
def test_route_compiles_at_most_its_nodes(route_modules, route):
    assert route_nodes(route_modules[route]) <= ROUTE_NODES[route]
