import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logklab import pairmodel
from logklab.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_IOERR,
    EXIT_OK,
    resolve_pair,
    run,
)
from logklab.closedform import family, instability_threshold
from logklab.errors import InputError, InternalCheckError
from logklab.exactnum import decimal_string, format_rational, parse_rational
from logklab.inputs import load_pair_file
from logklab.normalcone import CURVE_STEPS_LIMIT, curve_rows
from logklab.pairmodel import _POSITIVITY, CATALOG, PolarisedPair
from logklab.thresholds import PositivityData, eta_feasibility

from conftest import _kernel_at_half_beta, _kernel_claiming_root, corrupt_signs


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------- pair files -----------------------------


PAIR_DOC = {
    "name": "quadric-surface",
    "dimension": 2,
    "L_top": "2",
    "cX_L": "4",
    "proportional_x": "2",
    "divisor": {"m": 1},
    "positivity": {"alpha_L": "1/3", "alpha_LD_restricted": "1/2"},
    "hilbert": {"kind": "product_p1p1"},
}


def write_pair(tmp_path, doc, name="pair.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_pair_file_round_trip(tmp_path):
    pf = load_pair_file(write_pair(tmp_path, PAIR_DOC))
    assert pf.pair.dimension == 2
    assert pf.pair.L_top == 2
    assert pf.pair.proportional_x == 2
    assert pf.m == 1
    assert pf.positivity.alpha_L == Fraction(1, 3)
    assert pf.model.kind == "product_p1p1"


def test_pair_name_must_be_a_json_string(capsys, tmp_path):
    code, out, err = invoke(capsys, ["info", write_pair(tmp_path, dict(PAIR_DOC, name={"a": 1}))])
    assert code == EXIT_INPUT
    assert out == ""
    assert "'name' must be a JSON string" in err


def test_load_pair_file_rejects_unknown_keys(tmp_path):
    doc = dict(PAIR_DOC)
    doc["surprise"] = 1
    with pytest.raises(InputError, match="surprise"):
        load_pair_file(write_pair(tmp_path, doc))


def test_load_pair_file_rejects_unknown_nested_keys(tmp_path):
    doc = json.loads(json.dumps(PAIR_DOC))
    doc["positivity"]["bogus"] = "1"
    with pytest.raises(InputError, match="bogus"):
        load_pair_file(write_pair(tmp_path, doc))


def test_load_pair_file_requires_divisor(tmp_path):
    doc = {k: v for k, v in PAIR_DOC.items() if k != "divisor"}
    with pytest.raises(InputError, match="divisor"):
        load_pair_file(write_pair(tmp_path, doc))


def test_load_pair_file_explicit_hilbert(tmp_path):
    doc = json.loads(json.dumps(PAIR_DOC))
    doc["hilbert"] = {"kind": "explicit", "coefficients": ["1", "2", "1"], "floor": 0}
    pf = load_pair_file(write_pair(tmp_path, doc))
    assert pf.model.h_total(3) == 16  # (k+1)^2


def test_resolve_catalog_pair():
    pf = resolve_pair("catalog:P2-line")
    assert pf.pair.name == "P2-line"
    assert pf.model is not None
    with pytest.raises(InputError):
        resolve_pair("catalog:does-not-exist")


@pytest.mark.parametrize("name", [name for name, entry in CATALOG.items()
                                  if entry.model is not None])
def test_catalog_models_pass_the_pair_file_check(tmp_path, name):
    # A pair file's hilbert block is checked against its pair by Riemann-Roch;
    # each catalog model, written as a block of its kind, must pass that check.
    entry = resolve_pair(f"catalog:{name}")
    assert entry is CATALOG[name]
    pair = entry.pair
    doc = {"name": pair.name, "dimension": pair.dimension, "L_top": format_rational(pair.L_top),
           "cX_L": format_rational(pair.cX_L),
           "proportional_x": format_rational(pair.proportional_x),
           "divisor": {"m": entry.m}, "hilbert": {"kind": entry.model.kind}}
    assert load_pair_file(write_pair(tmp_path, doc)) == entry


def test_resolve_missing_file():
    with pytest.raises(InputError):
        resolve_pair("/no/such/file.json")


@pytest.mark.parametrize("argv, doc, what", [
    (["info"], PAIR_DOC, "pair file"),
    (["criteria", "--file"],
     {"Sbeta": "-3", "alpha_beta": "0", "n": 2, "is_lc": True, "bullet2_nef": True},
     "criteria file"),
], ids=["pair", "criteria"])
def test_an_input_file_past_the_limit_exits_3(capsys, tmp_path, monkeypatch, argv, doc, what):
    # A file of exactly INPUT_FILE_LIMIT bytes is read; one byte more is refused
    # before any check runs.
    from logklab import inputs

    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    size = path.stat().st_size
    monkeypatch.setattr(inputs, "INPUT_FILE_LIMIT", size)
    assert invoke(capsys, [*argv, str(path)])[0] == EXIT_OK
    monkeypatch.setattr(inputs, "INPUT_FILE_LIMIT", size - 1)
    assert invoke(capsys, [*argv, str(path)]) == (
        EXIT_INPUT, "", f"input error: {what} {str(path)!r} is larger than {size - 1} bytes\n")


# ----------------------------- subcommands and exit codes -----------------------------


def test_df_command_worked_example(capsys):
    code, out, _ = invoke(capsys, ["df", "catalog:P2-line", "--c", "1/2", "--beta", "1/2"])
    assert code == EXIT_OK
    assert "-1/48" in out
    assert "both DF paths agree" in out


def test_destabilize_at_threshold(capsys):
    code, out, _ = invoke(capsys, ["destabilize", "catalog:P2-line", "--beta", "1"])
    assert code == EXIT_INCONCLUSIVE
    assert "not below the instability threshold" in out


def test_destabilize_below_threshold(capsys):
    code, out, _ = invoke(capsys, ["destabilize", "catalog:P1xP1-diag", "--beta", "1/4"])
    assert code == EXIT_OK
    assert "witness c" in out


def test_destabilize_takes_no_tol(capsys):
    # Below the threshold the destabilising set is an interval, so the search
    # always has a witness; only the sign depth bounds it, and a floor is a
    # usage error.
    code, out, err = invoke(capsys, ["destabilize", "catalog:P2-line", "--beta", "1/2",
                                     "--tol", "5"])
    assert (code, out) == (EXIT_INPUT, "")
    assert err.endswith("error: unrecognized arguments: --tol 5\n")


def test_each_error_class_maps_to_the_exit_stream_and_prefix_its_docstring_gives(
        monkeypatch, capsys):
    # One class per outcome: a class that no caller tells apart from its base
    # is one the exit code already names.
    from logklab import cli, errors

    classes = {name: value for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)}
    assert set(classes) == {"LogKLabError", "InputError", "InconsistentDataError",
                            "PreconditionFailedError", "InternalCheckError"}
    documented = {name: (int(code), stream, prefix) for name, code, stream, prefix in re.findall(
        r'^- (\w+): exit (\d), (stdout|stderr), "([^"]*)"', errors.__doc__, re.MULTILINE)}
    assert set(documented) == set(classes)
    for name, error in classes.items():
        def raising(ns, error=error):
            raise error("the message")

        monkeypatch.setattr(cli, "_COMMANDS", tuple(
            (*row[:2], raising, *row[3:]) if row[0] == "catalog" else row
            for row in cli._COMMANDS))
        code, stream, prefix = documented[name]
        text = f"{prefix}the message\n"
        expected = (code, text, "") if stream == "stdout" else (code, "", text)
        assert invoke(capsys, ["catalog", "list"]) == expected, name


def test_oracle_match(capsys):
    code, out, _ = invoke(capsys, ["oracle", "catalog:P2-line", "--c", "1/2", "--kmax", "20"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["match"] is True
    assert [s["k"] for s in payload["samples"]] == [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]


def test_oracle_sums_each_k_once(capsys, monkeypatch):
    from logklab.weightoracle import HilbertModel

    real = HilbertModel.h_divisor
    divisor_args = []

    def recorded(self, j):
        divisor_args.append(j)
        return real(self, j)

    monkeypatch.setattr(HilbertModel, "h_divisor", recorded)
    code, out, _ = invoke(capsys, ["oracle", "catalog:P2-line", "--c", "9/10"])
    assert code == EXIT_OK
    assert [s["k"] for s in json.loads(out)["samples"]] == [10, 20, 30, 40, 50, 60]
    # One walk over the block ranges (k/10, k] of the default listing's
    # k = 10..60: they form the one run j = 2..60, of 59 values and 11
    # records, so it is jumped: its n = 2 seeds at j = 2, 3 and its end check
    # at j = 60 (the counts in between are Newton series). Then the literal
    # cross-check of the first sample (k = 10: blocks j = 10..2, then d~ at
    # j = 10).
    assert divisor_args == [2, 3, 60, *range(10, 1, -1), 10]


def test_oracle_exits_4_when_the_walk_disagrees(capsys, monkeypatch):
    import logklab.weightoracle as weightoracle

    real = weightoracle.sum_samples

    def s1_off_by_one(model, c, ks):
        return [s._replace(w_k=s.w_k - 1) for s in real(model, c, ks)]

    monkeypatch.setattr(weightoracle, "sum_samples", s1_off_by_one)
    code, out, err = invoke(capsys, ["oracle", "catalog:P2-line", "--c", "1/2"])
    assert code == 4
    assert out == ""
    assert "cross-check" in err and "Traceback" not in err


def test_oracle_exits_4_when_a_run_end_disagrees(capsys, monkeypatch):
    from logklab.weightoracle import HilbertModel

    real = HilbertModel.h_divisor

    def off_at_run_end(self, j):
        # The walk's one run at c = 9/10, --kmax 60 is j = 2..60, jumped.
        return real(self, j) + (j == 60)

    monkeypatch.setattr(HilbertModel, "h_divisor", off_at_run_end)
    code, out, err = invoke(capsys, ["oracle", "catalog:P2-line", "--c", "9/10"])
    assert code == 4
    assert out == ""
    assert "disagree at j = 60" in err and "Traceback" not in err


@pytest.mark.parametrize("n, coefficients, c, message", [
    (2, ["1/2", "3/2", "1/2"], "1/2", "explicit model gives a non-dimension value 1/2 at k = 0"),
    (2, ["-20", "3/2", "1/2"], "1/3", "explicit model gives a non-dimension value -11 at k = 3"),
    (3, ["20", "-61/6", "1", "1/6"], "2/3", "divisor dimension negative at j = 2; model invalid"),
    # h_D(j) < 0 for j = 14..22 only: the walk's seeds at j = 2..5 are valid,
    # and the first sample (k = 2) never reaches a negative count.
    (4, ["0", "25213/12", "-2437/24", "5/12", "1/24"], "1/2",
     "divisor dimension negative at j = 14; model invalid"),
], ids=["non-integer", "negative", "negative-divisor-count", "negative-past-the-seeds"])
def test_oracle_bad_explicit_model_exits_3(capsys, tmp_path, n, coefficients, c, message):
    # Each model is wrong at several arguments. A non-integer value is refused
    # when the file is loaded, at the least k; any other fault is named where
    # the walk meets it first.
    doc = {"name": "bad", "dimension": n, "L_top": "1", "cX_L": str(n + 1), "divisor": {"m": 1},
           "hilbert": {"kind": "explicit", "coefficients": coefficients}}
    code, out, err = invoke(capsys, ["oracle", write_pair(tmp_path, doc), "--c", c])
    assert (code, out, err) == (EXIT_INPUT, "", f"input error: {message}\n")


C_RANGE = "blow-up parameter must satisfy 0 < c < 1, got {}"
N_TOO_SMALL = "S^D needs n >= 2; the divisor is zero-dimensional for n = 1"
P1_DOC = {"name": "P1-point", "dimension": 1, "L_top": "1", "cX_L": "2", "divisor": {"m": 1},
          "hilbert": {"kind": "projective_space"}}


@pytest.mark.parametrize("pair, flags, message", [
    ("catalog:P2-line", ["--c", "3/2"], C_RANGE.format("3/2")),
    ("catalog:P2-line", ["--c", "3/2", "--kmax", "0"], C_RANGE.format("3/2")),
    ("catalog:P2-line", ["--c=-1/2"], C_RANGE.format("-1/2")),
    ("catalog:P2-line", ["--c", "0"], C_RANGE.format("0")),
    # An n = 1 pair: c is checked first when the listing reaches k = q = 2,
    # and the closed form's dimension check first when it does not.
    (P1_DOC, ["--c", "3/2"], C_RANGE.format("3/2")),
    (P1_DOC, ["--c", "3/2", "--kmax", "1"], N_TOO_SMALL),
    (P1_DOC, ["--c", "1/2"], N_TOO_SMALL),
], ids=["c-above-1", "c-above-1-kmax-0", "c-negative", "c-zero",
        "n1-c-above-1", "n1-c-above-1-kmax-1", "n1-good-c"])
def test_oracle_error_precedence(capsys, tmp_path, pair, flags, message):
    if isinstance(pair, dict):
        pair = write_pair(tmp_path, pair)
    code, out, err = invoke(capsys, ["oracle", pair, *flags])
    assert (code, out, err) == (EXIT_INPUT, "", f"input error: {message}\n")


def test_oracle_kmax_limit(capsys):
    code, out, _ = invoke(capsys, ["oracle", "catalog:P2-line", "--c", "99/100", "--kmax", "10000"])
    assert code == EXIT_OK
    assert [s["k"] for s in json.loads(out)["samples"]] == list(range(100, 10001, 100))
    code, out, err = invoke(capsys, ["oracle", "catalog:P2-line", "--c", "1/2", "--kmax", "10001"])
    assert code == EXIT_INPUT
    assert out == ""
    assert "--kmax must be at most 10000" in err


def test_oracle_literal_limit(capsys):
    # At the limit's boundary 10^6 counts run; 10^9 - 1 are refused at once.
    code, out, _ = invoke(capsys, ["oracle", "catalog:P2-line", "--c", "1000000/1000001"])
    assert code == EXIT_OK
    assert json.loads(out)["match"] is True
    code, out, err = invoke(capsys, ["oracle", "catalog:P2-line", "--c", "999999999/1000000000"])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == ("input error: the literal check of the first sample would sum "
                   "c*k = 999999999 divisor counts at k = 1000000000, more than the limit 1000000\n")


# h_X(k) = 1 + sum_{1<=j<=k} ((j - 5)^2 + 1): its divisor counts' forward
# differences start negative, so the oracle's walk counts its runs.
VALLEY_DOC = {"name": "P3-valley", "dimension": 3, "L_top": "2", "cX_L": "-18", "divisor": {"m": 1},
              "hilbert": {"kind": "explicit", "coefficients": ["1", "127/6", "-9/2", "1/3"]}}


def test_oracle_counted_run_limit(capsys, monkeypatch, tmp_path):
    # c near 1 joins the first n + 4 block ranges (t, t q] into one run of
    # 7 q - 1 counts from j = 2; the first sample's literal check sums q - 1.
    import logklab.weightoracle as weightoracle

    valley = write_pair(tmp_path, VALLEY_DOC)
    code, out, _ = invoke(capsys, ["oracle", valley, "--c", "99999/100000"])
    assert (code, json.loads(out)["match"]) == (EXIT_OK, True)
    # Refused before the run is counted, and before the literal check.
    literal, real = [], weightoracle.dims_and_weights
    monkeypatch.setattr(weightoracle, "dims_and_weights",
                        lambda *args: literal.append(args) or real(*args))
    start = time.perf_counter()
    code, out, err = invoke(capsys, ["oracle", valley, "--c", "999999/1000000"])
    assert time.perf_counter() - start < 1
    assert (code, out, literal) == (EXIT_INPUT, "", [])
    assert err == ("input error: the walk would count a run of 6999999 divisor counts "
                   "from j = 2, more than the limit 1000000\n")


# h_D(j) = (j - 9990)^2 - 1, negative at j = 9990 only.
DIP_DOC = {"name": "dip", "dimension": 3, "L_top": "2", "cX_L": "-39958", "divisor": {"m": 1},
           "hilbert": {"kind": "explicit",
                       "coefficients": ["1", "598740655/6", "-19979/2", "1/3"]}}


def test_oracle_refuses_a_bad_model_on_its_walk(capsys, monkeypatch, tmp_path):
    # The walk counts the one run (1, 10000], whose differences start
    # negative, and refuses the model at the dip's own count, with no
    # per-sample re-sum of the 5000 samples (about 12.5 million counts).
    import logklab.weightoracle as weightoracle

    literal, real = [], weightoracle.dims_and_weights
    monkeypatch.setattr(weightoracle, "dims_and_weights",
                        lambda *args: literal.append(args) or real(*args))
    argv = ["oracle", write_pair(tmp_path, DIP_DOC), "--c", "1/2", "--kmax", "10000"]
    code, out, err = invoke(capsys, argv)
    assert (code, out, literal) == (EXIT_INPUT, "", [])
    assert err == "input error: divisor dimension negative at j = 9990; model invalid\n"


def explicit_p2_pair(tmp_path, floor):
    """P2 with the dimension polynomial (k+1)(k+2)/2 given as an explicit model."""
    return write_pair(tmp_path, {
        "name": "P2-explicit", "dimension": 2, "L_top": "1", "cX_L": "3", "divisor": {"m": 1},
        "hilbert": {"kind": "explicit", "coefficients": ["1", "3/2", "1/2"], "floor": floor}})


@pytest.mark.parametrize("command", [["oracle", "--c", "1/2", "--kmax", "0"], ["info"]],
                         ids=["oracle", "info"])
def test_hilbert_floor_limit(capsys, tmp_path, command):
    # The oracle walks about `floor` divisor counts before its first sample,
    # so the floor is limited when the pair file is loaded, for every subcommand.
    argv = [command[0], explicit_p2_pair(tmp_path, 10**8), *command[1:]]
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "input error: hilbert 'floor' must be at most 10000, got 100000000\n"
    code, _, err = invoke(capsys, ["info", explicit_p2_pair(tmp_path, 10000)])
    assert (code, err) == (EXIT_OK, "")


@pytest.mark.parametrize("kind, keys", [
    ("projective_space", {"floor": 5000, "coefficients": ["9", "9"]}),
    ("projective_space", {"floor": 0}),
    ("product_p1p1", {"coefficients": ["1", "2", "1"]}),
], ids=["projective-both", "projective-floor", "product-coefficients"])
@pytest.mark.parametrize("command", [["oracle", "--c", "1/2", "--kmax", "4"], ["info"]],
                         ids=["oracle", "info"])
def test_builtin_hilbert_kind_refuses_floor_and_coefficients(capsys, tmp_path, kind, keys,
                                                             command):
    entry = CATALOG["P2-line" if kind == "projective_space" else "P1xP1-diag"]
    path = write_pair(tmp_path, {
        "name": "builtin", "dimension": 2, "L_top": str(entry.pair.L_top),
        "cX_L": str(entry.pair.cX_L), "divisor": {"m": 1}, "hilbert": {"kind": kind, **keys}})
    code, out, err = invoke(capsys, [command[0], path, *command[1:]])
    assert (code, out) == (EXIT_INPUT, "")
    named = ", ".join(sorted(keys))
    assert err == f"input error: unknown key(s) in {kind} hilbert block: {named}\n"


@pytest.mark.parametrize("flag, message", [
    (["--lambda", "3"], "lambda = 3 exceeds Lambda = 2"),
    (["--alpha-L=-1"], "alpha_L must be >= 0, got -1"),
], ids=["lambda", "alpha-L"])
def test_positivity_flag_override_is_checked(capsys, tmp_path, flag, message):
    # A flag replaces one field of the pair file's positivity block; the
    # merged data must pass the same checks as the block itself.
    path = write_pair(tmp_path, {
        "name": "sandwich", "dimension": 2, "L_top": "1", "cX_L": "3", "divisor": {"m": 1},
        "positivity": {"lambda": "2", "Lambda": "2"}})
    code, out, err = invoke(capsys, ["window", path, "--case", "uniform", *flag])
    assert (code, out, err) == (EXIT_INPUT, "", f"input error: {message}\n")


def test_oracle_without_model(capsys):
    code, _, err = invoke(capsys, ["oracle", "catalog:Fano-template", "--c", "1/2"])
    assert code == EXIT_INPUT
    assert "hilbert" in err


def test_info_command(capsys):
    code, out, _ = invoke(capsys, ["info", "catalog:P2-line"])
    assert code == EXIT_OK
    assert "ScalarBoundSaturated" in out
    assert "instability_threshold" in out


def test_scalar_command(capsys):
    code, out, _ = invoke(capsys, ["scalar", "catalog:P2-line", "--beta", "5/16", "--m", "4"])
    assert code == EXIT_OK
    assert "1/2" in out and "1/4" in out


def test_window_commands(capsys):
    base = ["catalog:P2-line", "--m", "4", "--alpha-L", "1/3", "--alpha-LD", "1/2"]
    code, out, _ = invoke(capsys, ["window", *base, "--case", "uniform"])
    assert code == EXIT_OK and "[1/4, 3/8)" in out
    code, out, _ = invoke(capsys, ["window", *base, "--case", "large"])
    assert code == EXIT_OK and "(0, 1/4]" in out
    code, out, _ = invoke(capsys, ["window", *base, "--case", "given"])
    assert code == EXIT_OK and "(0, 3/8]" in out


def test_window_precondition_failure_exit_2(capsys):
    code, out, _ = invoke(capsys, [
        "window", "catalog:P2-line", "--m", "2", "--case", "uniform",
        "--alpha-L", "1/3", "--alpha-LD", "1/2"])
    assert code == EXIT_INCONCLUSIVE
    assert "PreconditionFailed" in out


def test_window_empty_exit_2(capsys):
    code, out, _ = invoke(capsys, [
        "window", "catalog:P2-line", "--m", "4", "--case", "uniform",
        "--alpha-L", "0", "--alpha-LD", "0"])
    assert code == EXIT_INCONCLUSIVE
    assert "empty" in out


def test_uniform_window_refuses_a_large_lambda_on_a_non_ample_pair(capsys, tmp_path):
    # With L^n > 0, lambda <= S_1/n (the nef sandwich) and S_1 <= m n give
    # (n+1) lambda <= S_1 + m, so only a non-ample pair could fail that
    # hypothesis, and it is refused when it is loaded.
    pair = write_pair(tmp_path, {"name": "non-ample", "dimension": 2, "L_top": "-1",
                                 "cX_L": "1", "divisor": {"m": 1}})
    code, out, err = invoke(capsys, ["window", pair, "--case", "uniform",
                                     "--lambda", "1", "--Lambda", "2"])
    assert (code, out, err) == (
        EXIT_INPUT, "", "input error: L_top must be > 0 (L is ample), got -1\n")


def test_eta_command(capsys):
    base = ["eta", "catalog:P2-line", "--m", "4", "--alpha-L", "1/3", "--alpha-LD", "1/2"]
    code, out, _ = invoke(capsys, [*base, "--beta", "5/16"])
    assert code == EXIT_OK
    assert "certificate: 3/8" in out
    code, out, _ = invoke(capsys, [*base, "--beta", "25/64"])
    assert code == EXIT_INCONCLUSIVE


def test_thresholds_command(capsys):
    code, out, _ = invoke(capsys, [
        "thresholds", "catalog:P2-line", "--m", "4",
        "--alpha-L", "1/3", "--alpha-LD", "1/2"])
    assert code == EXIT_OK
    assert "beta_u" in out and "3/8" in out


def test_thresholds_prints_n_a_where_an_override_exceeds_m_beta(capsys):
    # On P2-line (m = 1) an alpha_beta override of 1/2 holds at beta >= 1/2
    # only: the row at 1/4 is n/a, and --beta 1/4 itself is refused.
    base = ["thresholds", "catalog:P2-line", "--alpha-L", "1/3", "--alpha-LD", "1/2",
            "--alpha-beta", "1/2"]
    code, out, err = invoke(capsys, [*base, "--beta", "1/2"])
    assert (code, err) == (EXIT_OK, "")
    rows = [line.split()[:2] for line in out.splitlines()[2:]]
    assert rows == [["beta_u", "0"], ["alpha_beta_lower(beta=1/4)", "n/a"],
                    *([f"alpha_beta_lower(beta={b})", "1/2"] for b in ("1/2", "3/4", "1")),
                    ["min_multiplicity_eta0(beta=1/2)", "7"]]
    assert out.splitlines()[3].endswith("  alpha_beta override exceeds m*beta")
    code, out, err = invoke(capsys, [*base, "--beta", "1/4"])
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("input error: alpha_beta override 1/2 exceeds m*beta = 1/4,")


def test_the_least_m_row_and_eta_read_eta_0_differently(capsys, tmp_path):
    # On a sandwich pair (S_1 = 6, lambda = 2, Lambda = 3) the least-m row's
    # second eta = 0 condition, S_1 - m n (1-beta) - (n-1)lambda < 0, holds at
    # m = 7, beta = 1/2; eta's third condition at eta = 0 is stronger by
    # (n-1)m(1-beta) and fails there, so eta certifies only eta > 1/2.
    pair = write_pair(tmp_path, {
        "name": "sandwich", "dimension": 2, "L_top": "1", "cX_L": "3", "divisor": {"m": 1},
        "positivity": {"alpha_L": "10", "alpha_LD_restricted": "10", "lambda": "2",
                       "Lambda": "3"}})
    code, out, err = invoke(capsys, ["thresholds", pair, "--beta", "1/2"])
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[-1].split() == [
        "min_multiplicity_eta0(beta=1/2)", "7", "7", "least", "m", "with", "both",
        "eta=0", "conditions", "strict"]
    code, out, err = invoke(capsys, ["eta", pair, "--m", "7", "--beta", "1/2"])
    assert (code, err) == (EXIT_OK, "")
    assert "eta interval: (1/2, 21/4)\n" in out and "fact: S_beta = -1\n" in out
    # The large-m window admits m(1 - beta) = T = 3, which the least m does not.
    code, out, err = invoke(capsys, ["window", pair, "--m", "6", "--case", "large"])
    assert (code, out, err) == (EXIT_OK, "claim: ExistenceCscKCone\nwindow: (0, 1/2]\n", "")


def test_thresholds_missing_alphas(capsys):
    code, _, err = invoke(capsys, ["thresholds", "catalog:P2-line", "--m", "4"])
    assert code == EXIT_INPUT
    assert "alpha" in err


def test_entropy_command(capsys):
    code, out, _ = invoke(capsys, [
        "entropy", "catalog:Fano-template", "--beta", "3/4", "--alpha-beta", "3/4"])
    assert code == EXIT_OK
    assert "certificate: 9/8" in out


def test_critical_c_command(capsys):
    code, out, _ = invoke(capsys, [
        "critical-c", "catalog:P2-line", "--beta", "1/2", "--tol", "1/1024"])
    assert code == EXIT_OK
    assert "isolating interval" in out


def test_critical_c_sentinel(capsys):
    code, out, _ = invoke(capsys, [
        "critical-c", "catalog:P2-line", "--beta", "0", "--tol", "1/8"])
    assert code == EXIT_OK
    assert "every c in (0, 1)" in out


def test_negative_rationals_in_equals_form(capsys):
    # argparse reads a bare "-1/3" as an option; "--beta=-1/3" passes it as a value.
    code, out, _ = invoke(capsys, ["df", "catalog:P2-line", "--c", "1/2", "--beta=-1/3"])
    assert code == EXIT_OK
    assert "both DF paths agree" in out
    code, out, _ = invoke(capsys, [
        "critical-c", "catalog:P2-line", "--beta=-1/3", "--tol", "1/8"])
    assert code == EXIT_OK
    assert "every c in (0, 1)" in out


def test_df_curve_csv(capsys):
    code, out, _ = invoke(capsys, [
        "df-curve", "catalog:P2-line", "--beta", "1/2", "--steps", "5"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("c,df,inner_factor,jna")
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "1/6"


def test_df_curve_json(capsys):
    code, out, _ = invoke(capsys, [
        "df-curve", "catalog:P2-line", "--beta", "1/2", "--steps", "3",
        "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [row["c"] for row in payload] == ["1/4", "1/2", "3/4"]
    assert payload[1]["df"] == "-1/48"


def test_df_curve_steps_limit(capsys):
    # The rows are lazy: the limit itself is accepted before any is computed.
    assert curve_rows(CATALOG["P2-line"].pair, Fraction(1, 2), CURVE_STEPS_LIMIT)
    code, out, err = invoke(capsys, ["df-curve", "catalog:P2-line", "--beta", "1/2",
                                     "--steps", str(CURVE_STEPS_LIMIT + 1)])
    assert (code, out, err) == (EXIT_INPUT, "", "input error: steps must be at most 100000, "
                                                "got 100001\n")


@pytest.mark.parametrize("cmd", ["critical-c", "destabilize"])
def test_sign_depth_exits_3(monkeypatch, capsys, cmd):
    # With 30 bits, a P2 search takes no sign past c = a/2^10.
    import logklab.normalcone as normalcone

    monkeypatch.setattr(normalcone, "SIGN_BITS_LIMIT", 30)
    if cmd == "critical-c":
        argv = [cmd, "catalog:P2-line", "--beta", "1/2", "--tol"]
        for tol in ("1/1024", "3/2048"):  # 2^-10 and 1.5 2^-10
            assert invoke(capsys, [*argv, tol])[0] == EXIT_OK
        assert invoke(capsys, [*argv, "1023/1048576"]) == (
            EXIT_INPUT, "", "input error: tol must be at least 2^-10\n")
        # The root within 2^-13 of 0, where no seed within the depth reaches it.
        argv = [cmd, "catalog:P2-line", "--beta", "1/8192", "--tol", "1/2"]
        goal = "isolating the critical c to within tol"
    else:
        # The witness is 1 - 2^-9 at beta = 1 - 2^-16, and past 1 - 2^-10 at 1 - 2^-30.
        argv = [cmd, "catalog:P2-line", "--beta", "65535/65536"]
        code, out, _ = invoke(capsys, argv)
        assert code == EXIT_OK and "witness c: 511/512\n" in out
        argv = [cmd, "catalog:P2-line", "--beta", f"{2**30 - 1}/{2**30}"]
        goal = "finding a destabilising c"
    assert invoke(capsys, argv) == (
        EXIT_INPUT, "", f"input error: {goal} needs a sign at c = a/2^j with j > 10, "
                        "the search depth in dimension 2\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_df_curve_bytes_do_not_depend_on_stdout_buffering(fmt):
    src = Path(__file__).resolve().parent.parent / "src"
    argv = [sys.executable, "-m", "logklab.cli", "df-curve", "catalog:P3-hyperplane",
            "--beta", "1/3", "--steps", "700", "--format", fmt]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    buffered, unbuffered = (subprocess.run(argv, capture_output=True, env=e, timeout=120)
                            for e in (env, dict(env, PYTHONUNBUFFERED="1")))
    assert buffered.returncode == unbuffered.returncode == EXIT_OK
    assert buffered.stdout == unbuffered.stdout
    assert buffered.stdout.count(b"\n") > 700


def test_df_curve_writes_rows_in_batches(monkeypatch):
    writes = []

    class Recording(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    out = Recording()
    monkeypatch.setattr(sys, "stdout", out)
    assert run(["df-curve", "catalog:P2-line", "--beta", "1/2", "--steps", "700"]) == EXIT_OK
    # The header and rows 1-256, rows 257-512, rows 513-700, then the empty tail.
    assert [text.count("\n") for text in writes] == [257, 256, 188, 0]
    assert out.getvalue() == "".join(writes)


CURVE_COLUMNS = ("c", "df", "inner_factor", "jna")


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    L_top=st.fractions(min_value=0, max_value=100, max_denominator=1000).filter(lambda q: q > 0),
    cX_L=st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    beta=st.fractions(min_value=-10, max_value=10, max_denominator=1000),
    steps=st.integers(min_value=1, max_value=40),
)
# The row 2/3,0,0,34/81,...: an exact zero, whose denominator 1 prints no "/".
@example(n=3, L_top=Fraction(1), cX_L=Fraction(4), beta=Fraction(9, 10), steps=2)
# Each input integer within the int->str digit limit, but DF's terms and the
# inner factor's numerator past it.
@example(n=2, L_top=Fraction(1, 7**4000), cX_L=Fraction(3), beta=Fraction(1, 3**7000), steps=2)
# A full batch of CURVE_BATCH rows, then a short one.
@example(n=2, L_top=Fraction(1), cX_L=Fraction(3), beta=Fraction(1, 2), steps=300)
def test_df_curve_bytes_equal_the_fraction_writers(n, L_top, cX_L, beta, steps):
    # The streamed rows against format_rational, decimal_string and
    # json.dumps over the Fractions of the closed form at each c.
    pair = PolarisedPair("random", n, L_top, cX_L)
    reports = ((c, family(pair, c).df(beta)) for c in (Fraction(i, steps + 1)
                                                       for i in range(1, steps + 1)))
    rows = [(c, rep.df, rep.inner_factor, rep.jna) for c, rep in reports]
    doc = {"name": "random", "dimension": n, "L_top": format_rational(L_top),
           "cX_L": format_rational(cX_L), "divisor": {"m": 1}}
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["df-curve", write_pair(Path(tmp), doc), f"--beta={format_rational(beta)}",
                "--steps", str(steps)]
        for fmt in ("csv", "json"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run([*argv, "--format", fmt])
            assert (code, err.getvalue()) == (EXIT_OK, "")
            outputs[fmt] = out.getvalue()
    assert outputs["json"] == json.dumps(
        [dict(zip(CURVE_COLUMNS, map(format_rational, row))) for row in rows], indent=2) + "\n"
    header = ",".join([*CURVE_COLUMNS, *(f"{name}_decimal" for name in CURVE_COLUMNS)])
    assert outputs["csv"].splitlines() == [header, *(
        ",".join([*map(format_rational, row), *map(decimal_string, row)]) for row in rows)]
    assert outputs["csv"].endswith("\n")


def test_criteria_command(capsys, tmp_path):
    doc = {"Sbeta": "-3", "alpha_beta": "0", "n": 2, "is_lc": True, "bullet2_nef": True}
    path = tmp_path / "criteria.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, ["criteria", "--file", str(path)])
    assert code == EXIT_OK
    assert "CriterionSatisfied" in out


def test_criteria_nothing_applicable(capsys, tmp_path):
    path = tmp_path / "criteria.json"
    path.write_text(json.dumps({"Sbeta": "0", "alpha_beta": "0", "n": 2}))
    code, out, _ = invoke(capsys, ["criteria", "--file", str(path)])
    assert code == EXIT_INCONCLUSIVE


ALPHAS = ("--alpha-L", "1/3", "--alpha-LD", "1/2")
# Every subcommand that renders rows or fields, each on an input that
# renders at least two values.
RENDERING_ARGVS = [
    ["info", "catalog:P2-line"],
    ["scalar", "catalog:P2-line", "--beta", "1/2"],
    ["thresholds", "catalog:P2-line", *ALPHAS],
    ["window", "catalog:Fano-template", "--case", "given", *ALPHAS],
    ["eta", "catalog:P2-line", "--beta", "1/4", *ALPHAS],
    ["entropy", "catalog:P2-line", "--beta", "1/4", *ALPHAS],
    ["df", "catalog:P2-line", "--c", "1/2", "--beta", "1/2"],
    ["destabilize", "catalog:P2-line", "--beta", "1/2"],
    ["critical-c", "catalog:P2-line", "--beta", "1/2", "--tol", "1/1024"],
    ["criteria", "--file", "CRITERIA"],
    ["catalog", "show", "P2-line"],
]


@pytest.mark.parametrize("argv", RENDERING_ARGVS, ids=[argv[0] for argv in RENDERING_ARGVS])
def test_a_failure_while_rendering_leaves_stdout_empty(monkeypatch, capsys, tmp_path, argv):
    # The value renderer fails on its second value, after the text of the
    # first is made: none of it is written.
    import logklab.cli as cli

    path = tmp_path / "criteria.json"
    path.write_text(json.dumps({"Sbeta": "-3", "alpha_beta": "0", "n": 2, "is_lc": True,
                                "bullet2_nef": True}))
    calls, real = [], cli._field_text

    def failing(value):
        calls.append(value)
        if len(calls) == 2:
            raise InternalCheckError("the renderer's second value")
        return real(value)

    monkeypatch.setattr(cli, "_field_text", failing)
    code, out, err = invoke(capsys, [str(path) if word == "CRITERIA" else word for word in argv])
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err == "internal cross-check failure: the renderer's second value\n"


@pytest.mark.parametrize("command, doc", [
    (["info"], dict(PAIR_DOC, dimension=True)),
    (["info"], dict(PAIR_DOC, divisor={"m": True})),
    (["info"], dict(PAIR_DOC, hilbert={"kind": "explicit", "coefficients": ["1", "2", "1"],
                                       "floor": "2"})),
    (["info"], dict(PAIR_DOC, divisor={"m": 1, "smooth": True})),
    (["criteria", "--file"], {"Sbeta": "-3", "alpha_beta": "0", "n": 2.7, "is_lc": True,
                              "bullet2_nef": True}),
], ids=["dimension-bool", "m-bool", "floor-string", "smooth-key", "criteria-n-float"])
def test_input_file_integers_are_strict(capsys, tmp_path, command, doc):
    code, _, _ = invoke(capsys, [*command, write_pair(tmp_path, doc)])
    assert code == EXIT_INPUT


CRITERIA_DOC = {"Sbeta": "-3", "alpha_beta": "0", "n": 2}
P2_LINE_DOC = {"name": "P2", "dimension": 2, "L_top": "1", "cX_L": "3", "divisor": {"m": 1}}


@pytest.mark.parametrize("command, doc, message", [
    (["df-curve", "catalog:P2-line", "--beta", "1/2", "--steps", "0"], None,
     "steps must be >= 1, got 0"),
    (["criteria", "--file"], {"alpha_beta": "0", "n": 2},
     "criteria file is missing required key 'Sbeta'"),
    (["criteria", "--file"], dict(CRITERIA_DOC, is_lc=1),
     "criteria key 'is_lc' must be a boolean"),
    (["criteria", "--file"], dict(CRITERIA_DOC, alpha_beta="-1/2"),
     "alpha_beta must be >= 0, got -1/2"),
    (["criteria", "--file"], dict(CRITERIA_DOC, n=0), "dimension must be >= 1, got 0"),
    (["info"], [P2_LINE_DOC], "pair file {path!r} must hold a JSON object"),
    (["info"], dict(P2_LINE_DOC, divisor=1), "divisor block must be a JSON object"),
    (["info"], dict(P2_LINE_DOC, hilbert={"kind": "explicit", "coefficients": "1"}),
     "explicit hilbert block needs a 'coefficients' list"),
], ids=["steps-0", "criteria-no-Sbeta", "criteria-flag-not-bool", "criteria-alpha-negative",
        "criteria-n-0", "pair-array", "divisor-not-object", "explicit-no-coefficients"])
def test_input_refusals_exit_3(capsys, tmp_path, command, doc, message):
    path = None if doc is None else write_pair(tmp_path, doc)
    argv = command if path is None else [*command, path]
    assert invoke(capsys, argv) == (EXIT_INPUT, "", f"input error: {message.format(path=path)}\n")


@pytest.mark.parametrize("argv, text", [
    (["scalar", "catalog:P2-line", "--beta", "1/2", "--m", "1_0"], "1_0"),
    (["scalar", "catalog:P2-line", "--beta", "1/2", "--m", "\u0663"], "\u0663"),
    (["scalar", "catalog:P2-line", "--beta", "1/2", "--m", "4/2"], "4/2"),
    (["df-curve", "catalog:P2-line", "--beta", "1/2", "--steps", "\u0663"], "\u0663"),
    (["oracle", "catalog:P2-line", "--c", "1/2", "--kmax", "2_0"], "2_0"),
], ids=["m-underscore", "m-arabic-indic", "m-fraction", "steps-arabic-indic", "kmax-underscore"])
def test_integer_flags_take_ascii_digits_only(capsys, argv, text):
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.endswith(f"invalid int value: {text!r}\n")


def test_negative_kmax_lists_no_samples(capsys):
    code, out, _ = invoke(capsys, ["oracle", "catalog:P2-line", "--c", "1/2", "--kmax=-3"])
    assert code == EXIT_OK
    assert json.loads(out)["samples"] == []


@pytest.mark.parametrize("command, doc", [
    (["info"], dict(PAIR_DOC, L_top="\u0661")),
    (["info"], dict(PAIR_DOC, positivity={"alpha_L": "1/\u0663"})),
    (["criteria", "--file"], {"Sbeta": "\uff11", "alpha_beta": "0", "n": 2}),
], ids=["L_top", "positivity", "criteria"])
def test_file_rationals_take_ascii_digits_only(capsys, tmp_path, command, doc):
    code, out, err = invoke(capsys, [*command, write_pair(tmp_path, doc)])
    assert (code, out) == (EXIT_INPUT, "")
    assert "not a rational" in err


def test_rational_flags_take_ascii_digits_only(capsys):
    code, out, err = invoke(capsys, ["df", "catalog:P2-line", "--c", "1/2", "--beta", "\u0663/4"])
    assert (code, out) == (EXIT_INPUT, "")
    assert "not a rational" in err


def test_readme_lists_every_positivity_key_and_flag():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = "\n".join(f"| `{key}` | `{flag}` |" for key, _, flag, *_ in _POSITIVITY)
    assert rows in readme


@pytest.mark.parametrize("hilbert, message", [
    ({"kind": "product_p1p1"}, "Riemann-Roch"),
    ({"kind": "explicit", "coefficients": ["1", "2", "1"]}, "Riemann-Roch"),
    # Not integer-valued, which is refused first.
    ({"kind": "explicit", "coefficients": ["1", "3/2", "1"]},
     "explicit model gives a non-dimension value 7/2 at k = 1"),
], ids=["builtin-kind", "explicit-leading-coefficient", "explicit-non-integer"])
def test_hilbert_block_contradicting_pair_exits_3(capsys, tmp_path, hilbert, message):
    doc = {"name": "P2", "dimension": 2, "L_top": "1", "cX_L": "3", "divisor": {"m": 1},
           "hilbert": hilbert}
    code, out, err = invoke(capsys, ["oracle", write_pair(tmp_path, doc), "--c", "1/2"])
    assert code == EXIT_INPUT
    assert out == ""
    assert message in err


P2_EXPLICIT = {"name": "P2", "dimension": 2, "L_top": "1", "cX_L": "3", "divisor": {"m": 1}}


def test_info_refuses_a_non_integer_valued_model(capsys, tmp_path):
    # (k + 1)(k + 2)/2 + 1/2: the pair's invariants, but not a count at any k.
    doc = dict(P2_EXPLICIT, hilbert={"kind": "explicit", "coefficients": ["3/2", "3/2", "1/2"]})
    code, out, err = invoke(capsys, ["info", write_pair(tmp_path, doc)])
    assert (code, out, err) == (
        EXIT_INPUT, "", "input error: explicit model gives a non-dimension value 3/2 at k = 0\n")


def test_trailing_zero_coefficients_change_nothing(capsys, tmp_path):
    outputs = []
    for tail in ([], ["0"], ["0", "0/7", "-0"]):
        doc = dict(P2_EXPLICIT, hilbert={
            "kind": "explicit", "coefficients": ["1", "3/2", "1/2", *tail], "floor": 2})
        path = write_pair(tmp_path, doc)
        outputs.append((load_pair_file(path).model,
                        *(invoke(capsys, argv) for argv in (
                            ["info", path], ["oracle", path, "--c", "2/3", "--kmax", "30"]))))
    assert outputs[0][1][0] == outputs[0][2][0] == EXIT_OK
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_a_non_integer_value_is_refused_before_the_conversion(capsys, tmp_path, monkeypatch):
    # h(floor), h(floor + 1), ... are checked one at a time first: the
    # conversion of 513 coefficients is never run.
    def unreachable(coefficients):
        raise AssertionError("forward_differences ran")

    monkeypatch.setattr(pairmodel, "forward_differences", unreachable)
    for coefficients, value, k in ((["1/7"] * 513, "1/7", 0),
                                   (["1"] + ["1/7"] * 512, "519/7", 1)):
        doc = dict(P2_EXPLICIT, dimension=512,
                   hilbert={"kind": "explicit", "coefficients": coefficients})
        code, out, err = invoke(capsys, ["info", write_pair(tmp_path, doc)])
        assert (code, out, err) == (
            EXIT_INPUT, "", f"input error: explicit model gives a non-dimension value {value} "
                            f"at k = {k}\n")


def test_explicit_degree_past_the_dimension_exits_3(capsys, tmp_path):
    # Refused before the coefficients are converted, however many there are.
    doc = dict(P2_EXPLICIT, hilbert={"kind": "explicit", "coefficients": ["1/7"] * 5000})
    code, out, err = invoke(capsys, ["info", write_pair(tmp_path, doc)])
    assert (code, out, err) == (
        EXIT_INPUT, "",
        "input error: explicit hilbert block has degree 4999, more than the pair's dimension 2\n")


def test_criteria_rejects_unknown_keys(capsys, tmp_path):
    path = tmp_path / "criteria.json"
    path.write_text(json.dumps({"Sbeta": "0", "alpha_beta": "0", "n": 2, "oops": True}))
    code, _, err = invoke(capsys, ["criteria", "--file", str(path)])
    assert code == EXIT_INPUT
    assert "oops" in err


def test_catalog_commands(capsys):
    code, out, _ = invoke(capsys, ["catalog", "list"])
    assert code == EXIT_OK
    assert "P2-line" in out and "Fano-template" in out
    code, out, _ = invoke(capsys, ["catalog", "show", "P2-line"])
    assert code == EXIT_OK
    assert "dimension: 2" in out


def test_catalog_list_refuses_a_pair_name(capsys):
    # argparse and the table reader both read "extra" as the optional name.
    code, out, err = invoke(capsys, ["catalog", "list", "extra"])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "input error: catalog list takes no pair name, got 'extra'\n"


def test_usage_error_exit_3(capsys):
    code, _, err = invoke(capsys, ["df", "catalog:P2-line", "--c", "1/2"])  # --beta missing
    assert code == EXIT_INPUT
    assert "usage" in err.lower()
    code, _, err = invoke(capsys, ["df", "catalog:P2-line", "--c", "half", "--beta", "1/2"])
    assert code == EXIT_INPUT


def test_multiplicity_guard_on_df(capsys, tmp_path):
    doc = json.loads(json.dumps(PAIR_DOC))
    doc["divisor"] = {"m": 2}
    path = write_pair(tmp_path, doc)
    code, _, err = invoke(capsys, ["df", path, "--c", "1/2", "--beta", "1/2"])
    assert code == EXIT_INPUT
    assert "m = 1" in err


@pytest.mark.parametrize("argv", [
    ["df", "--c", "1/2", "--beta", "1/2"],
    ["df-curve", "--beta", "1/2", "--steps", "3"],
    ["destabilize", "--beta", "1/4"],
    ["critical-c", "--beta", "1/2", "--tol", "1/1024"],
    ["oracle", "--c", "1/2"],
], ids=lambda argv: argv[0])
def test_multiplicity_guard_on_every_normal_cone_command(capsys, tmp_path, argv):
    path = write_pair(tmp_path, dict(PAIR_DOC, divisor={"m": 2}))
    code, out, err = invoke(capsys, [argv[0], path, *argv[1:]])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"input error: {argv[0]} needs a pair with divisor multiplicity m = 1\n"


@pytest.mark.parametrize("argv", [
    ["thresholds"], ["window", "--case", "uniform"], ["eta", "--beta", "1/2"],
    ["entropy", "--beta", "1/2"],
], ids=lambda argv: argv[0])
def test_positivity_is_resolved_before_the_divisor(capsys, argv):
    # Two bad inputs: every positivity subcommand reports the same one.
    code, out, err = invoke(capsys, [argv[0], "catalog:P2-line", *argv[1:],
                                     "--m", "0", "--lambda", "3", "--Lambda", "2"])
    assert (code, out, err) == (EXIT_INPUT, "", "input error: lambda = 3 exceeds Lambda = 2\n")


# S_1/n = 5/4 lies above Lambda = 19/20. Taken at its word, the sandwich would
# certify `window --case large` on (0, 1/20], where destabilize finds DF < 0.
CONTRA_DOC = {"name": "contra", "dimension": 2, "L_top": 1, "cX_L": "5/4", "divisor": {"m": 1},
              "positivity": {"lambda": "9/10", "Lambda": "19/20", "alpha_L": 1,
                             "alpha_LD_restricted": 1}}


@pytest.mark.parametrize("argv", [
    ["window", "--case", "large"], ["eta", "--beta", "1/20"], ["entropy", "--beta", "1/20"],
    ["thresholds"],
], ids=lambda argv: argv[0])
def test_nef_bounds_contradicting_the_pair_exit_3(capsys, tmp_path, argv):
    code, out, err = invoke(capsys, [argv[0], write_pair(tmp_path, CONTRA_DOC), *argv[1:]])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == ("input error: nef thresholds need lambda <= S_1/n <= Lambda, "
                   "but S_1/n = 5/4 lies outside [9/10, 19/20]\n")


def test_destabilize_ignores_the_nef_bounds(capsys, tmp_path):
    code, out, _ = invoke(capsys, ["destabilize", write_pair(tmp_path, CONTRA_DOC),
                                   "--beta", "1/20"])
    assert code == EXIT_OK
    assert "DF(c, beta=1/20) = -1/160 < 0" in out


ENT_DOC = {"name": "ent", "dimension": 2, "L_top": "1", "cX_L": "7/3", "divisor": {"m": 1},
           "positivity": {"lambda": "7/3", "Lambda": "7/3", "alpha_L": "0",
                          "alpha_LD_restricted": "0", "entropy_lower": "3"}}


def test_entropy_refuses_a_certificate_below_the_instability_threshold(capsys, tmp_path):
    # The nef data fit the pair, but entropy_lower certifies beta = 1/2 while
    # the normal-cone family destabilises every angle below 2/3.
    path = write_pair(tmp_path, ENT_DOC)
    code, out, _ = invoke(capsys, ["info", path])
    assert code == EXIT_OK and "findings: none" in out
    code, out, _ = invoke(capsys, ["destabilize", path, "--beta", "1/2"])
    assert code == EXIT_OK and "DF(c, beta=1/2) = -3/128 < 0" in out
    code, out, err = invoke(capsys, ["entropy", path, "--beta", "1/2"])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == ("input error: entropy certificate at beta = 1/2 contradicts the pair: "
                   "angles below the instability threshold 2/3 are destabilised by the "
                   "normal-cone family (see destabilize)\n")
    code, out, _ = invoke(capsys, ["entropy", path, "--beta", "2/3"])
    assert code == EXIT_OK and "status: CriterionSatisfied" in out


def test_destabilize_negative_volume_finds_the_witness_near_0(capsys, tmp_path):
    # A pair with L^n < 0 is refused when it is loaded. The search toward 0
    # needs s < 0 on a pair with L^n > 0: here s = -3, the threshold is -3/2,
    # and at beta = -1/2 DF < 0 on (0, c*), c* < 1/2, so the witness is the
    # first c = 2^-j there. At the threshold DF < 0 at every c; at beta = 0
    # it is not below the threshold, and DF > 0 everywhere.
    path = write_pair(tmp_path, {"name": "negative-s", "dimension": 2, "L_top": "1",
                                 "cX_L": "-2", "divisor": {"m": 1}})
    code, out, err = invoke(capsys, ["destabilize", path, "--beta=-1/2"])
    assert (code, err) == (EXIT_OK, "")
    assert out == ("instability threshold: -3/2\nwitness c: 1/4\n"
                   "DF(c, beta=-1/2) = -7/384 < 0: pair is log K-unstable at this angle\n")
    code, out, _ = invoke(capsys, ["df", path, "--c", "1/4", "--beta=-1/2"])
    assert code == EXIT_OK and re.search(r"DF\(closed form\) +(\S+)", out).group(1) == "-7/384"
    code, out, err = invoke(capsys, ["destabilize", path, "--beta=-3/2"])
    assert (code, err) == (EXIT_OK, "")
    assert out == ("instability threshold: -3/2\nwitness c: 1/2\n"
                   "DF(c, beta=-3/2) = -3/16 < 0: pair is log K-unstable at this angle\n")
    assert invoke(capsys, ["destabilize", path, "--beta", "0"]) == (
        EXIT_INCONCLUSIVE,
        "PreconditionFailed: beta = 0 is not below the instability threshold -3/2\n", "")


@pytest.mark.parametrize("beta", ["0", "-1/2"])
def test_critical_c_negative_volume_refuses_nonpositive_beta(capsys, tmp_path, beta):
    # L^n < 0: L is not ample, and the pair file is refused when it is loaded.
    path = write_pair(tmp_path, {"name": "neg", "dimension": 2, "L_top": "-1", "cX_L": "-6",
                                 "divisor": {"m": 1}})
    refusal = "input error: L_top must be > 0 (L is ample), got -1\n"
    for argv in (["critical-c", path, f"--beta={beta}", "--tol", "1/8"],
                 ["destabilize", path, f"--beta={beta}"]):
        assert invoke(capsys, argv) == (EXIT_INPUT, "", refusal)


# The arguments after the pair of each of the 11 subcommands that read one.
PAIR_ARGS = {
    "info": [], "scalar": ["--beta", "1/2"], "thresholds": [], "window": ["--case", "large"],
    "eta": ["--beta", "1/2"], "entropy": ["--beta", "1/2"], "df": ["--c", "1/2", "--beta", "1/2"],
    "df-curve": ["--beta", "1/2", "--steps", "3"], "destabilize": ["--beta", "1/2"],
    "critical-c": ["--beta", "1/2", "--tol", "1/8"], "oracle": ["--c", "1/2"],
}


@pytest.mark.parametrize("command", PAIR_ARGS)
def test_a_non_ample_pair_file_exits_3(capsys, tmp_path, command):
    path = write_pair(tmp_path, {"name": "neg", "dimension": 2, "L_top": "-1", "cX_L": "1",
                                 "divisor": {"m": 1}})
    assert invoke(capsys, [command, path, *PAIR_ARGS[command]]) == (
        EXIT_INPUT, "", "input error: L_top must be > 0 (L is ample), got -1\n")


def test_a_pair_file_past_the_dimension_limit_exits_3(capsys, tmp_path):
    doc = {"name": "P513", "dimension": 513, "L_top": "1", "cX_L": "514", "divisor": {"m": 1}}
    assert invoke(capsys, ["info", write_pair(tmp_path, doc)]) == (
        EXIT_INPUT, "", "input error: dimension must be at most 512, got 513\n")
    doc = dict(doc, name="P512", dimension=512, cX_L="513")
    code, out, err = invoke(capsys, ["info", write_pair(tmp_path, doc)])
    assert (code, err) == (EXIT_OK, "") and "P512 (n=512, L^n=1" in out


def test_scalar_curve_pair_reports_sD_unavailable(capsys, tmp_path):
    doc = {"name": "genus-two-like", "dimension": 1, "L_top": "2", "cX_L": "-2",
           "divisor": {"m": 1}}
    path = write_pair(tmp_path, doc)
    code, out, _ = invoke(capsys, ["scalar", path, "--beta", "1/2"])
    assert code == EXIT_OK
    assert "n/a" in out
    assert "undefined for n = 1" in out


@pytest.mark.parametrize("argv", [
    ["df", "--c", "1/2", "--beta", "1/2"],
    ["df-curve", "--beta", "1/2", "--steps", "5"],
    ["destabilize", "--beta", "1/2"],
    ["critical-c", "--beta", "1/2", "--tol", "1/1024"],
    ["info"],
], ids=lambda argv: argv[0])
def test_normal_cone_commands_exit_4_when_s_disagrees_with_riemann_roch(
        capsys, monkeypatch, argv):
    # S_D off by (n-1)/7 moves s, and so the closed form and Family.df,
    # together; the pair constants' check against Riemann-Roch catches it.
    import logklab.closedform as closedform

    real = closedform.avg_scalar_sD
    monkeypatch.setattr(closedform, "avg_scalar_sD", lambda pair, m:
                        real(pair, m) + Fraction(pair.dimension - 1, 7))
    code, out, err = invoke(capsys, [argv[0], "catalog:P2-line", *argv[1:]])
    assert (code, out) == (4, "")
    assert "pair constants disagree with Riemann-Roch" in err and "Traceback" not in err


def test_df_canary_exits_4_when_paths_disagree(capsys, monkeypatch):
    import logklab.closedform as closedform

    monkeypatch.setattr(closedform, "df_from_coefficients",
                        lambda coeffs, beta: Fraction(1))
    code, _, err = invoke(capsys, ["df", "catalog:P2-line", "--c", "1/2", "--beta", "1/2"])
    assert code == 4
    assert "cross-check" in err


@pytest.mark.parametrize("corrupt", [_kernel_at_half_beta, _kernel_claiming_root])
def test_critical_c_exits_4_when_sign_kernel_disagrees(capsys, monkeypatch, corrupt):
    corrupt_signs(monkeypatch, corrupt, CATALOG["P2-line"].pair, Fraction(1, 2))
    code, out, err = invoke(capsys, [
        "critical-c", "catalog:P2-line", "--beta", "1/2", "--tol", "1/1024"])
    assert code == 4
    assert "isolating interval" not in out
    assert "cross-check" in err and "Traceback" not in err


def test_destabilize_exits_4_when_sign_kernel_disagrees(capsys, monkeypatch):
    import logklab.normalcone as normalcone

    real = normalcone._Kernel.sign
    monkeypatch.setattr(normalcone._Kernel, "sign", lambda kernel, a, d: -real(kernel, a, d))
    code, out, err = invoke(capsys, ["destabilize", "catalog:P2-line", "--beta", "15/16"])
    assert code == 4
    assert out == ""
    assert "cross-check" in err and "Traceback" not in err


def test_df_curve_exits_4_when_grid_kernel_disagrees(capsys, monkeypatch):
    import logklab.normalcone as normalcone

    real = normalcone._Kernel.value
    monkeypatch.setattr(normalcone._Kernel, "value",
                        lambda self, a, d, b_n, d_n1: real(self, a, d, b_n, d_n1) + 1)
    code, out, err = invoke(capsys, [
        "df-curve", "catalog:P2-line", "--beta", "1/2", "--steps", "5"])
    assert code == 4
    assert out == ""
    assert "cross-check" in err and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_df_curve_checks_its_last_point_before_the_first_byte(capsys, monkeypatch, fmt):
    import logklab.normalcone as normalcone

    real = normalcone._Kernel.value
    monkeypatch.setattr(normalcone._Kernel, "value", lambda self, a, d, b_n, d_n1:
                        real(self, a, d, b_n, d_n1) + (a == d - 1))
    code, out, err = invoke(capsys, [
        "df-curve", "catalog:P2-line", "--beta", "1/2", "--steps", "5", "--format", fmt])
    assert code == 4
    assert out == ""
    assert "cross-check" in err and "c = 5/6" in err and "Traceback" not in err


def test_critical_c_prints_values_past_int_digit_limit():
    # The inner factor at lo has a 16385-bit denominator, past the default
    # 4300-digit int->str limit; run in a fresh interpreter with that limit.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        [sys.executable, "-m", "logklab.cli", "critical-c", "catalog:P4-hyperplane",
         "--beta", "1/2", "--tol", f"1/{2**4096}"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
    lo_inner = lines["inner factor at lo"]
    assert len(lo_inner) > 4300
    assert parse_rational(lo_inner) > 0 > parse_rational(lines["inner factor at hi"])


INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="no int->str digit limit")
def test_rational_inputs_past_int_digit_limit_exit_3(capsys, tmp_path):
    big = "1" * (INT_DIGIT_LIMIT + 1)
    code, _, err = invoke(capsys, ["destabilize", "catalog:P2-line", "--beta", f"1/{big}"])
    assert code == EXIT_INPUT
    assert "digits" in err and big not in err
    code, _, err = invoke(capsys, ["info", write_pair(tmp_path, dict(PAIR_DOC, L_top=big))])
    assert code == EXIT_INPUT
    assert "digits" in err


@pytest.mark.parametrize("content", [
    b'{"name": "\xff"}',
    pytest.param(b'{"n": 1' + b"0" * INT_DIGIT_LIMIT + b"}",
                 marks=pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="no int->str digit limit")),
], ids=["not-utf8", "int-past-digit-limit"])
@pytest.mark.parametrize("command", [["info"], ["criteria", "--file"]], ids=["pair", "criteria"])
def test_unreadable_json_exits_3(capsys, tmp_path, command, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    code, _, err = invoke(capsys, [*command, str(path)])
    assert code == EXIT_INPUT
    assert "not valid JSON" in err


# Coprime 4000-digit integers: each input integer stays under the default
# 4300-digit int->str limit, while rationals computed from both pass it.
BIG_X = 10**3999 + 1
BIG_Y = 10**3999 + 3


def run_fresh(argv):
    """logklab in a fresh interpreter with the default int->str digit limit."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(src)
    return subprocess.run([sys.executable, "-m", "logklab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def big_pair(tmp_path, **numbers):
    return write_pair(tmp_path, {"name": "big", "dimension": 2, "divisor": {"m": 1}, **numbers})


def eta_certificate_case(tmp_path):
    path = big_pair(tmp_path, L_top="1", cX_L="3")
    alpha_L = Fraction(1, 2) + Fraction(1, BIG_Y)
    lam, Lam = 3 - Fraction(1, BIG_X), 3 + Fraction(1, BIG_X)  # around S_1/n = 3
    verdict = eta_feasibility(load_pair_file(path).pair, PositivityData(alpha_L, 1, lam, Lam),
                              5, Fraction(1, 2))
    argv = ["eta", path, "--m", "5", "--beta", "1/2", f"--alpha-L={format_rational(alpha_L)}",
            "--alpha-LD", "1", f"--lambda={format_rational(lam)}",
            f"--Lambda={format_rational(Lam)}"]
    return argv, EXIT_OK, [verdict.certificate, *verdict.eta_interval]


def criteria_violated_case(tmp_path):
    n, alpha_beta = int("1" * 4000), Fraction(1, int("7" * 4000))
    path = tmp_path / "criteria.json"
    path.write_text(json.dumps({"Sbeta": "-1", "alpha_beta": format_rational(alpha_beta),
                                "n": n, "is_lc": True, "bullet1_eta": "-1"}))
    return ["criteria", "--file", str(path)], EXIT_INCONCLUSIVE, [Fraction(n + 1, n) * alpha_beta]


def window_precondition_case(tmp_path):
    # lambda <= S_1/n <= Lambda holds, while S_1 < m n + (n-1) lambda = 0 fails.
    path = big_pair(tmp_path, L_top=str(BIG_X), cX_L=f"1/{BIG_Y}")
    argv = ["window", path, "--case", "large", "--lambda=-2", "--Lambda", "1"]
    return argv, EXIT_INCONCLUSIVE, [Fraction(2, BIG_X * BIG_Y)]  # S_1 = n cX_L / L_top


def info_inconsistent_case(tmp_path):
    path = big_pair(tmp_path, L_top=f"1/{BIG_X}", cX_L="1", proportional_x=f"1/{BIG_Y}")
    return ["info", path], EXIT_INPUT, [Fraction(1, BIG_X * BIG_Y)]  # x * L_top


def destabilize_threshold_case(tmp_path):
    path = big_pair(tmp_path, L_top=f"1/{BIG_X}", cX_L=str(-BIG_Y))
    threshold = instability_threshold(load_pair_file(path).pair)
    return ["destabilize", path, "--beta", "1/2"], EXIT_INCONCLUSIVE, [threshold]


def df_curve_case(tmp_path, fmt):
    path = big_pair(tmp_path, L_top=f"1/{BIG_X}", cX_L=str(-BIG_Y))
    pair = load_pair_file(path).pair
    reports = [family(pair, Fraction(i, 4)).df(Fraction(1, 2)) for i in range(1, 4)]
    argv = ["df-curve", path, "--beta", "1/2", "--steps", "3", "--format", fmt]
    return argv, EXIT_OK, [value for rep in reports for value in (rep.df, rep.inner_factor)]


def df_curve_csv_case(tmp_path):
    return df_curve_case(tmp_path, "csv")


def df_curve_json_case(tmp_path):
    return df_curve_case(tmp_path, "json")


@pytest.mark.parametrize("case", [
    eta_certificate_case, criteria_violated_case, window_precondition_case,
    info_inconsistent_case, destabilize_threshold_case, df_curve_csv_case, df_curve_json_case,
], ids=["eta", "criteria", "window", "info", "destabilize", "df-curve-csv", "df-curve-json"])
def test_rationals_past_int_digit_limit_print_exactly(tmp_path, case):
    argv, code, expected = case(tmp_path)
    proc = run_fresh(argv)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    printed = {parse_rational(token)
               for token in re.findall(r"-?\d+(?:/\d+)?", proc.stdout + proc.stderr)}
    for value in expected:
        assert len(format_rational(value)) > 4300
        assert value in printed


def test_closed_stdout_exits_quietly():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "logklab.cli", "df-curve", "catalog:P2-line", "--beta", "1/2",
         "--steps", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.stdout.readline().startswith(b"c,df,")
    proc.stdout.close()  # far more than a pipe buffer of rows is still to come
    assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert "Traceback" not in err and "Error" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [
    ["catalog", "list"],
    ["df-curve", "catalog:P2-line", "--beta", "1/2", "--steps", "5000"],
], ids=["catalog-list", "df-curve"])
def test_unwritable_stdout_exits_74(argv):
    # Every write to /dev/full fails with ENOSPC: at the final flush for a
    # short output, inside a print for a long one.
    src = Path(__file__).resolve().parent.parent / "src"
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "logklab.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(src)},
                              timeout=120)
    assert proc.returncode == EXIT_IOERR
    assert proc.stderr.decode() == (
        f"error: cannot write output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv, stdout_full, code", [
    (["info", "/no/such.json"], False, EXIT_INPUT),
    (["catalog", "list"], True, EXIT_IOERR),
    (["df", "catalog:P2-line", "--c", "1/2", "--beta", "1/2"], False, EXIT_OK),
], ids=["input-error", "stdout-too", "success"])
def test_unwritable_stderr_keeps_exit_code(argv, stdout_full, code):
    # The message is lost, but neither its write nor the interpreter's final
    # flush turns the code into 1 or 120.
    src = Path(__file__).resolve().parent.parent / "src"
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "logklab.cli", *argv],
                              stdout=full if stdout_full else subprocess.PIPE, stderr=full,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == code
    if code == EXIT_OK:
        assert proc.stdout.endswith(b"cross-check: both DF paths agree exactly\n")


# One argv per subcommand, one exit 2 and one exit 3 (CRITERIA is a criteria file).
PROCESS_ARGVS = [
    *RENDERING_ARGVS,
    ["df-curve", "catalog:P2-line", "--beta", "1/2", "--steps", "3"],
    ["oracle", "catalog:P2-line", "--c", "1/2", "--kmax", "6"],
    ["destabilize", "catalog:P2-line", "--beta", "1"],
    ["eta", "catalog:P2-line", "--beta", "1/4", "--alpha-beta", "100"],
]


def test_a_process_writes_what_run_returns(capsys, tmp_path):
    # main ends the process with os._exit, so only its own flushes put the
    # bytes out: a fresh process with block-buffered pipes must give run's.
    path = tmp_path / "criteria.json"
    path.write_text(json.dumps({"Sbeta": "-3", "alpha_beta": "0", "n": 2, "is_lc": True,
                                "bullet2_nef": True}))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    codes = set()
    for argv in PROCESS_ARGVS:
        argv = [str(path) if word == "CRITERIA" else word for word in argv]
        expected = invoke(capsys, argv)
        proc = subprocess.run([sys.executable, "-m", "logklab.cli", *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, argv
        codes.add(proc.returncode)
    assert codes == {EXIT_OK, EXIT_INCONCLUSIVE, EXIT_INPUT}


@pytest.mark.parametrize("command, text, key", [
    (["info"], '{"name": "a", "name": "b", "dimension": 2, "L_top": "1", "cX_L": "3",'
               ' "divisor": {"m": 1}}', "name"),
    (["info"], '{"name": "a", "dimension": 2, "L_top": "1", "cX_L": "3",'
               ' "divisor": {"m": 1, "m": 2}}', "m"),
    (["criteria", "--file"], '{"Sbeta": "-3", "alpha_beta": "0", "n": 2, "is_lc": true,'
                             ' "bullet2_nef": true, "is_lc": false}', "is_lc"),
], ids=["pair", "pair-nested", "criteria"])
def test_duplicate_json_keys_exit_3(capsys, tmp_path, command, text, key):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = invoke(capsys, [*command, str(path)])
    assert code == EXIT_INPUT
    assert out == ""
    assert f"duplicate key {key!r}" in err
