"""The CLI boundary under hostile input, through cli.run in process.

Every invocation exits 0, 2 or 3 and raises nothing, and an exit 3 or 4
writes nothing to stdout: 4 is kept for a real disagreement between two
computation paths, and no input may cause one. Each example runs in a new
directory that holds its input files, at the interpreter's default int<->str
digit limit, as a fresh process would run it.
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import factorial
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from logklab import cli
from logklab.cli import EXIT_INCONCLUSIVE, EXIT_INPUT, EXIT_OK

DEFAULT_LIMIT = getattr(sys.int_info, "default_max_str_digits", 0)  # 0: no limit before 3.10.7
get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
PAST_LIMIT = "9" * (DEFAULT_LIMIT or 4300) + "9"
# Words no flag or positional accepts: a zero denominator, a sign, a bare
# "--", an exponent, a vulgar fraction, a full-width digit, an integer past
# the digit limit and the empty word; and -h, which asks for help anywhere.
HOSTILE = ["1/0", "-1/2", "--", "1e3", "½", "１", PAST_LIMIT, f"1/{PAST_LIMIT}", "", "-h"]
# Values each type accepts, small enough that no invocation computes for long:
# --steps and --kmax stay below 5, --tol at or above 1/1024.
TAME = {cli._rational_arg: ["1/2", "1/4", "3/4", "1", "0", "3", "1/1024", "2/3"],
        cli._int_arg: ["1", "2", "4", "0", "3"]}
PAIRS = ["catalog:P2-line", "catalog:P1xP1-diag", "catalog:Fano-template", "catalog:nope",
         "pair.json", "criteria.json", "missing.json"]

PAIR_DOC = {"name": "P2", "dimension": 2, "L_top": "1", "cX_L": "3", "divisor": {"m": 1},
            "positivity": {"alpha_L": "1/3", "alpha_LD_restricted": "1/2"},
            "hilbert": {"kind": "projective_space"}}
CRITERIA_DOC = {"Sbeta": "-3", "alpha_beta": "1/2", "n": 2, "is_lc": True, "bullet2_nef": True}
# JSON values where a number, a string, a flag or a block belongs.
JSON_VALUES = [True, False, 1.5, [1], {}, None, "1/0", "x", "½", "-1", 0, -1, 3, 513,
               "1e3", PAST_LIMIT, f"1/{PAST_LIMIT}"]
HILBERT_BLOCKS = [{"kind": "grassmannian"}, {"kind": "explicit"},
                  {"kind": "explicit", "coefficients": "1"},
                  {"kind": "explicit", "coefficients": ["1", "3/2", "1/2"], "floor": 10001},
                  {"kind": "explicit", "coefficients": ["3/2", "3/2", "1/2"]},
                  {"kind": "explicit", "coefficients": ["1", "3/2", "1/2", "1"]},
                  {"kind": "projective_space", "floor": 5}, {"kind": "product_p1p1"}, []]


def run_in_scratch(argv: list[str], files: dict[str, bytes]) -> tuple[int, str, str]:
    """cli.run(argv) in a new directory holding files: (exit code, stdout, stderr)."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        for name, data in files.items():
            (Path(scratch) / name).write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        limit = get_limit()
        os.chdir(scratch)
        set_limit(DEFAULT_LIMIT)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run(argv)
        finally:
            set_limit(limit)
            os.chdir(here)
    return code, out.getvalue(), err.getvalue()


@st.composite
def documents(draw, base: dict) -> bytes:
    """base as JSON text after up to three edits: a key removed, a key added
    at the top or in a block, a value replaced; a hilbert block of
    HILBERT_BLOCKS; or the text itself broken, by a repeated key or as no
    JSON at all."""
    def fresh(values: list):  # a copy, which later edits may change
        return json.loads(json.dumps(draw(st.sampled_from(values))))

    doc = fresh([base])
    for _ in range(draw(st.integers(0, 3))):
        blocks = [doc, *(v for v in doc.values() if isinstance(v, dict))]
        block = draw(st.sampled_from(blocks))
        edit = draw(st.sampled_from(["remove", "add", "replace", "hilbert"]))
        if edit == "remove" and block:
            del block[draw(st.sampled_from(sorted(block)))]
        elif edit == "add":
            block[draw(st.sampled_from(["surprise", "m", "kind", "is_klt", "floor"]))] = fresh(
                JSON_VALUES)
        elif edit == "replace" and block:
            block[draw(st.sampled_from(sorted(block)))] = fresh(JSON_VALUES)
        elif edit == "hilbert" and "L_top" in base:
            doc["hilbert"] = fresh(HILBERT_BLOCKS)
    # PAST_LIMIT as a JSON number, not a string, where the edits put it.
    text = json.dumps(doc).replace(f'"{PAST_LIMIT}"', PAST_LIMIT, draw(st.integers(0, 1)))
    broken = draw(st.sampled_from([None, None, None, "repeat", "{", "", "[1]", "null", "bytes"]))
    if broken == "repeat":
        text = '{"n": 2, ' + text[1:] if text != "{}" else '{"n": 2, "n": 2}'
    elif broken == "bytes":
        return b"\xff" + text.encode()
    elif broken is not None:
        text = broken
    return text.encode()


@st.composite
def invocations(draw) -> tuple[list[str], dict[str, bytes]]:
    """argv for one _COMMANDS row, each argument present or not, its value
    tame or, one time in six, HOSTILE, in any order, one time in six with an
    extra hostile word; and a fuzzed pair file and criteria file beside it."""
    name, _, _, pair_input, arguments = draw(st.sampled_from(cli._COMMANDS))

    def value(options) -> str:
        if "choices" in options:
            tame = list(options["choices"])
        elif options.get("type") is None:
            tame = ["criteria.json", "pair.json", "missing.json", "list", "show", "P2-line"]
        else:
            tame = TAME[options["type"]]
        return draw(st.sampled_from(HOSTILE if draw(st.integers(0, 5)) == 5 else tame))

    pieces = [[value({"choices": PAIRS})]] if pair_input is not None else []
    for arg, options in arguments:
        if arg.startswith("-"):  # a required flag present seven times in eight, others in two
            if draw(st.integers(0, 7)) < (7 if options.get("required") else 4):
                pieces.append([arg, value(options)])
        elif options.get("nargs") != "?" or draw(st.booleans()):
            pieces.append([value(options)])
    if draw(st.integers(0, 5)) == 5:
        pieces.append([draw(st.sampled_from(HOSTILE))])
    argv = [name, *(word for piece in draw(st.permutations(pieces)) for word in piece)]
    files = {"pair.json": draw(documents(PAIR_DOC)),
             "criteria.json": draw(documents(CRITERIA_DOC))}
    return argv, files


@settings(max_examples=500, deadline=None)
@given(invocations())
@example((["df", "catalog:P2-line", "--c", "1/0", "--beta", "1/2"], {}))
@example((["window", "pair.json", "--case", "large", "--m", PAST_LIMIT], {}))
@example((["eta", "pair.json", "--beta", "½"], {"pair.json": b'{"name": "a", "name": "b"}'}))
@example((["info", "pair.json"], {"pair.json": json.dumps(
    dict(PAIR_DOC, dimension=True)).encode()}))
@example((["criteria", "--file", "criteria.json"], {"criteria.json": json.dumps(
    dict(CRITERIA_DOC, n=2.5)).encode()}))
@example((["oracle", "pair.json", "--c", "1/2"], {"pair.json": json.dumps(dict(
    PAIR_DOC, hilbert={"kind": "explicit", "coefficients": ["1", "3/2", "1/2"],
                       "floor": PAST_LIMIT})).replace(f'"{PAST_LIMIT}"', PAST_LIMIT).encode()}))
def test_hostile_input_exits_0_2_or_3(drawn):
    argv, files = drawn
    code, out, _ = run_in_scratch(argv, files)
    assert code in (EXIT_OK, EXIT_INCONCLUSIVE, EXIT_INPUT)
    assert code != EXIT_INPUT or out == ""


def _binomial_coefficients(i: int) -> list[Fraction]:
    """The coefficients of C(k, i) = k(k-1)...(k-i+1)/i! in powers of k."""
    poly = [Fraction(1)]
    for j in range(i):  # times (k - j)
        poly = [a - j * b for a, b in zip([Fraction(0), *poly], [*poly, Fraction(0)])]
    return [a / factorial(i) for a in poly]


@st.composite
def explicit_pair_files(draw) -> bytes:
    """A pair file whose explicit block the loader accepts: an integer-valued
    h_X(k) = sum_i D_i C(k, i) of degree n with D_n > 0, written in powers of
    k (with up to two trailing zeros), and the L^n and c1(X).L^(n-1) that
    Riemann-Roch reads off it. h_D may be negative anywhere."""
    n = draw(st.integers(2, 4))  # n = 1, which the oracle refuses, is an @example
    differences = [*draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n)),
                   draw(st.integers(1, 40))]
    coefficients = [Fraction(0)] * (n + 1)
    for D, row in zip(differences, map(_binomial_coefficients, range(n + 1))):
        coefficients = [a + D * b for a, b in zip(coefficients, [*row, *[0] * n])]
    top, below = differences[n], differences[n - 1]
    return json.dumps({
        "name": "explicit", "dimension": n, "L_top": str(top),
        "cX_L": str(2 * below - (n - 1) * top), "divisor": {"m": 1},
        "hilbert": {"kind": "explicit", "floor": draw(st.integers(0, 30)),
                    "coefficients": [str(a) for a in coefficients]
                    + ["0"] * draw(st.integers(0, 2))}}).encode()


@settings(max_examples=300, deadline=None)
@given(pair=explicit_pair_files(), c=st.tuples(st.integers(1, 11), st.integers(2, 12))
       .filter(lambda pq: pq[0] < pq[1]).map(lambda pq: f"{pq[0]}/{pq[1]}"),
       kmax=st.sampled_from([[], ["--kmax", "0"], ["--kmax", "5"], ["--kmax", "40"]]))
@example(pair=json.dumps({"name": "P1", "dimension": 1, "L_top": "1", "cX_L": "2",
                          "divisor": {"m": 1},
                          "hilbert": {"kind": "explicit", "coefficients": ["1", "1"]}}).encode(),
         c="1/2", kmax=[])
@example(pair=json.dumps({"name": "dip", "dimension": 2, "L_top": "1", "cX_L": "-5",
                          "divisor": {"m": 1}, "hilbert": {
                              "kind": "explicit", "coefficients": ["3", "-5/2", "1/2"]}}).encode(),
         c="1/2", kmax=[])  # h_D(1) = -2, h_D(2) = -1
def test_no_accepted_explicit_model_makes_oracle_exit_4(pair, c, kmax):
    assert run_in_scratch(["info", "pair.json"], {"pair.json": pair})[0] == EXIT_OK  # accepted
    code, out, err = run_in_scratch(["oracle", "pair.json", "--c", c, *kmax], {"pair.json": pair})
    assert code in (EXIT_OK, EXIT_INPUT), err
    assert code == EXIT_OK or out == ""
