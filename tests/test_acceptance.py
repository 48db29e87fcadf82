"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (or `-s` to see the lines
inline). Every equality below is exact; tolerances appear only as interval
widths that are themselves part of the contract.
"""

import json
import random
import re
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from logklab.cli import run
from logklab.closedform import family, instability_threshold
from logklab.df import df_from_coefficients
from logklab.expansion import coefficients
from logklab.exactnum import format_rational, parse_rational
from logklab.info import FINDING_BOUND_SATURATED, validate_pair
from logklab.normalcone import critical_c, find_destabilizer
from logklab.pairmodel import CATALOG, avg_scalar_s1, avg_scalar_sD
from logklab.thresholds import (
    PositivityData,
    VerdictStatus,
    angle_window,
    beta_u,
    eta_feasibility,
    min_multiplicity_eta0,
)
from conftest import (
    ORACLE_MODELS,
    TRIANGULATION_BETAS,
    TRIANGULATION_CS,
    TRIANGULATION_PAIRS,
    finite_k_jna,
    flat,
    g_values,
    model_for,
    recovered,
)

HALF = Fraction(1, 2)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its runtime budget: {elapsed:.3f}s >= {budget_seconds}s"
    )
    print(f"criterion {number:02d} [{description}]: PASS ({elapsed:.3f}s < {budget_seconds}s)")


def test_criterion_01_instability_worked_example(p2):
    with criterion(1, "P2 worked example, DF = -1/48 via both paths", 1.0):
        assert avg_scalar_s1(p2) == 6
        assert validate_pair(p2) == [FINDING_BOUND_SATURATED]  # saturates n(n+1)
        assert avg_scalar_sD(p2, 1) == 2
        assert instability_threshold(p2) == 1
        co = coefficients(p2, HALF)
        assert (co.a0, co.a1, co.b0, co.b1, co.a0_tilde, co.b0_tilde) == (
            Fraction(1, 2), Fraction(3, 2), Fraction(-5, 48), Fraction(-3, 8),
            Fraction(1), Fraction(-1, 2))
        closed = family(p2, HALF).df(HALF).df
        via_coeffs = df_from_coefficients(co, HALF)
        assert closed == via_coeffs == Fraction(-1, 48)


def test_criterion_02_oracle_triangulation():
    with criterion(2, "coefficient recovery equals closed forms on the full grid", 10.0):
        for name in TRIANGULATION_PAIRS:
            pair = CATALOG[name].pair
            model = model_for(name)
            for c in TRIANGULATION_CS:
                recovered_coeffs = recovered(pair, model, c)
                closed = coefficients(pair, c)
                assert recovered_coeffs == closed, (name, c)
                for beta in TRIANGULATION_BETAS:
                    assert df_from_coefficients(recovered_coeffs, beta) == family(pair, c).df(beta).df


def test_criterion_03_flatness():
    with criterion(3, "d_k = h_X(k) for admissible k <= 60 on all catalog models", 2.0):
        for name, model in ORACLE_MODELS:
            for c in TRIANGULATION_CS:
                assert flat(CATALOG[name].pair, model, c), (name, c)


def test_criterion_04_g_range_and_sign_dichotomy():
    with criterion(4, "g-range, positivity at threshold, destabiliser below", 5.0):
        rng = random.Random(20260809)
        samples: dict[int, list[Fraction]] = {}
        for n in range(2, 7):
            cs = []
            for _ in range(1000):
                den = rng.randint(2, 10**6)
                cs.append(Fraction(rng.randint(1, den - 1), den))
            samples[n] = cs
            for g in g_values(n, cs):
                assert Fraction(-1, n) < g < 0
        for name, _ in ORACLE_MODELS:
            pair = CATALOG[name].pair
            threshold = instability_threshold(pair)
            for c in samples[pair.dimension]:
                assert family(pair, c).df(threshold).df > 0
            witness_c, witness_df = find_destabilizer(pair, threshold * Fraction(15, 16))
            assert 0 < witness_c < 1 and witness_df < 0


def test_criterion_05_affinity_in_beta():
    with criterion(5, "DF((b1+b2)/2) = (DF(b1)+DF(b2))/2 across the grid", 10.0):
        betas = TRIANGULATION_BETAS
        for name in TRIANGULATION_PAIRS:
            pair = CATALOG[name].pair
            for c in TRIANGULATION_CS:
                for b1 in betas:
                    for b2 in betas:
                        mid = (b1 + b2) / 2
                        assert 2 * family(pair, c).df(mid).df == (
                            family(pair, c).df(b1).df + family(pair, c).df(b2).df)


def test_criterion_06_jna_gate(p2, p2_model):
    with criterion(6, "oracle limit -b0/a0 equals the closed-form J^NA", 10.0):
        for name in TRIANGULATION_PAIRS:
            pair = CATALOG[name].pair
            model = model_for(name)
            for c in TRIANGULATION_CS:
                recovered_coeffs = recovered(pair, model, c)
                assert -recovered_coeffs.b0 / recovered_coeffs.a0 == family(pair, c).jna()
        assert family(p2, HALF).jna() == Fraction(5, 24)
        assert finite_k_jna(p2_model, HALF, [4, 10]) == [Fraction(7, 30), Fraction(29, 132)]
        gaps = [abs(jna_k - Fraction(5, 24))
                for jna_k in finite_k_jna(p2_model, HALF, list(range(2, 22, 2)))]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_criterion_07_window_coherence(p2):
    with criterion(7, "P2 windows, beta_u, and eta feasibility cohere", 1.0):
        pos = PositivityData(alpha_L=Fraction(1, 3), alpha_LD_restricted=Fraction(1, 2))
        uniform = angle_window(p2, pos, 4, "uniform")
        assert (uniform.lower, uniform.upper) == (Fraction(1, 4), Fraction(3, 8))
        assert uniform.lower_inclusive and not uniform.upper_inclusive
        large = angle_window(p2, pos, 4, "large")
        assert (large.lower, large.upper) == (0, Fraction(1, 4)) and large.upper_inclusive
        given = angle_window(p2, pos, 4, "given")
        assert (given.lower, given.upper) == (0, Fraction(3, 8)) and given.upper_inclusive
        assert beta_u(p2, pos, 4) == Fraction(3, 8)

        verdict = eta_feasibility(p2, pos, 4, Fraction(5, 16))
        assert verdict.status is VerdictStatus.CRITERION_SATISFIED
        assert verdict.eta_interval == (Fraction(1, 4), Fraction(1, 2))
        assert verdict.certificate == Fraction(3, 8)
        beyond = eta_feasibility(p2, pos, 4, Fraction(3, 8) + Fraction(1, 64))
        assert beyond.status is VerdictStatus.INCONCLUSIVE


def test_criterion_08_min_multiplicity_and_fano_corollary(p2, fano):
    with criterion(8, "minimal multiplicity and the Fano critical-angle formula", 5.0):
        assert min_multiplicity_eta0(p2, PositivityData(), HALF) == 7
        n, m = fano.dimension, 1
        assert avg_scalar_s1(fano) == n
        for alpha in (Fraction(2, 3), Fraction(1, 5), Fraction(1, 2), Fraction(9, 10)):
            pos = PositivityData(alpha_L=alpha, alpha_LD_restricted=alpha)
            # anticanonical corollary form of the critical angle at m = 1
            corollary = min(
                Fraction(1),
                1 - Fraction(1, m) + Fraction(n + 1, m * n) * min(alpha, m * alpha),
            )
            assert beta_u(fano, pos, m) == corollary
            # hypotheses hold automatically: windows come out without any
            # precondition failure for every alpha choice
            uniform = angle_window(fano, pos, m, "uniform")
            given = angle_window(fano, pos, m, "given")
            assert uniform.lower == 0
            assert given.upper == beta_u(fano, pos, m)
        pos = PositivityData(alpha_L=Fraction(2, 3), alpha_LD_restricted=Fraction(2, 3))
        assert beta_u(fano, pos, 1) == 1


def _bisect_quadratic_root(tol: Fraction) -> tuple[Fraction, Fraction]:
    """Independent oracle: root of 5u^2 - u - 1 in [1/2, 1] by plain bisection."""

    def f(u: Fraction) -> Fraction:
        return 5 * u * u - u - 1

    lo, hi = Fraction(1, 2), Fraction(1)
    assert f(lo) < 0 < f(hi)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_criterion_09_critical_c_isolation(p2):
    with criterion(9, "critical-c bracket agrees with the quadratic-root oracle", 1.0):
        tol = Fraction(1, 2**10)
        bracket = critical_c(p2, HALF, tol)
        assert bracket.hi - bracket.lo <= tol
        assert family(p2, bracket.lo).df(HALF).inner_factor > 0
        assert family(p2, bracket.hi).df(HALF).inner_factor < 0
        u_lo, u_hi = _bisect_quadratic_root(Fraction(1, 2**16))
        c_star_lo, c_star_hi = 1 - u_hi, 1 - u_lo
        # both intervals contain the same irrational root, so they overlap
        assert max(bracket.lo, c_star_lo) <= min(bracket.hi, c_star_hi)


ACCEPTANCE_COMMANDS = [
    (["info", "catalog:P2-line"], 0),
    (["scalar", "catalog:P2-line", "--beta", "5/16", "--m", "4"], 0),
    (["thresholds", "catalog:P2-line", "--m", "4",
      "--alpha-L", "1/3", "--alpha-LD", "1/2"], 0),
    (["window", "catalog:P2-line", "--m", "4", "--case", "uniform",
      "--alpha-L", "1/3", "--alpha-LD", "1/2"], 0),
    (["window", "catalog:P2-line", "--m", "4", "--case", "large",
      "--alpha-L", "1/3", "--alpha-LD", "1/2"], 0),
    (["window", "catalog:P2-line", "--m", "4", "--case", "given",
      "--alpha-L", "1/3", "--alpha-LD", "1/2"], 0),
    (["eta", "catalog:P2-line", "--m", "4", "--beta", "5/16",
      "--alpha-L", "1/3", "--alpha-LD", "1/2"], 0),
    (["entropy", "catalog:Fano-template", "--beta", "3/4", "--alpha-beta", "3/4"], 0),
    (["df", "catalog:P2-line", "--c", "1/2", "--beta", "1/2"], 0),
    (["df-curve", "catalog:P2-line", "--beta", "1/2", "--steps", "8"], 0),
    (["df-curve", "catalog:P1xP1-diag", "--beta", "1/4", "--steps", "6",
      "--format", "json"], 0),
    (["destabilize", "catalog:P1xP1-diag", "--beta", "1/4"], 0),
    (["destabilize", "catalog:P2-line", "--beta", "1"], 2),
    (["critical-c", "catalog:P2-line", "--beta", "1/2", "--tol", "1/1024"], 0),
    (["oracle", "catalog:P2-line", "--c", "1/2", "--kmax", "20"], 0),
    (["catalog", "list"], 0),
    (["catalog", "show", "P1xP1-diag"], 0),
]

_RATIONAL_TOKEN = re.compile(r"(?<![\d/.\w])-?\d+/\d+(?![\d/.\w])")


def test_criterion_10_determinism_and_round_trip(capsys, tmp_path):
    with criterion(10, "byte-identical reruns; every p/q token re-parses", 30.0):
        criteria_doc = {"Sbeta": "-3", "alpha_beta": "0", "n": 2,
                        "is_lc": True, "bullet2_nef": True}
        criteria_path = tmp_path / "criteria.json"
        criteria_path.write_text(json.dumps(criteria_doc))
        commands = ACCEPTANCE_COMMANDS + [(["criteria", "--file", str(criteria_path)], 0)]
        for argv, expected_code in commands:
            code_a = run(argv)
            out_a = capsys.readouterr()
            code_b = run(argv)
            out_b = capsys.readouterr()
            assert code_a == code_b == expected_code, argv
            assert out_a.out == out_b.out, argv
            assert out_a.err == out_b.err, argv
            for token in _RATIONAL_TOKEN.findall(out_a.out):
                assert format_rational(parse_rational(token)) == token, (argv, token)
