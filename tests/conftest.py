from fractions import Fraction

import pytest

from logklab.exactnum import parse_rational
from logklab.closedform import NormalConeCoefficients, _pair_of
from logklab.normalcone import _Kernel, _kernel
from logklab.pairmodel import CATALOG, PolarisedPair
from logklab.weightoracle import HilbertModel, oracle_report, sum_samples


@pytest.fixture
def p2():
    return CATALOG["P2-line"].pair


@pytest.fixture
def p3():
    return CATALOG["P3-hyperplane"].pair


@pytest.fixture
def p1xp1():
    return CATALOG["P1xP1-diag"].pair


@pytest.fixture
def fano():
    return CATALOG["Fano-template"].pair


@pytest.fixture
def p2_model():
    return HilbertModel.projective_space(2)


# (pair name, model) for every catalog entry with a dimension model
ORACLE_MODELS = [
    ("P2-line", HilbertModel.projective_space(2)),
    ("P3-hyperplane", HilbertModel.projective_space(3)),
    ("P4-hyperplane", HilbertModel.projective_space(4)),
    ("P1xP1-diag", HilbertModel.product_p1p1()),
]

# criterion-2 oracle triangulation grid
TRIANGULATION_PAIRS = ["P2-line", "P3-hyperplane", "P1xP1-diag"]
TRIANGULATION_CS = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]
TRIANGULATION_BETAS = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]


def g_values(n: int, cs) -> list[Fraction]:
    """g(c) at each c of cs in dimension n, read off the closed form as the
    commands run it: the inner factor beta + s g(c), Family.inner, at beta = 0,
    over s, on the hyperplane pair of P^n (s > 0)."""
    constants = _pair_of(PolarisedPair(f"P{n}-hyperplane", n, 1, n + 1))
    return [constants.at(c).inner(Fraction(0)) / constants.s for c in cs]


def recovered(pair, model, c) -> NormalConeCoefficients:
    """The coefficients the oracle recovers from its walked samples, as
    oracle_report prints them, parsed back."""
    fields = oracle_report(pair, model, c)["recovered"]
    return NormalConeCoefficients(**{key: value if key == "n" else parse_rational(value)
                                     for key, value in fields.items()})


def flat(pair, model, c, k_max: int = 60) -> bool:
    """The flatness identity d_k = h_X(k) on every sample oracle_report lists up to k_max."""
    samples = oracle_report(pair, model, c, k_max)["samples"]
    return all(sample["d_k"] == model.h_total(sample["k"]) for sample in samples)


def finite_k_jna(model, c, ks) -> list[Fraction]:
    """J_k = -w_k/(k d_k) of the walked sample at each k of ks: the gap between
    the maximal weight 0 and the average, which tends to J^NA = -b0/a0."""
    return [-sample.w_k / (sample.k * sample.d_k) for sample in sum_samples(model, c, ks)]


def model_for(name: str) -> HilbertModel:
    for entry_name, model in ORACLE_MODELS:
        if entry_name == name:
            return model
    raise KeyError(name)


# Corrupted integer signs, (true signs, pair, beta) -> signs, for the
# critical-c cross-check tests; true_signs is the first argument they get.
# A (pair, beta) -> signs function gives the signs at c = a/d as (a, d) -> sign.

_SIGN = _Kernel.sign  # before any test patches it


def true_signs(pair, beta):
    kernel = _kernel(_pair_of(pair), Fraction(beta))
    return lambda a, d: _SIGN(kernel, a, d)


def corrupt_signs(monkeypatch, corrupt, pair, beta):
    """Make every _Kernel answer its sign calls with corrupt's signs for
    (pair, beta), while its coefficients, and so the root estimate, stay true."""
    wrong = corrupt(true_signs, pair, beta)
    monkeypatch.setattr(_Kernel, "sign", lambda kernel, a, d: wrong(a, d))


def _kernel_at_half_beta(real, pair, beta):
    # The bracket lands on the root for beta/2, where the closed form at the
    # true beta is still positive at hi.
    return real(pair, beta / 2)


def _kernel_claiming_root(real, pair, beta):
    # Zero from denominator 8 on, so at the first probe past the seeds (2 and
    # 4 for P2 at beta 1/2): a width-zero bracket on a point that is not a root.
    sign = real(pair, beta)
    return lambda a, d: sign(a, d) if d < 8 else 0
