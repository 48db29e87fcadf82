"""Polarised pairs, divisors, and the average scalar curvatures derived from them.

A pair is reduced to its intersection-number shadow: the dimension n, the
top self-intersection L^n, and c1(X).L^(n-1). Those three numbers determine
S_1, S^D and S_beta, which every stability criterion consumes. A resolved
pair (PairSource) may also carry a dimension model h_X(k), the section
counts the oracle sums; the models and the catalog pairs' own models live in
hilbert, which a catalog pair does not load. Every subcommand loads this
module, so it holds no handler: scalar's and catalog's live in scalar, with
the ScalarReport scalar prints, and info's in info, with its findings.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import InconsistentDataError, InputError
from .exactnum import format_rational

if TYPE_CHECKING:
    from .hilbert import HilbertModel
    from .thresholds import PositivityData

# Largest dimension of a pair: on P^512 the oracle takes 0.25 s at c = 1/2
# and 1.73 s at c = 99/100, in process, growing about as n^3
# (scripts/oracle_sweep.py, 2-core x86-64 VM, Python 3.11); see the README.
DIMENSION_LIMIT = 512


class _PairFields(NamedTuple):
    name: str
    dimension: int
    L_top: Fraction
    cX_L: Fraction
    proportional_x: Fraction | None = None


class PolarisedPair(_PairFields):
    """Intersection data of ((X, L); D).

    L_top is L^n and cX_L is c1(X).L^(n-1) = (-K_X).L^(n-1). When c1(X) is an
    exact rational multiple x of c1(L) (e.g. projective spaces, Fano pairs
    with L = -K_X), proportional_x records that coefficient; it then doubles
    as both nef thresholds lambda and Lambda. Every construction coerces the
    rationals to Fraction and checks them: L is ample, so L^n > 0, and n
    is an int in 1..DIMENSION_LIMIT.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        pair = super().__new__(cls, *args, **kwargs)
        integer(pair.dimension, "dimension", 1, DIMENSION_LIMIT)
        L_top, cX_L, x = Fraction(pair.L_top), Fraction(pair.cX_L), pair.proportional_x
        if L_top <= 0:
            raise InputError(f"L_top must be > 0 (L is ample), got {format_rational(L_top)}")
        if x is not None:
            x = Fraction(x)
            if cX_L != x * L_top:
                raise InconsistentDataError(
                    f"proportional_x={format_rational(x)} requires "
                    f"cX_L = x*L_top = {format_rational(x * L_top)}, "
                    f"got {format_rational(cX_L)}"
                )
        return pair._replace(L_top=L_top, cX_L=cX_L, proportional_x=x)

    def riemann_roch(self) -> tuple[Fraction, Fraction]:
        """(D_n, D_(n-1)) = (L^n, (c1(X).L^(n-1) + (n-1) L^n)/2): the top two
        forward differences at 0 of the two leading Riemann-Roch terms of h_X(k),
        (L^n/n!) k^n + (c1(X).L^(n-1)/(2(n-1)!)) k^(n-1), as
        HilbertModel.top_differences gives them for a model."""
        return self.L_top, (self.cX_L + (self.dimension - 1) * self.L_top) / 2


def integer(value: int, what: str, low: int | None = None, high: int | None = None) -> int:
    """value, once it is an int in low..high (a bound of None is absent): the
    one rule for every integer the library takes. An InputError names it by
    what, refusing first any type but int itself, so a bool, and an integral
    float or Fraction, too."""
    if type(value) is not int:
        raise InputError(f"{what} must be an int, got {value!r} ({type(value).__name__})")
    if low is not None and value < low:
        raise InputError(f"{what} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise InputError(f"{what} must be at most {high}, got {value}")
    return value


def multiplicity(m: int) -> int:
    """m, once it is an int >= 1 as the multiplicity of the divisor D in |mL|."""
    return integer(m, "divisor multiplicity", 1)


def avg_scalar_s1(pair: PolarisedPair) -> Fraction:
    """Average scalar curvature of (X, L): n * cX_L / L_top."""
    return pair.dimension * pair.cX_L / pair.L_top


def avg_scalar_sD(pair: PolarisedPair, m: int) -> Fraction:
    """Average scalar curvature of the polarised divisor D in |mL|.

    Adjunction gives (n-1) * (S_1/n - m). The m = 1 case is the standard
    hypersurface formula; m > 1 is a derived extension and is labelled as
    such in reports.
    """
    m, n = multiplicity(m), pair.dimension
    if n < 2:
        raise InputError("S^D needs n >= 2; the divisor is zero-dimensional for n = 1")
    return (n - 1) * (avg_scalar_s1(pair) / n - m)


def scalar_sbeta(pair: PolarisedPair, m: int, beta: Fraction) -> Fraction:
    """S_beta = S_1 - m*n*(1-beta), for D in |mL| and the cone angle 2*pi*beta."""
    return avg_scalar_s1(pair) - m * pair.dimension * (1 - beta)


def sD_provenance(m: int) -> str:
    """Report tag distinguishing the m = 1 formula from the derived extension."""
    if m == 1:
        return "adjunction, D in |L|"
    return f"derived extension (m={m})"


class PairSource(NamedTuple):
    """A resolved pair: a catalog entry or a pair file, with the multiplicity
    m of its divisor D in |mL|, and its positivity data and dimension model,
    each None where the source gives none. A catalog entry holds no model:
    hilbert.CATALOG_MODELS does, and cli.resolve_pair attaches it for oracle."""

    pair: PolarisedPair
    m: int
    positivity: PositivityData | None = None
    model: HilbertModel | None = None


# One row per PositivityData field, in --help order: (pair-file key, field,
# flag, metavar, help). The flag's dest is the field.
_POSITIVITY = (
    ("alpha_L", "alpha_L", "--alpha-L", "ALPHA_L",
     "alpha invariant of L (overrides the pair file)"),
    ("alpha_LD_restricted", "alpha_LD_restricted", "--alpha-LD", "ALPHA_LD",
     "alpha invariant of L_D restricted to D"),
    ("alpha_beta_override", "alpha_beta_override", "--alpha-beta", "ALPHA_BETA",
     "direct alpha_beta override"),
    ("lambda", "lam", "--lambda", "LAM", "nef threshold lambda"),
    ("Lambda", "Lambda_up", "--Lambda", "LAMBDA_UP", "nef threshold Lambda"),
    ("entropy_lower", "entropy_lower", "--entropy-lower", "ENTROPY_LOWER",
     "user lower bound for the entropy threshold"),
)


CATALOG: dict[str, PairSource] = {
    "P2-line": PairSource(
        pair=PolarisedPair("P2-line", 2, Fraction(1), Fraction(3), Fraction(3)),
        m=1,
    ),
    "P3-hyperplane": PairSource(
        pair=PolarisedPair("P3-hyperplane", 3, Fraction(1), Fraction(4), Fraction(4)),
        m=1,
    ),
    "P4-hyperplane": PairSource(
        pair=PolarisedPair("P4-hyperplane", 4, Fraction(1), Fraction(5), Fraction(5)),
        m=1,
    ),
    "P1xP1-diag": PairSource(
        pair=PolarisedPair("P1xP1-diag", 2, Fraction(2), Fraction(4), Fraction(2)),
        m=1,
    ),
    # Normalised shape of any Fano pair with L = -K_X: lambda = Lambda = 1 and
    # S_1 = n. Alpha invariants must be supplied by the user.
    "Fano-template": PairSource(
        pair=PolarisedPair("Fano-template", 2, Fraction(1), Fraction(1), Fraction(1)),
        m=1,
    ),
}


def catalog_entry(name: str) -> PairSource:
    try:
        return CATALOG[name]
    except KeyError:
        raise InputError(
            f"unknown catalog pair {name!r}; available: {', '.join(CATALOG)}"
        ) from None
