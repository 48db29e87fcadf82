"""Deformation to the normal cone of D in |L|: the destabiliser search and
the critical-angle root isolation, on the signs of the integer kernel.

The family blows up X x C along D x {0} and polarises by L - cP for a
rational blow-up parameter c in (0, 1). Everything here is for a divisor
D in |L| (multiplicity m = 1); callers refuse m > 1 rather than extrapolate.
Each search is checked against the Fraction closed form of closedform,
which the df, info and oracle routes load on their own. The sign kernel
lives in kernel, which the df-curve grid (curve) shares; df-curve loads
neither search. The destabilize and critical-c handlers live here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from .closedform import _pair_of, instability_threshold
from .errors import EXIT_OK, InputError, InternalCheckError, PreconditionFailedError
from .exactnum import format_rational
from .kernel import _Kernel, _kernel
from .pairmodel import PolarisedPair
from .tables import _fields


class CriticalBracket(NamedTuple):
    """Isolating interval for the root of the inner factor: the cell that two
    integer signs at the root estimate confirm, then the closed-form inner
    factors lo_inner > 0 > hi_inner (both 0 on a width-zero bracket).
    all_destabilizing marks beta <= 0, where every c in (0, 1) destabilises
    and no root exists; lo = hi = 0, inner factors None.
    """

    lo: Fraction
    hi: Fraction
    all_destabilizing: bool = False
    lo_inner: Fraction | None = None
    hi_inner: Fraction | None = None


# Bits of d^(n+1) at the deepest dyadic c = a/d, d = 2^depth, at which either
# search takes a sign: depth = SIGN_BITS_LIMIT // (n + 1), 60000 on P4, where
# critical_c at beta 1/2 and tol 2^-60000 takes about 0.25 s, and 584 at the
# dimension limit (2-core x86-64 VM, Python 3.11); see the README.
SIGN_BITS_LIMIT = 300000


def _depth(pair: PolarisedPair) -> int:
    """The largest j at which find_destabilizer or critical_c takes a sign at
    c = a/2^j; both refuse (InputError) a search that would go deeper."""
    return SIGN_BITS_LIMIT // (pair.dimension + 1)


def _past_depth(goal: str, pair: PolarisedPair) -> InputError:
    return InputError(f"{goal} needs a sign at c = a/2^j with j > {_depth(pair)}, the search "
                      f"depth in dimension {pair.dimension}")


def _not_below(beta: Fraction, threshold: Fraction, clause: str = "") -> PreconditionFailedError:
    return PreconditionFailedError(
        f"beta = {format_rational(beta)} is not below the instability threshold "
        f"{format_rational(threshold)}{clause}")


def _first_dyadic(sign: Callable[[int, int], int], want: int, near_one: bool, last: int) -> int:
    """The least j in 1..last with sign = want at c = 2^-j, or at 1 - 2^-j if
    near_one, or last + 1 if there is none; once sign = want it must stay so
    for larger j, as the monotone inner factor does. Gallops j = 1, 2, 4, ...
    (last caps the last probe), then halves the gap: about 2 log2 j signs,
    not j."""
    def holds(j: int) -> bool:
        d = 1 << j
        return sign(d - 1 if near_one else 1, d) == want

    lo, hi = 0, 1  # no j <= lo holds
    while hi < last and not holds(hi):
        lo, hi = hi, 2 * hi
    if hi >= last:
        if not holds(last):
            return last + 1
        hi = last
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def find_destabilizer(pair: PolarisedPair, beta: Fraction) -> tuple[Fraction, Fraction]:
    """Witness c in (0, 1) with DF(c, beta) < 0, refused where DF >= 0 on all of (0, 1).

    DF is the positive prefactor times the inner factor beta + s g(c),
    s = S^D/(n-1), which moves strictly and monotonically from beta (c -> 0)
    to beta - threshold (c -> 1), or stays at beta for s = 0. So e0 = beta
    and e1 = beta - threshold decide the set where DF < 0:

        e0 <= 0, e1 <= 0, not both 0   (0, 1)    c = 1/2, the first 1 - 2^-j
        e0 < 0 < e1                    (0, c*)   the first 2^-j in it
        e0 > 0 > e1                    (c*, 1)   the first 1 - 2^-j in it
        e0 >= 0, e1 >= 0               empty     refused

    _first_dyadic finds j on the integer signs of the pair's _Kernel among
    j <= _depth(pair); a set that no such j reaches, so within 2^-depth of
    0 or 1, is an InputError. The empty set, beta >= threshold, is refused
    as not below it (PreconditionFailedError), adding "DF > 0 for every c"
    for beta > 0. The witness's DF comes from the closed form (Family.df)
    and must be negative, or InternalCheckError is raised.
    """
    beta, constants = Fraction(beta), _pair_of(pair)
    threshold = constants.threshold()
    e0, e1 = beta, beta - threshold
    if e0 >= 0 and e1 >= 0:
        raise _not_below(beta, threshold, "; DF > 0 for every c in (0, 1)" if beta > 0 else "")
    near_one, depth = not e0 < 0 < e1, _depth(pair)
    j = _first_dyadic(_kernel(constants, beta).sign, -1, near_one, depth)
    if j > depth:
        raise _past_depth("finding a destabilising c", pair)
    c = Fraction((1 << j) - 1 if near_one else 1, 1 << j)
    df = constants.at(c).df(beta).df
    if not df < 0:
        raise InternalCheckError(f"sign kernel picked c = {format_rational(c)} but the closed "
                                 f"form gives DF = {format_rational(df)}, not < 0")
    return c, df


# Bits of the root estimate past the bracket's level K: its error, a few
# units in the last place, stays far below the half grid step that rounding
# to the nearest grid point needs.
_GUARD_BITS = 16


def _root_estimate(kernel: _Kernel, u0: Fraction, bits: int) -> int:
    """U with U/2^bits just below the root u* of Q in (0, 1).

    Integer Newton steps on f(u) = Q(u)/u^(n-1) = A u + B(1 + 1/u + ... +
    1/u^(n-1)), from the dyadic start u0 <= u*. With A > 0 > B, f is
    increasing and concave on u > 0, so each step from the left lands left
    of u* again and rounding the step down keeps it there. The precision
    doubles up to bits; at each level the steps run until one rounds to 0,
    which they must: each nonzero step raises U, and U stays below u* 2^p.
    The coarsest level holds u0 exactly (bits exceeds the bits of u0's
    denominator): a step is proportional to U, so none leaves U = 0.
    A point right of the root, f > 0, means the seeds came from signs this
    kernel does not share: InternalCheckError.
    """
    n, A, B = kernel.n, kernel.A, kernel.B
    levels = [bits]
    while (levels[-1] + 1) // 2 >= u0.denominator.bit_length() + 64:
        levels.append((levels[-1] + 1) // 2)
    p = levels[-1]
    U = (u0.numerator << p) // u0.denominator
    for level in reversed(levels):
        U <<= level - p
        p = level
        while True:
            # With S = 2^p: v = S^n Q(U/S), dv = S^(n-1) Q'(U/S), by
            # homogeneous Horner.
            S, Sk, v, dv = 1 << p, 1, A, 0
            for _ in range(n):
                Sk *= S
                dv = dv * U + v
                v = v * U + B * Sk
            if v > 0:
                raise InternalCheckError(f"a Newton iterate lies right of the root that the "
                                         f"seed signs put right of u = {format_rational(u0)}")
            # f/f' = Q u/(Q' u - (n-1) Q); the denominator is S^n u^n f'(u) > 0.
            step = -v * U // (dv * U - (n - 1) * v)
            if not step:
                break
            U += step
    return U


def critical_c(pair: PolarisedPair, beta: Fraction, tol: Fraction) -> CriticalBracket:
    """Isolate the unique root c* of the inner factor to width <= tol: the
    bracket a bisection of the seed bracket would return, reached from an
    estimate of c* instead.

    Needs 0 < beta < threshold = s/n, s = S^D/(n-1). On (0, 1) the inner
    factor has the sign of the integer polynomial
    Q(u) = n(beta+s) u^n + (n beta - s)(1 + u + ... + u^(n-1)) at u = 1 - c.
    One _Kernel gives every sign below, on integers, and the estimate. Here
    n beta - s < 0 < n(beta+s), so Descartes' rule gives Q exactly one
    positive root, and Q(0) < 0 < n(n+1) beta = Q(1) puts it in (0, 1).

    The least j and i with inner > 0 at 2^-j and < 0 at 1 - 2^-i, found by
    _first_dyadic's galloping, seed the bracket [lo0, hi0]/2^k0. Halving
    keeps the numerator width w = hi0 - lo0, so at the first level K with
    w/2^K <= tol the bisection's bracket is the cell
    [x0 + t w, x0 + (t+1) w]/2^K, x0 = lo0 2^(K-k0), 0 <= t < 2^(K-k0), and
    only t is unknown. _root_estimate gives c* 2^K to _GUARD_BITS more bits.
    The grid point nearest it is probed, then its neighbour on the root's
    side: inner > 0 at the cell's lo and < 0 at its hi certify the cell
    (seed ends are not probed again). So the sign count is the seed probes
    plus at most 2, and the work grows with about log K Newton steps. A sign
    of exactly 0 marks the root, returned as a width-zero bracket; every
    interior grid point is a midpoint the bisection reaches first, so this
    too is the bisection's bracket, as the same reduced Fractions. Two
    probes that confirm no cell mean that the estimate and the signs
    disagree: InternalCheckError (a correct estimate rules it out).

    The closed form's inner factor (Family.inner) at both ends is the second
    path: it must be > 0 at lo and < 0 at hi, or 0 on a width-zero bracket
    (InternalCheckError otherwise). beta <= 0 means every c destabilises:
    the (0, 0) sentinel with all_destabilizing is returned.

    No sign is taken at c = a/2^j with j > _depth(pair): tol below 2^-depth
    is refused before the pair is read, and a seed or a level K past depth
    before any sign there (InputError).
    """
    beta, tol, depth = Fraction(beta), Fraction(tol), _depth(pair)
    if tol <= 0:
        raise InputError(f"tol must be positive, got {format_rational(tol)}")
    if tol.numerator << depth < tol.denominator:
        raise InputError(f"tol must be at least 2^-{depth}")
    constants = _pair_of(pair)
    threshold = constants.threshold()
    if beta >= threshold:
        raise _not_below(beta, threshold)
    if beta <= 0:
        return CriticalBracket(Fraction(0), Fraction(0), all_destabilizing=True)
    kernel = _kernel(constants, beta)
    sign = kernel.sign
    # inner tends to beta > 0 as c -> 0 and to beta - threshold < 0 as c -> 1.
    j = _first_dyadic(sign, 1, near_one=False, last=depth)
    i = _first_dyadic(sign, -1, near_one=True, last=depth)
    k0 = max(i, j)  # past depth if a seed is
    lo0 = 1 << (k0 - j)
    width = (1 << k0) - (1 << (k0 - i)) - lo0
    # The first K >= k0 with width * tol.denominator <= tol.numerator * 2^K.
    K = max(k0, (-(-width * tol.denominator // tol.numerator) - 1).bit_length())
    if K > depth:
        raise _past_depth("isolating the critical c to within tol", pair)
    x0, d = lo0 << (K - k0), 1 << K
    lo_t, hi_t = 0, 1 << (K - k0)  # signs known: > 0 at lo_t, < 0 at hi_t
    if hi_t > 1:
        # u* > 2^-i, and u* >= 1 - 2^-(j-1) once j > 1.
        u0 = max(Fraction(1, 1 << i), 1 - Fraction(2, 1 << j))
        bits = K + _GUARD_BITS
        U = _root_estimate(kernel, u0, bits)
        # The grid index nearest c* 2^K = (2^bits - U)/2^_GUARD_BITS.
        num = (1 << bits) - U - (x0 << _GUARD_BITS)
        den = width << _GUARD_BITS
        nearest = (2 * num + den) // (2 * den)
        for _ in range(2):  # the nearest grid point, then its neighbour on the root's side
            t = min(max(nearest, lo_t + 1), hi_t - 1)
            v = sign(x0 + t * width, d)
            if v > 0:
                lo_t = t
            elif v < 0:
                hi_t = t
            else:
                # Rational root hit exactly: a width-zero bracket is valid.
                lo_t = hi_t = t
            if hi_t - lo_t <= 1:
                break
        else:
            raise InternalCheckError("the two signs at the root estimate confirm no cell")
    lo, hi = Fraction(x0 + lo_t * width, d), Fraction(x0 + hi_t * width, d)
    lo_inner, hi_inner = constants.at(lo).inner(beta), constants.at(hi).inner(beta)
    if not (lo_inner > 0 > hi_inner or lo == hi and lo_inner == 0):
        raise InternalCheckError(
            f"closed-form inner factor does not change sign across the bracket "
            f"[{format_rational(lo)}, {format_rational(hi)}]")
    return CriticalBracket(lo, hi, lo_inner=lo_inner, hi_inner=hi_inner)


def _cmd_destabilize(ns) -> tuple[int, Iterable[str]]:
    pair = ns.source.pair
    c, df = find_destabilizer(pair, ns.beta)
    threshold = instability_threshold(pair)
    return EXIT_OK, [_fields([
        ("instability threshold", threshold),
        ("witness c", c),
        (f"DF(c, beta={format_rational(ns.beta)}) = {format_rational(df)} < 0",
         "pair is log K-unstable at this angle"),
    ])]


def _cmd_critical_c(ns) -> tuple[int, Iterable[str]]:
    bracket = critical_c(ns.source.pair, ns.beta, ns.tol)
    if bracket.all_destabilizing:
        return EXIT_OK, [
            "every c in (0, 1) destabilises at this angle (beta <= 0); sentinel (0, 0)\n"]
    return EXIT_OK, [_fields([
        ("isolating interval", [bracket.lo, bracket.hi]),
        ("width", f"{format_rational(bracket.hi - bracket.lo)} (<= tol {format_rational(ns.tol)})"),
        ("inner factor at lo", bracket.lo_inner),
        ("inner factor at hi", bracket.hi_inner),
    ])]
