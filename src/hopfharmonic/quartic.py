"""Exact quartic construction and certified real-root isolation.

The exact layer runs on integers.  A quartic's rational coefficients are
cleared to integers once; its square-free part and Sturm chain come from a
primitive pseudo-remainder sequence, and every sign is the sign of an
integer den^deg * P(num/den).  Isolation halves intervals and evaluates the
chain once per split.  Refinement carries its interval as two integer
numerators over one shared denominator: it jumps down bisection's dyadic
grid by secant steps verified with two signs, then finishes by bisection,
so each interval it returns is the one plain bisection returns.  Root
multiplicity is handled by counting on the square-free part.  Only the
final trigonometric back-substitution from a certified root to a tube
radius is numerical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from mpmath import mp

from ._rational import to_fraction, to_mpf
from .errors import (
    DegenerateLeadingCoefficient,
    InvalidOrder,
    RootOutOfRange,
    ToleranceNotReached,
    UnsupportedFamily,
)
from .families import FamilyTag, HypersurfaceFamily, radius_from_x
from .residual import residual

# Bound on the halvings of one isolation path, one refinement or one exact-root window.
_MAX_STEPS = 4000


# ---------------------------------------------------------------------------
# dense integer polynomials, low -> high degree
# ---------------------------------------------------------------------------

def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def _clear_to_ints(p):
    """Scale by the positive lcm of denominators; sign pattern is preserved."""
    lcm = math.lcm(*(c.denominator for c in p))
    return [c.numerator * (lcm // c.denominator) for c in p], lcm


def _int_value(ip, num: int, den: int) -> int:
    """den^deg * P(num/den) for an integer-coefficient polynomial."""
    acc = ip[-1]
    dpow = 1
    for c in reversed(ip[:-1]):
        dpow *= den
        acc = acc * num + c * dpow
    return acc


def _is_root(ip, x: Fraction) -> bool:
    return _int_value(ip, x.numerator, x.denominator) == 0


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _primitive(p):
    """p divided by the positive gcd of its coefficients."""
    g = math.gcd(*p)
    return [c // g for c in p]


def _pseudo_divmod(a, b):
    """Integer q, r with m * a = q * b + r, deg r < deg b, for some integer m > 0.

    This is pseudo-division with |lc(b)| in place of lc(b): each elimination
    step scales a by |lc(b)|, so r is a positive multiple of the rational
    remainder and q of the rational quotient.
    """
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    scale = abs(lead)
    q = [0] * max(len(a) - db, 0)
    while len(a) > db:
        factor = a[-1] if lead > 0 else -a[-1]
        shift = len(a) - 1 - db
        a = [scale * c for c in a]
        q = [scale * c for c in q]
        q[shift] = factor
        for i, c in enumerate(b):
            a[i + shift] -= factor * c
        a.pop()
        _trim(a)
    return q, a


def _square_free(ip):
    """Primitive square-free part of a nonzero integer polynomial.

    Its leading coefficient has the sign of ip's, so it is a positive
    multiple of ip divided by the monic gcd(ip, ip').
    """
    g, d = ip, _derivative(ip)
    while d:
        g, d = d, _pseudo_divmod(g, d)[1]
        if d:
            d = _primitive(d)
    if len(g) == 1:
        return _primitive(ip)
    quotient = _pseudo_divmod(ip, g if g[-1] > 0 else [-c for c in g])[0]
    return _primitive(quotient)


class _SturmChain:
    """Sturm chain of a square-free integer polynomial.

    Each element is a positive multiple of the element the rational
    Euclidean chain would hold, so every sign variation is the same.
    """

    def __init__(self, square_free):
        chain = [square_free]
        d = _derivative(square_free)
        if d:
            chain.append(_primitive(d))
            while len(chain[-1]) > 1:
                rem = _pseudo_divmod(chain[-2], chain[-1])[1]
                if not rem:
                    break
                chain.append(_primitive([-c for c in rem]))
        self._chain = chain

    def variations(self, x: Fraction) -> int:
        num, den = x.numerator, x.denominator
        signs = []
        for ip in self._chain:
            s = _sign(_int_value(ip, num, den))
            if s:
                signs.append(s)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def count(self, lo: Fraction, hi: Fraction) -> int:
        """Number of roots in the half-open (lo, hi], for lo < hi.

        Exact whatever the ends: a root at lo adds no variation (Sturm's
        theorem with zero signs dropped), and a root at hi is counted.
        """
        return self.variations(lo) - self.variations(hi)


# ---------------------------------------------------------------------------
# public quartic types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuarticPoly:
    """Quartic with exact rational coefficients, highest degree first.

    ``family`` and ``r`` tie a polynomial to the tube radii it certifies;
    they are None for free-standing polynomials.
    """

    a4: Fraction
    a3: Fraction
    a2: Fraction
    a1: Fraction
    a0: Fraction
    family: HypersurfaceFamily | None = None
    r: int | None = None

    def __post_init__(self):
        for name in ("a4", "a3", "a2", "a1", "a0"):
            object.__setattr__(self, name, to_fraction(getattr(self, name)))

    def coefficients(self) -> tuple:
        return (self.a4, self.a3, self.a2, self.a1, self.a0)

    def _low_to_high(self):
        return _trim([self.a0, self.a1, self.a2, self.a3, self.a4])

    @cached_property
    def _cleared(self):
        """Low-to-high coefficients cleared to integers, and their positive scale."""
        ints, lcm = _clear_to_ints(self._low_to_high())
        return tuple(ints), lcm

    def evaluate(self, x) -> Fraction:
        """Exact value at a rational (or binary-float) point, by integer Horner."""
        x = to_fraction(x)
        ints, lcm = self._cleared
        if not ints:
            return Fraction(0)
        return Fraction(_int_value(ints, x.numerator, x.denominator), lcm * x.denominator ** (len(ints) - 1))


@dataclass(frozen=True)
class RootCertificate:
    """Certified enclosure of one real root.

    The interval endpoints are exact rationals; the square-free part of the
    certified polynomial changes sign exactly once across the interval and
    its Sturm count over the interval is one.
    """

    isolating_interval: tuple
    refined_root: object
    radius: object = None
    residual_at_radius: object = None

    @property
    def midpoint(self) -> Fraction:
        lo, hi = self.isolating_interval
        return (lo + hi) / 2


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_quartic(family: HypersurfaceFamily, r: int) -> QuarticPoly:
    """Integer-coefficient quartic whose roots in (0, 1) correspond to proper
    r-harmonic tube radii of a projective family.

    Coefficients are polynomials in (n, k, r); the type-D linear coefficient
    is -(4r + 44), which is what the curvature data yields and what the exact
    boundary value P_D(1) = 25 requires.
    """
    if not family.is_projective:
        raise UnsupportedFamily(f"{family.tag.value} admits no proper polyharmonic tubes")
    if r < 2:
        raise InvalidOrder(f"order r must be >= 2, got {r}")
    n, k, tag = family.n, family.k, family.tag

    if tag is FamilyTag.CP_A1:
        coeffs = (
            4 * (n * n + 3 * n) * r - 8 * (n - 1),
            -2 * (2 * n * n + 11 * n + 3) * r + 4 * (n * n + 3 * n - 4),
            10 * (n + 1) * r - 2 * (3 * n - 5),
            -4 * r - 2 * (n + 1),
            1,
        )
    elif tag is FamilyTag.CP_A2:
        coeffs = (
            4 * (n * n + 3 * n) * r - 8 * (n - 1),
            -2 * (2 * n * n + (4 * k + 11) * n + 6 * k + 3) * r + 4 * (n * n - (2 * k - 3) * n - 4),
            2 * ((4 * k + 5) * n + 2 * k * k + 11 * k + 5) * r + 2 * ((2 * k - 3) * n + 4 * k * k + 4 * k + 5),
            -2 * (2 * k * k + 5 * k + 2) * r - 2 * ((2 * k + 1) * n + (2 * k + 1) ** 2),
            (2 * k + 1) ** 2,
        )
    elif tag is FamilyTag.CP_B:
        coeffs = (
            n * (n + 3) * r - 2 * (n - 1),
            -(n * n + 8 * n + 3) * r + 4 * n * n + 2 * n - 10,
            (5 * n + 7) * r - 2 * (5 * n - 11),
            -4 * r + 2 * (n - 7),
            4,
        )
    elif tag is FamilyTag.CP_C:
        coeffs = (
            n * (n + 3) * r - 2 * (n - 1),
            -(n * n + 7 * n + 6) * r + 4 * (n * n - 3 * n - 4),
            2 * (2 * n + 5) * r - 2 * (3 * n - 41),
            -4 * r + 4 * (n - 17),
            16,
        )
    elif tag is FamilyTag.CP_D:
        coeffs = (27 * r - 4, -48 * r + 11, 25 * r + 46, -(4 * r + 44), 16)
    else:
        coeffs = (135 * r - 14, -234 * r + 100, 117 * r + 184, -(18 * r + 180), 72)

    return QuarticPoly(*map(Fraction, coeffs), family=family, r=r)


def cauchy_bound(poly: QuarticPoly) -> Fraction:
    """1 + max |a_i / a4|: every root, real or complex, has modulus below it."""
    if poly.a4 == 0:
        raise DegenerateLeadingCoefficient("Cauchy bound needs a4 != 0")
    return 1 + max(abs(c / poly.a4) for c in (poly.a3, poly.a2, poly.a1, poly.a0))


# ---------------------------------------------------------------------------
# counting, isolation, refinement
# ---------------------------------------------------------------------------

def _prepare(poly: QuarticPoly, lo, hi):
    """Checked interval, integer coefficients, square-free part and its Sturm chain.

    Returns the coefficients cleared to integers with their positive scale,
    so P = ints / lcm.  The ends may be roots: the chain counts (lo, hi]
    exactly, and the callers drop a root at hi to count the open interval.
    """
    lo, hi = to_fraction(lo), to_fraction(hi)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {lo} >= {hi}")
    ints, lcm = poly._cleared
    if not ints:
        raise ValueError("the zero polynomial has no isolated roots")
    sf = _square_free(ints)
    return ints, lcm, sf, _SturmChain(sf), lo, hi


def count_real_roots(poly: QuarticPoly, lo, hi) -> int:
    """Exact number of distinct real roots in the open interval (lo, hi).

    The ends may be roots themselves; they are not counted.
    """
    _, _, sf, chain, lo, hi = _prepare(poly, lo, hi)
    return chain.count(lo, hi) - _is_root(sf, hi)


def _isolate_exact_root(chain, sf, m: Fraction, half: Fraction, tol: Fraction):
    """Shrink a symmetric window around a known rational root to Sturm count 1.

    m is the midpoint of an interval of half-width ``half``; the window
    starts at radius min(half, tol) / 2, so it stays inside that interval.
    """
    delta = min(half, tol) / 2
    for _ in range(_MAX_STEPS):
        lo, hi = m - delta, m + delta
        if not _is_root(sf, lo) and not _is_root(sf, hi) and chain.count(lo, hi) == 1:
            return lo, hi
        delta /= 2
    raise ToleranceNotReached(f"no window around the root {m} isolated it in {_MAX_STEPS} halvings")


def isolate_and_refine(poly: QuarticPoly, lo, hi, tol) -> list:
    """One certificate per distinct real root of poly in (lo, hi).

    Isolation halves (lo, hi) until each piece holds one root; each stack
    entry carries the chain's variations at its ends, so a split evaluates
    the chain only at its midpoint, and past ``_MAX_STEPS`` halvings it raises
    ``ToleranceNotReached``.  Each piece is then refined to the interval
    plain bisection would return: narrower than tol with the exact |P| at
    its midpoint at most tol.  When the certified polynomial carries a
    family, the tube radius and its residual are filled in.
    """
    tol_frac = to_fraction(tol)
    if tol_frac <= 0:
        raise ValueError("tol must be positive")
    ints, lcm, sf, chain, lo, hi = _prepare(poly, lo, hi)
    # Midpoints and exact-root windows are tested for roots, so only the
    # caller's ends can be roots, and of the right ends only hi.
    end_roots = tuple(x for x in (lo, hi) if _is_root(sf, x))
    variations = chain.variations
    intervals = []  # (lo, hi) each holding exactly one root, with nonzero signs at both ends
    stack = [(lo, hi, variations(lo), variations(hi), 0)]  # (a, b, V(a), V(b), halvings)
    while stack:
        a, b, va, vb, depth = stack.pop()
        cnt = va - vb - (b in end_roots)
        if cnt == 0:
            continue
        if cnt == 1 and a not in end_roots and b not in end_roots:
            intervals.append((a, b))
            continue
        if depth == _MAX_STEPS:
            raise ToleranceNotReached(f"isolation did not separate the roots in {_MAX_STEPS} halvings")
        m = (a + b) / 2
        if _is_root(sf, m):
            win = _isolate_exact_root(chain, sf, m, b - m, tol_frac)
            intervals.append(win)
            stack.append((a, win[0], va, variations(win[0]), depth + 1))
            stack.append((win[1], b, variations(win[1]), vb, depth + 1))
        else:
            vm = variations(m)
            stack.append((a, m, va, vm, depth + 1))
            stack.append((m, b, vm, vb, depth + 1))

    return [_refine(poly, ints, lcm, sf, chain, a, b, tol_frac) for a, b in sorted(intervals)]


def _first_stop_level(width: int, den: int, tol: Fraction) -> int:
    """Least level j >= 0 at which width / (den 2^j) < tol.

    Bisection's stop test needs that width, so it cannot pass at a lower level.
    """
    need, have = width * tol.denominator, tol.numerator * den
    j = max(need.bit_length() - have.bit_length(), 0)
    return j if have << j > need else j + 1


def _jump(sf, lo: int, hi: int, den: int, cap: int):
    """Follow bisection's cells toward the root in (lo/den, hi/den), at most cap levels down.

    At level j bisection holds the cell (lo 2^j + i w, lo 2^j + (i+1) w) / (den 2^j),
    w = hi - lo, that contains the root.  A secant step on the integer values
    of sf picks one of the 2^e sub-cells, and the signs at its two ends
    verify it: on a hit e doubles, on a miss one plain halving is made and e
    halves.  Every cell kept has strict opposite signs at its ends, so the
    root is inside and on no grid point of a coarser level: it is the cell
    bisection reaches, having met no exact root on the way.  A zero at a
    probe stops the jumps, and bisection goes on from the last cell kept.
    Returns that cell, its level and the sign of sf at its left end.
    """
    shift = len(sf) - 1  # den^deg scaling: doubling den multiplies a value by 2^shift
    f_lo, f_hi = _int_value(sf, lo, den), _int_value(sf, hi, den)
    w, level, e = hi - lo, 0, 1
    while level < cap:
        e = min(e, cap - level)
        k = (f_lo << e) // (f_lo - f_hi)  # secant root in sub-cell k of 2^e
        den_e = den << e
        a = (lo << e) + k * w
        fa, fb = _int_value(sf, a, den_e), _int_value(sf, a + w, den_e)
        if fa == 0 or fb == 0:
            break
        if (fa > 0) == (f_lo > 0) and (fb > 0) == (f_hi > 0):
            lo, hi, den, f_lo, f_hi = a, a + w, den_e, fa, fb
            level, e = level + e, 2 * e
            continue
        mid = lo + hi
        fm = _int_value(sf, mid, 2 * den)
        if fm == 0:
            break
        den *= 2
        if (fm > 0) == (f_lo > 0):
            lo, hi, f_lo, f_hi = mid, 2 * hi, fm, f_hi << shift
        else:
            lo, hi, f_lo, f_hi = 2 * lo, mid, f_lo << shift, fm
        level, e = level + 1, max(e // 2, 1)
    return lo, hi, den, level, _sign(f_lo)


def _refine(poly, ints, lcm, sf, chain, a: Fraction, b: Fraction, tol: Fraction):
    """Refine (a, b) to the interval plain bisection returns: narrower than tol, |P(mid)| <= tol.

    The interval is (lo/den, hi/den) in integers: the midpoint is
    (lo + hi) / 2den, and each step doubles all three and moves one end
    to lo + hi.  Both stopping tests are cross-multiplied, with P = ints / lcm.
    Below the first level where the width test can pass, ``_jump`` reaches
    bisection's cell by quadratic steps on the same grid; bisection
    finishes from there, and the jump levels count against its budget.
    """
    den = math.lcm(a.denominator, b.denominator)
    lo, hi = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
    tol_num, tol_den = tol.numerator, tol.denominator
    deg = len(ints) - 1
    cap = min(_first_stop_level(hi - lo, den, tol), _MAX_STEPS)
    lo, hi, den, levels, sign_lo = _jump(sf, lo, hi, den, cap)
    for _ in range(_MAX_STEPS - levels):
        mid, mid_den = lo + hi, 2 * den
        if (hi - lo) * tol_den < tol_num * den and (
            abs(_int_value(ints, mid, mid_den)) * tol_den <= tol_num * lcm * mid_den**deg
        ):
            a, b = Fraction(lo, den), Fraction(hi, den)
            break
        s = _sign(_int_value(sf, mid, mid_den))
        if s == 0:
            m, half = Fraction(mid, mid_den), Fraction(hi - lo, mid_den)  # m - lo/den = hi/den - m
            a, b = _isolate_exact_root(chain, sf, m, half, tol)
            break
        if s == sign_lo:
            lo, hi = mid, 2 * hi
        else:
            lo, hi = 2 * lo, mid
        den = mid_den
    else:
        raise ToleranceNotReached(f"bisection did not reach the requested tolerance in {_MAX_STEPS} steps")

    mid = (a + b) / 2
    root = to_mpf(mid)
    radius = None
    res = None
    if poly.family is not None and poly.r is not None and 0 < mid < 1:
        radius = root_to_radius(poly.family, root)
        res = residual(poly.family, radius, poly.r).residual
    return RootCertificate(
        isolating_interval=(a, b),
        refined_root=root,
        radius=radius,
        residual_at_radius=res,
    )


def root_to_radius(family: HypersurfaceFamily, x):
    """Tube radius for a root of the family's quartic; x must lie in (0, 1)."""
    xf = to_mpf(x)
    if not 0 < xf < 1:
        raise RootOutOfRange(f"x = {mp.nstr(xf, 12)} does not give a non-degenerate tube")
    return radius_from_x(family, xf)
