"""Exact polynomials of any degree and certified real-root isolation.

A polynomial is held once, as integer coefficients over one positive scale,
so every sign is the sign of an integer den^deg * P(num/den); the family
quartics are built with scale 1.  One primitive pseudo-remainder sequence
of P is its Sturm chain; only when roots repeat does its last element,
gcd(P, P'), give the square-free part, whose own sequence is then the chain.
One pass over the chain at a point gives its sign variations and whether
it is a root; isolation halves intervals and makes one pass per split.
Refinement is one loop over one cell of bisection's dyadic grid, two
integer numerators over a shared denominator: while the width test cannot
pass yet, a secant step verified with two signs jumps several levels down,
and otherwise one halving step moves one level, so each interval it
returns is the one plain bisection returns.  Only the final trigonometric
back-substitution from a certified root to a tube radius is numerical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InvalidRootSearch,
    InvalidTolerance,
    ToleranceNotReached,
    check_order,
    check_tol,
    to_fraction,
    to_mpf,
)
from .families import HypersurfaceFamily, check_family, quarter_turn, radius_from_x
from .residual import residual

root_to_radius = radius_from_x  # a root's tube radius, under the name bench/tracing.py looks up

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


def _int_value(ip, num: int, den: int) -> int:
    """den^deg * P(num/den) for an integer-coefficient polynomial."""
    acc = ip[-1]
    dpow = 1
    for c in reversed(ip[:-1]):
        dpow *= den
        acc = acc * num + c * dpow
    return acc


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


def _sturm_sequence(p):
    """Primitive Sturm sequence of a primitive integer polynomial p.

    Each element is a positive multiple of the element the rational
    Euclidean chain would hold, and the last is gcd(p, p') up to a factor.
    """
    seq = [p, _primitive(_derivative(p))] if len(p) > 1 else [p]
    while len(seq[-1]) > 1 and (rem := _pseudo_divmod(seq[-2], seq[-1])[1]):
        seq.append(_primitive([-c for c in rem]))
    return seq


class _SturmChain:
    """Sturm chain of the square-free part of a nonzero integer polynomial P.

    The sequence of P's primitive part is the chain when it ends in a
    constant; otherwise it ends in g = gcd(P, P'), and the chain is the
    sequence of the primitive part of P / g.  ``sf``, the chain's first
    element, has the sign of P's leading coefficient.
    """

    def __init__(self, ints):
        chain = _sturm_sequence(_primitive(ints))
        g = chain[-1]
        if len(g) > 1:
            chain = _sturm_sequence(_primitive(_pseudo_divmod(chain[0], g if g[-1] > 0 else [-c for c in g])[0]))
        self._chain = chain
        self.sf = chain[0]

    def at(self, x: Fraction):
        """(V, root) at x from one pass over the chain: V sign variations with zero signs dropped, root sf(x) == 0.

        V(lo) - V(hi) is the number of roots in the half-open (lo, hi], for
        lo < hi, exact whatever the ends: a root at lo adds no variation
        (Sturm's theorem with zero signs dropped), and a root at hi is counted.
        """
        num, den = x.numerator, x.denominator
        signs = [_sign(_int_value(ip, num, den)) for ip in self._chain]
        nonzero = [s for s in signs if s]
        return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b), signs[0] == 0


# ---------------------------------------------------------------------------
# public polynomial types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class QuarticPoly:
    """Exact polynomial of any degree, P = sum(ints[i] x^i) / scale.

    ``QuarticPoly(*coeffs)`` takes the coefficients highest degree first and
    clears them to integers once: ``ints`` holds them low to high, at the
    length given, and ``scale`` is the positive lcm of their denominators
    (1 for integer coefficients).  ``family`` and ``r`` tie a polynomial to
    the tube radii it certifies; they are None for free-standing polynomials.
    """

    ints: tuple
    scale: int
    family: HypersurfaceFamily | None
    r: int | None

    def __init__(self, *coeffs, family=None, r=None):
        if not coeffs:
            raise InvalidRootSearch("a polynomial needs at least one coefficient")
        ints, scale = coeffs[::-1], 1
        if not all(type(c) is int for c in ints):
            fracs = [to_fraction(c) for c in ints]
            scale = math.lcm(*(c.denominator for c in fracs))
            ints = tuple(c.numerator * (scale // c.denominator) for c in fracs)
        for name, value in (("ints", ints), ("scale", scale), ("family", family), ("r", r)):
            object.__setattr__(self, name, value)

    def coefficients(self) -> tuple:
        """Exact coefficients, highest degree first."""
        return tuple(Fraction(c, self.scale) for c in reversed(self.ints))

    def evaluate(self, x) -> Fraction:
        """Exact value at a rational (or binary-float) point, by integer Horner."""
        x = to_fraction(x)
        return Fraction(_int_value(self.ints, x.numerator, x.denominator), self.scale * x.denominator ** (len(self.ints) - 1))


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
    residual_report: object = None

    @property
    def residual_at_radius(self):
        """The residual value of ``residual_report``, or None without a family."""
        return None if self.residual_report is None else self.residual_report.residual


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_quartic(family: HypersurfaceFamily, r: int) -> QuarticPoly:
    """Integer-coefficient quartic whose roots in (0, 1) correspond to proper
    r-harmonic tube radii of a projective family.

    x^2 (1 - x)^2 times the residual at the radius of x is w P(x), w > 0.  A2
    (cot t and -tan t, multiplicities 2(n - 1 - k) and 2k, x = cos^2 t) has
    w = 1, and A1 is its row at k = 0.  B-E share cot(t - j pi/4), j = 1, 3,
    2, 0, multiplicities (a, a, b, b), x = cos^2 2t: one Q in (n, a, b, r) of
    content d, w = 4d; B, the pattern with a = n - 1 at pi/4 - t, is Q(1 - x).
    """
    check_family(family, projective=True)  # only CP^n has proper polyharmonic tubes
    r = check_order(r)
    n, pattern = family.n, quarter_turn(family)
    if pattern is None:  # A1 is the A2 row at k = 0
        k = family.k or 0
        coeffs = (
            4 * (n * n + 3 * n) * r - 8 * (n - 1),
            -2 * (2 * n * n + (4 * k + 11) * n + 6 * k + 3) * r + 4 * (n * n - (2 * k - 3) * n - 4),
            2 * ((4 * k + 5) * n + 2 * k * k + 11 * k + 5) * r + 2 * ((2 * k - 3) * n + 4 * k * k + 4 * k + 5),
            -2 * (2 * k * k + 5 * k + 2) * r - 2 * ((2 * k + 1) * n + (2 * k + 1) ** 2),
            (2 * k + 1) ** 2,
        )
    else:
        a, b, d, mirror = pattern
        aa, ab, bb = a * a, a * b, b * b
        q4 = n * (n + 3) * r - 2 * (n - 1)
        q3 = -(3 * aa + 4 * ab + 10 * a + bb + 5 * b + 4) * r - 4 * aa - 2 * a + 4 * bb + 12 * b + 4
        q2 = (3 * aa + 2 * ab + 5 * a) * r + 12 * aa - 2 * ab + 8 * a - 2 * b
        q1 = -(aa * r + 12 * aa - 2 * ab + 4 * a)
        q0 = 4 * aa
        if mirror:  # Q(1 - x): its x^i coefficient is (-1)^i sum_j C(j, i) q_j
            q0, q1 = q0 + q1 + q2 + q3 + q4, -(q1 + 2 * q2 + 3 * q3 + 4 * q4)
            q2, q3 = q2 + 3 * q3 + 6 * q4, -(q3 + 4 * q4)
        coeffs = (q4 // d, q3 // d, q2 // d, q1 // d, q0 // d)
    return QuarticPoly(*coeffs, family=family, r=r)


# ---------------------------------------------------------------------------
# counting, isolation, refinement
# ---------------------------------------------------------------------------

def _prepare(poly: QuarticPoly, lo, hi):
    """Checked interval, integer coefficients and the Sturm chain of their square-free part.

    Returns the integer coefficients, trimmed of leading zeros, so P = ints /
    poly.scale; the square-free part is the chain's ``sf``.  The ends may be
    roots: the chain counts (lo, hi] exactly, and the callers drop a root at
    hi to count the open interval.
    """
    lo, hi = to_fraction(lo), to_fraction(hi)
    if not lo < hi:
        raise InvalidRootSearch(f"need lo < hi, got {lo} >= {hi}")
    if not isinstance(poly, QuarticPoly):
        raise InvalidRootSearch(f"not a QuarticPoly: {poly!r}")
    ints = _trim(list(poly.ints))
    if not ints:
        raise InvalidRootSearch("the zero polynomial has no isolated roots")
    return ints, _SturmChain(ints), lo, hi


def count_real_roots(poly: QuarticPoly, lo, hi) -> int:
    """Exact number of distinct real roots in the open interval (lo, hi).

    The ends may be roots themselves; they are not counted.
    """
    _, chain, lo, hi = _prepare(poly, lo, hi)
    (v_lo, _), (v_hi, root_hi) = chain.at(lo), chain.at(hi)
    return v_lo - v_hi - root_hi


def _isolate_exact_root(chain, m: Fraction, half: Fraction, tol: Fraction):
    """Shrink a symmetric window around a known rational root to Sturm count 1.

    m is the midpoint of an interval of half-width ``half``; the window
    starts at radius min(half, tol) / 2, so it stays inside that interval.
    Returns (lo, hi, V(lo), V(hi)); neither end is a root.
    """
    delta = min(half, tol) / 2
    for _ in range(_MAX_STEPS):
        lo, hi = m - delta, m + delta
        (v_lo, root_lo), (v_hi, root_hi) = chain.at(lo), chain.at(hi)
        if not root_lo and not root_hi and v_lo - v_hi == 1:
            return lo, hi, v_lo, v_hi
        delta /= 2
    raise ToleranceNotReached(f"no window around the root {m} isolated it in {_MAX_STEPS} halvings")


def isolate_and_refine(poly: QuarticPoly, lo, hi, tol) -> list:
    """One certificate per distinct real root of poly in (lo, hi).

    Isolation halves (lo, hi) until each piece holds one root; each stack
    entry carries the chain's (V, root) at its ends, so a split makes one
    pass, at its midpoint, and past ``_MAX_STEPS`` halvings it raises
    ``ToleranceNotReached``.  Each piece is then refined to the interval
    plain bisection would return: narrower than tol with the exact |P| at
    its midpoint at most tol.  When the certified polynomial carries a
    family, the tube radius and its residual report are filled in.
    """
    tol_frac = to_fraction(check_tol(tol), InvalidTolerance)
    ints, chain, lo, hi = _prepare(poly, lo, hi)
    intervals = []  # (lo, hi) each holding exactly one root, with nonzero signs at both ends
    stack = [(lo, hi, *chain.at(lo), *chain.at(hi), 0)]  # (a, b, V(a), root(a), V(b), root(b), halvings)
    while stack:
        a, b, va, ra, vb, rb, depth = stack.pop()
        cnt = va - vb - rb
        if cnt == 0:
            continue
        if cnt == 1 and not ra and not rb:
            intervals.append((a, b))
            continue
        if depth == _MAX_STEPS:
            raise ToleranceNotReached(f"isolation did not separate the roots in {_MAX_STEPS} halvings")
        m = (a + b) / 2
        vm, rm = chain.at(m)
        if rm:
            w_lo, w_hi, v_lo, v_hi = _isolate_exact_root(chain, m, b - m, tol_frac)
            intervals.append((w_lo, w_hi))
            stack.append((a, w_lo, va, ra, v_lo, False, depth + 1))
            stack.append((w_hi, b, v_hi, False, vb, rb, depth + 1))
        else:
            stack.append((a, m, va, ra, vm, False, depth + 1))
            stack.append((m, b, vm, False, vb, rb, depth + 1))

    certs = []
    for a, b in sorted(intervals):
        a, b = _refine(ints, poly.scale, chain, a, b, tol_frac)
        mid = (a + b) / 2
        root = to_mpf(mid, InvalidRootSearch)
        radius = report = None
        if poly.family is not None and poly.r is not None and 0 < mid < 1:
            radius = root_to_radius(poly.family, root)
            report = residual(poly.family, radius, poly.r)
        certs.append(RootCertificate((a, b), root, radius=radius, residual_report=report))
    return certs


def _first_stop_level(width: int, den: int, tol: Fraction) -> int:
    """Least level j >= 0 at which width / (den 2^j) < tol.

    Bisection's stop test needs that width, so it cannot pass at a lower level.
    """
    need, have = width * tol.denominator, tol.numerator * den
    j = max(need.bit_length() - have.bit_length(), 0)
    return j if have << j > need else j + 1


def _refine(ints, lcm: int, chain: _SturmChain, a: Fraction, b: Fraction, tol: Fraction):
    """Refine (a, b) to the interval plain bisection returns: narrower than tol, |P(mid)| <= tol.

    One loop walks bisection's dyadic grid with one cell (lo/den, hi/den),
    f_lo and f_hi being the values of the square-free part sf at its ends
    scaled by den^deg; its width w = hi - lo stays fixed as each level
    doubles den.  Below ``cap``, the first level where the width test can
    pass, a turn tries a secant step: it picks one of 2^e sub-cells, and
    strict opposite signs at both ends make it bisection's cell e levels
    down, so no coarser grid point on the way was a root (a hit doubles e).
    A miss, or a turn at or past cap, makes the one halving step, which
    holds both stop tests (cross-multiplied, P = ints / lcm) and the
    exact-root window.  A zero at a secant probe sets cap to the level.
    Every level counts against ``_MAX_STEPS``.
    """
    sf = chain.sf
    deg, shift = len(ints) - 1, len(sf) - 1  # doubling den multiplies an sf value by 2^shift
    den = math.lcm(a.denominator, b.denominator)
    lo, hi = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
    f_lo, f_hi = _int_value(sf, lo, den), _int_value(sf, hi, den)
    w, tol_num, tol_den = hi - lo, tol.numerator, tol.denominator
    cap = min(_first_stop_level(w, den, tol), _MAX_STEPS)
    level, e = 0, 1
    while level < _MAX_STEPS:
        if level < cap:
            e = min(e, cap - level)
            k = (f_lo << e) // (f_lo - f_hi)  # secant root in sub-cell k of 2^e
            den_e = den << e
            sub = (lo << e) + k * w
            fa, fb = _int_value(sf, sub, den_e), _int_value(sf, sub + w, den_e)
            if fa == 0 or fb == 0:
                cap = level
            elif (fa > 0) == (f_lo > 0) != (fb > 0):  # f_hi has the other sign of f_lo
                lo, hi, den, f_lo, f_hi = sub, sub + w, den_e, fa, fb
                level, e = level + e, 2 * e
                continue
            else:
                e = max(e // 2, 1)
        mid, mid_den = lo + hi, 2 * den
        if w * tol_den < tol_num * den and (
            abs(_int_value(ints, mid, mid_den)) * tol_den <= tol_num * lcm * mid_den**deg
        ):
            return Fraction(lo, den), Fraction(hi, den)
        fm = _int_value(sf, mid, mid_den)
        if fm == 0:
            return _isolate_exact_root(chain, Fraction(mid, mid_den), Fraction(w, mid_den), tol)[:2]
        if (fm > 0) == (f_lo > 0):
            lo, hi, f_lo, f_hi = mid, 2 * hi, fm, f_hi << shift
        else:
            lo, hi, f_lo, f_hi = 2 * lo, mid, f_lo << shift, fm
        den, level = mid_den, level + 1
    raise ToleranceNotReached(f"bisection did not reach the requested tolerance in {_MAX_STEPS} steps")
