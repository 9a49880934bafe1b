"""Sturm counts and certificates checked against two oracles.

sympy shares no code with the integer Sturm chain, so agreement on random
polynomials of degree up to 4, and up to 7, with repeated factors checks the square-free part, the chain and
the isolation together.  The counts are exact on the open interval whatever
its ends, so some ends are drawn on a root, 2^-33 from one, or beyond one.

Refinement jumps along the bisection grid and must end on the interval that
plain bisection returns, bit for bit; a copy of plain isolation and
bisection is the reference for that, and rational Horner is the reference
for the integer evaluation of ``QuarticPoly.evaluate``.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Poly, Rational, Symbol

from hopfharmonic import QuarticPoly, count_real_roots, isolate_and_refine
from hopfharmonic.quartic import _MAX_STEPS, _int_value, _isolate_exact_root, _prepare, _sign


def _is_root(ip, x):
    return _int_value(ip, x.numerator, x.denominator) == 0


# factors low -> high degree: q + p x and c + b x + a x^2
_FACTOR = st.one_of(
    st.tuples(st.integers(-6, 6), st.integers(1, 4)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 4)),
)
_NEAR = Fraction(1, 2**33)


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@st.composite
def factored_quartics(draw, max_degree=4):
    """Integer coefficients, low -> high, of a product of factors of degree <= max_degree,
    and the roots of its linear factors."""
    poly, roots = [draw(st.sampled_from([-3, -1, 1, 2]))], []
    for factor, times in draw(st.lists(st.tuples(_FACTOR, st.integers(1, 3)), min_size=1, max_size=max_degree)):
        for _ in range(times):
            if len(poly) + len(factor) - 2 <= max_degree:
                poly = _mul(poly, factor)
                if len(factor) == 2:
                    roots.append(Fraction(-factor[0], factor[1]))
    return poly, roots


@st.composite
def intervals(draw, roots):
    """lo < hi; an end is free, or on a root of a linear factor or 2^-33 from it,
    and a second end may lie a random width beyond the first."""

    def end():
        if roots and draw(st.booleans()):
            return draw(st.sampled_from(roots)) + draw(st.sampled_from([0, _NEAR, -_NEAR]))
        return Fraction(draw(st.integers(-24, 8)), draw(st.integers(1, 4)))

    lo = end()
    if draw(st.booleans()):
        hi = end()
    else:
        hi = lo + Fraction(draw(st.integers(1, 64)), draw(st.integers(1, 4)))
    assume(lo != hi)
    return min(lo, hi), max(lo, hi)


def _rational(x: Fraction):
    return Rational(x.numerator, x.denominator)


@pytest.mark.parametrize("max_degree", [4, 7])
@settings(max_examples=200)
@given(data=st.data())
def test_counts_and_certificates_match_sympy(max_degree, data):
    # degree 7 is the largest degree of the resultant Res(P, P') as a polynomial in r
    low_to_high, roots = data.draw(factored_quartics(max_degree))
    lo, hi = data.draw(intervals(roots))
    sym = Poly(list(reversed(low_to_high)), Symbol("x"))
    sqf = sym.sqf_part()
    # sympy counts the closed interval; roots at the ends are not in (lo, hi)
    expected = sqf.count_roots(_rational(lo), _rational(hi))
    expected -= sum(sqf.eval(_rational(end)) == 0 for end in (lo, hi))

    poly = QuarticPoly(*reversed(low_to_high))
    # sympy's square-free part is primitive with a positive leading coefficient;
    # the chain's has the sign of the polynomial's
    sign = 1 if low_to_high[-1] > 0 else -1
    assert _prepare(poly, lo, hi)[1].sf == [sign * int(c) for c in reversed(sqf.all_coeffs())]
    assert count_real_roots(poly, lo, hi) == expected
    certs = isolate_and_refine(poly, lo, hi, Fraction(1, 10**6))
    assert len(certs) == expected
    prev_hi = lo
    for cert in certs:
        a, b = cert.isolating_interval
        assert prev_hi <= a < b <= hi
        assert sqf.eval(_rational(a)) * sqf.eval(_rational(b)) < 0
        prev_hi = b


# ---------------------------------------------------------------------------
# plain bisection as the reference for refinement
# ---------------------------------------------------------------------------

def _plain_bisection_intervals(poly, lo, hi, tol):
    """Isolating intervals from isolation by halving and refinement by plain bisection."""
    ints, chain, lo, hi = _prepare(poly, lo, hi)
    lcm, sf = poly.scale, chain.sf
    end_roots = tuple(x for x in (lo, hi) if _is_root(sf, x))
    intervals, stack = [], [(lo, hi)]
    while stack:
        a, b = stack.pop()
        cnt = chain.at(a)[0] - chain.at(b)[0] - (b in end_roots)
        if cnt == 0:
            continue
        if cnt == 1 and a not in end_roots and b not in end_roots:
            intervals.append((a, b))
            continue
        m = (a + b) / 2
        if _is_root(sf, m):
            win = _isolate_exact_root(chain, m, b - m, tol)[:2]
            intervals.append(win)
            stack += [(a, win[0]), (win[1], b)]
        else:
            stack += [(a, m), (m, b)]
    return [_plain_bisection(ints, lcm, sf, chain, a, b, tol) for a, b in sorted(intervals)]


def _plain_bisection(ints, lcm, sf, chain, a, b, tol):
    """Halve (a, b) until it is narrower than tol and |P(mid)| <= tol, or a midpoint is a root."""
    den = math.lcm(a.denominator, b.denominator)
    lo, hi = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
    deg = len(ints) - 1
    sign_lo = _sign(_int_value(sf, lo, den))
    for _ in range(_MAX_STEPS):
        mid, mid_den = lo + hi, 2 * den
        if (hi - lo) * tol.denominator < tol.numerator * den and (
            abs(_int_value(ints, mid, mid_den)) * tol.denominator <= tol.numerator * lcm * mid_den**deg
        ):
            return Fraction(lo, den), Fraction(hi, den)
        s = _sign(_int_value(sf, mid, mid_den))
        if s == 0:
            return _isolate_exact_root(chain, Fraction(mid, mid_den), Fraction(hi - lo, mid_den), tol)[:2]
        if s == sign_lo:
            lo, hi = mid, 2 * hi
        else:
            lo, hi = 2 * lo, mid
        den = mid_den
    raise AssertionError("the reference bisection ran out of steps")


def _poly(low_to_high):
    return QuarticPoly(*reversed(low_to_high + [0] * (5 - len(low_to_high))))


def _refined(poly, lo, hi, tol):
    return [cert.isolating_interval for cert in isolate_and_refine(poly, lo, hi, tol)]


_TOLS = st.builds(lambda base, k: Fraction(1, base**k), st.sampled_from([2, 10]), st.integers(1, 120))
_NON_DYADIC = st.builds(Fraction, st.integers(-1000, 1000), st.sampled_from([3, 5, 7, 10, 12, 45]))


@settings(max_examples=150)
@given(factored_quartics(), _NON_DYADIC, _NON_DYADIC, _TOLS)
def test_refinement_matches_plain_bisection(quartic, lo, hi, tol):
    assume(lo != hi)
    lo, hi = min(lo, hi) / 40, max(lo, hi) / 40
    poly = _poly(quartic[0])
    assert _refined(poly, lo, hi, tol) == _plain_bisection_intervals(poly, lo, hi, tol)


@settings(max_examples=150)
@given(st.data())
def test_exact_hits_near_the_first_stop_level_match_plain_bisection(data):
    # a linear factor's root on bisection's grid a few levels above or below
    # j0, the first level narrower than tol: the jumps must stop short of it
    # and leave the exact hit, or the stop at j0, to bisection
    low_to_high, _ = data.draw(factored_quartics())
    assume(len(low_to_high) <= 4)
    lo = data.draw(_NON_DYADIC) / 3
    width = Fraction(data.draw(st.integers(1, 64)), data.draw(st.sampled_from([3, 7, 10])))
    tol = data.draw(_TOLS)
    j0 = next(j for j in itertools.count() if width / 2**j < tol)
    level = max(j0 + data.draw(st.integers(-3, 3)), 1)
    root = lo + width * (2 * data.draw(st.integers(0, 2 ** (level - 1) - 1)) + 1) / 2**level
    poly = _poly(_mul(low_to_high, [-root, 1]))
    hi = lo + width
    assume(count_real_roots(poly, lo, hi) == 1)
    assert _refined(poly, lo, hi, tol) == _plain_bisection_intervals(poly, lo, hi, tol)


@pytest.mark.parametrize(
    "low_to_high,lo,hi,tol",
    [
        # bisection hits the root 1/2 + 2^-3000 as a midpoint at level 3000
        ([-(Fraction(1, 2) + Fraction(1, 2**3000)), 1], 0, 1, Fraction(1, 2**3100)),
        # about 3320 halvings, all but the last few of them jumps
        ([-2, 0, 1], 1, 2, Fraction(1, 10**1000)),
        # a tol wider than the isolating interval: bisection stops at once, and no jump comes first
        ([-3, 8], 0, 1, 2),
        # the first secant cell misses the root, and its sign test must read a value 1 as positive:
        # (1/2, 1) has 1 and 4 against -1 at 0, and (0, 1/2) has 4 and 1 against 1 at 0 (with
        # tol 1, a wrong jump into it would be returned at once)
        ([-1, 3, -1], 0, 1, Fraction(1, 10**6)),
        ([1, 0, -3], 0, 1, 1),
    ],
)
def test_deep_refinement_matches_plain_bisection(low_to_high, lo, hi, tol):
    poly = _poly(low_to_high)
    assert _refined(poly, lo, hi, tol) == _plain_bisection_intervals(poly, lo, hi, tol)


# ---------------------------------------------------------------------------
# rational Horner as the reference for evaluation
# ---------------------------------------------------------------------------

_RATIONALS = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))


@settings(max_examples=300)
@given(st.lists(st.one_of(st.just(Fraction(0)), _RATIONALS), min_size=5, max_size=5),
       st.one_of(_RATIONALS, st.integers(-50, 50), st.floats(-1e3, 1e3)))
def test_evaluate_matches_rational_horner(high_to_low, x):
    # zero leading coefficients give every degree from 4 down to the zero polynomial
    expected = Fraction(0)
    for c in high_to_low:
        expected = expected * Fraction(x) + c
    value = QuarticPoly(*high_to_low).evaluate(x)
    assert type(value) is Fraction and value == expected
