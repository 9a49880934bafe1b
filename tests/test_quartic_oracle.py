"""Sturm counts and certificates checked against sympy's root counting.

sympy shares no code with the integer Sturm chain, so agreement on random
quartics with repeated factors checks the square-free part, the chain and
the isolation together.  The counts are exact on the open interval whatever
its ends, so some ends are drawn on a root, 2^-33 from one, or beyond one.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Poly, Rational, Symbol

from hopfharmonic import QuarticPoly, count_real_roots, isolate_and_refine

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
def factored_quartics(draw):
    """Integer coefficients, low -> high, of a product of factors of degree <= 4,
    and the roots of its linear factors."""
    poly, roots = [draw(st.sampled_from([-3, -1, 1, 2]))], []
    for factor, times in draw(st.lists(st.tuples(_FACTOR, st.integers(1, 3)), min_size=1, max_size=4)):
        for _ in range(times):
            if len(poly) + len(factor) - 2 <= 4:
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


@settings(max_examples=200)
@given(st.data())
def test_counts_and_certificates_match_sympy(data):
    low_to_high, roots = data.draw(factored_quartics())
    lo, hi = data.draw(intervals(roots))
    sym = Poly(list(reversed(low_to_high)), Symbol("x"))
    sqf = sym.sqf_part()
    # sympy counts the closed interval; roots at the ends are not in (lo, hi)
    expected = sqf.count_roots(_rational(lo), _rational(hi))
    expected -= sum(sqf.eval(_rational(end)) == 0 for end in (lo, hi))

    poly = QuarticPoly(*reversed(low_to_high + [0] * (5 - len(low_to_high))))
    assert count_real_roots(poly, lo, hi) == expected
    certs = isolate_and_refine(poly, lo, hi, Fraction(1, 10**6))
    assert len(certs) == expected
    prev_hi = lo
    for cert in certs:
        a, b = cert.isolating_interval
        assert prev_hi <= a < b <= hi
        assert sqf.eval(_rational(a)) * sqf.eval(_rational(b)) < 0
        prev_hi = b
