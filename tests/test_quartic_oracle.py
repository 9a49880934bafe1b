"""Sturm counts and certificates checked against sympy's root counting.

sympy shares no code with the integer Sturm chain, so agreement on random
quartics with repeated factors checks the square-free part, the chain and
the isolation together.
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


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@st.composite
def factored_quartics(draw):
    """Integer coefficients, low -> high, of a product of factors of degree <= 4."""
    poly = [draw(st.sampled_from([-3, -1, 1, 2]))]
    for factor, times in draw(st.lists(st.tuples(_FACTOR, st.integers(1, 3)), min_size=1, max_size=4)):
        for _ in range(times):
            if len(poly) + len(factor) - 2 <= 4:
                poly = _mul(poly, factor)
    return poly


@st.composite
def rational_intervals(draw):
    lo = Fraction(draw(st.integers(-24, 8)), draw(st.integers(1, 4)))
    return lo, lo + Fraction(draw(st.integers(1, 64)), draw(st.integers(1, 4)))


def _rational(x: Fraction):
    return Rational(x.numerator, x.denominator)


@settings(max_examples=200)
@given(factored_quartics(), rational_intervals())
def test_counts_and_certificates_match_sympy(low_to_high, interval):
    lo, hi = interval
    sym = Poly(list(reversed(low_to_high)), Symbol("x"))
    # roots at the endpoints take the ENDPOINT_EPS nudge, which sympy does not model
    assume(sym.eval(_rational(lo)) != 0 and sym.eval(_rational(hi)) != 0)
    sqf = sym.sqf_part()
    expected = sqf.count_roots(_rational(lo), _rational(hi))

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
