"""Exact conversions between rationals and mpmath floats."""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp


def to_mpf(value):
    """Convert int/float/Fraction/mpf to an mpf at the current precision."""
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / mp.mpf(value.denominator)
    return mp.mpf(value)


def to_fraction(value) -> Fraction:
    """Exact rational value of an int/float/Fraction/mpf (all binary-exact); not a str."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float)):
        return Fraction(value)
    if isinstance(value, str):  # mp.mpf would round it to the working precision
        raise TypeError(f"a string is not an exact number: {value!r}")
    x = mp.mpf(value)
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if x == 0:
            return Fraction(0)
        raise ValueError(f"cannot convert non-finite value {x!r} to a rational")
    frac = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -frac if sign else frac
