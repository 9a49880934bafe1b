"""Exception types of the hopfharmonic package and the one input gate: the checks and
conversions that turn a number from outside into an int, Fraction, mpf or float64
array, or raise the ``HopfError`` the caller names.  A str, or a tuple mpmath reads as (man, exp), is refused.
It also owns the package's mpmath context ``mp`` (30 digits); ``mpmath.mp`` is never read or written.
"""

import math
import operator
from fractions import Fraction

import numpy as np
from mpmath import MPContext

mp = MPContext()
mp.dps = 30


class HopfError(Exception):
    """Base class for all package-specific errors."""


class InvalidFamily(HopfError, ValueError):
    """Family parameters (tag, n, k; a tube's n, p; a scan's p, n_max) are not admissible."""


class RadiusOutOfDomain(HopfError):
    """Tube radius lies outside the family's open admissible interval."""


class ExcludedRadius(HopfError):
    """Radius hits an isolated excluded value of an otherwise admissible interval."""


class UnsupportedFamily(HopfError):
    """Operation is defined only for the other space-form sign."""


class InvalidOrder(HopfError):
    """Polyharmonic order r must be an integer >= 2."""


class InvalidTolerance(HopfError, ValueError):
    """Tolerance must be a finite positive number."""


class InvalidRootSearch(HopfError, ValueError):
    """Exact-lane input is not a finite number, or a root search lacks a nonzero polynomial or lo < hi."""


class RootOutOfRange(HopfError):
    """Root value does not correspond to a non-degenerate tube radius."""


class ToleranceNotReached(HopfError):
    """Bisection refinement hit its step bound before reaching the tolerance."""


class ProbesCollide(HopfError):
    """Probe points are not strictly ordered inside (0, 1) for this r."""


class NoExactCountGuarantee(HopfError):
    """No exact-count threshold is available for these family parameters."""


class NotApplicable(HopfError):
    """Closed-form branch requires different parameter parity."""


def check_integer(value, name: str) -> int:
    """value as an int; ``InvalidFamily`` unless it is an integer other than a bool."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise InvalidFamily(f"{name} must be an integer, got {value!r}")


def check_order(r) -> int:
    """The polyharmonic order r as an int; ``InvalidOrder`` unless r is an integer >= 2."""
    try:
        if operator.index(r) >= 2:
            return operator.index(r)
    except TypeError:
        pass
    raise InvalidOrder(f"order r must be an integer >= 2, got {r!r}")


def check_tol(tol):
    """tol itself; ``InvalidTolerance`` unless it is a finite positive number."""
    try:
        if 0 < tol < math.inf:
            return tol
    except TypeError:
        pass
    raise InvalidTolerance(f"tolerance must be a finite positive number, got {tol!r}")


def to_fraction(value, error=InvalidRootSearch) -> Fraction:
    """Exact value of an int, float, numpy float, Fraction or mpf (all binary-exact); ``error`` if not one or not finite."""
    try:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (int, float)):
            return Fraction(value)
        if isinstance(value, np.floating):  # float32, float16, longdouble: Fraction refuses them
            return Fraction(*value.as_integer_ratio())
        if not isinstance(value, (str, tuple)) and mp.isfinite(x := mp.mpf(value)):
            sign, man, exp, _ = x._mpf_
            frac = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
            return -frac if sign else frac
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"not a finite number: {value!r}")


def to_mpf(value, error):
    """An int, float, numpy float, Fraction or mpf as an mpf at the working precision; ``error`` otherwise."""
    try:
        if isinstance(value, np.floating) and not isinstance(value, float):  # mp.mpf refuses float32
            value = to_fraction(value, error)
        if isinstance(value, Fraction):
            return mp.mpf(value.numerator) / mp.mpf(value.denominator)
        if not isinstance(value, (str, tuple)):
            return mp.mpf(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"not a real number: {value!r}")


def to_floats(values, error):
    """Real numbers, or nested lists or an array of them, as a float64 array; ``error`` otherwise."""
    try:
        arr = np.asarray(values)  # float() would read a str or bytes element of an object array
        if arr.dtype.kind not in "USc" and not (arr.dtype == object and any(isinstance(v, (str, bytes)) for v in arr.flat)):
            return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"not real numbers: {values!r}")
