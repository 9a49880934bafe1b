"""Exception types raised by the hopfharmonic package, and the input checks that raise them."""

import math
import operator


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
    """A root count or isolation needs a nonzero polynomial and finite ends lo < hi."""


class DegenerateLeadingCoefficient(HopfError):
    """Quartic operation requires a nonzero leading coefficient."""


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


class DegenerateTube(HopfError):
    """Requested branch does not define a tube with radius in the open domain."""


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
