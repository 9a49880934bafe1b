"""Exception types raised by the hopfharmonic package."""


class HopfError(Exception):
    """Base class for all package-specific errors."""


class InvalidFamily(HopfError):
    """Family parameters (tag, n, k) violate the admissibility constraints."""


class RadiusOutOfDomain(HopfError):
    """Tube radius lies outside the family's open admissible interval."""


class ExcludedRadius(HopfError):
    """Radius hits an isolated excluded value of an otherwise admissible interval."""


class UnsupportedFamily(HopfError):
    """Operation is defined only for the other space-form sign."""


class InvalidOrder(HopfError):
    """Polyharmonic order r must be an integer >= 2."""


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


class NoBiharmonicTube(HopfError):
    """No real biharmonic radius exists for these parameters."""
