"""Principal-curvature data of the homogeneous Hopf hypersurface families.

Each family is a one-parameter family of tubes in CP^n(4) or CH^n(-4); the
spectrum of the shape operator at radius t consists of the Hopf curvature
alpha together with a short list of (principal curvature, multiplicity)
branches.  All numeric evaluation goes through mpmath so that downstream
residual tolerances of 1e-12 keep ample headroom; the distinguished radii
(minimal tubes, order-independent tubes) are exact rationals in the
family's own algebraic variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
from mpmath import mp

from ._rational import to_mpf
from .errors import (
    ExcludedRadius,
    InvalidFamily,
    RadiusOutOfDomain,
    RootOutOfRange,
    UnsupportedFamily,
    check_integer,
)


class FamilyTag(str, Enum):
    """Names of the homogeneous Hopf hypersurface families."""

    CH_A0 = "CH_A0"
    CH_A1_GEODESIC = "CH_A1_geodesic"
    CH_A1_POINT = "CH_A1_point"
    CH_A2 = "CH_A2"
    CH_B = "CH_B"
    CP_A1 = "CP_A1"
    CP_A2 = "CP_A2"
    CP_B = "CP_B"
    CP_C = "CP_C"
    CP_D = "CP_D"
    CP_E = "CP_E"


class Substitution(str, Enum):
    """Algebraic variable x in which a projective family's radii are rational."""

    SIN2_T = "sin^2(t)"
    COS2_T = "cos^2(t)"
    COS2_2T = "cos^2(2t)"


# The projective families, each with its radius variable; the cos^2(2t)
# families live on the quarter domain (0, pi/4).
_SUBSTITUTION = {
    FamilyTag.CP_A1: Substitution.SIN2_T,
    FamilyTag.CP_A2: Substitution.COS2_T,
    FamilyTag.CP_B: Substitution.COS2_2T,
    FamilyTag.CP_C: Substitution.COS2_2T,
    FamilyTag.CP_D: Substitution.COS2_2T,
    FamilyTag.CP_E: Substitution.COS2_2T,
}


# Admissible parameters per family: (least n, step between admissible n with
# 0 for a single n, whether k is taken with 1 <= k <= n - 2).  Takagi's list
# for CP^n (n = 1 is the curve case of A1) and Berndt's classification for CH^n.
_ADMISSIBLE = {
    FamilyTag.CH_A0: (2, 1, False),
    FamilyTag.CH_A1_GEODESIC: (2, 1, False),
    FamilyTag.CH_A1_POINT: (2, 1, False),
    FamilyTag.CH_A2: (3, 1, True),
    FamilyTag.CH_B: (2, 1, False),
    FamilyTag.CP_A1: (1, 1, False),
    FamilyTag.CP_A2: (3, 1, True),
    FamilyTag.CP_B: (2, 1, False),
    FamilyTag.CP_C: (5, 2, False),
    FamilyTag.CP_D: (9, 0, False),
    FamilyTag.CP_E: (15, 0, False),
}


@dataclass(frozen=True)
class HypersurfaceFamily:
    """One homogeneous family: space form, type tag and dimension parameters.

    ``k`` is meaningful only for the A2 families (tube over a totally geodesic
    complex subspace of complex dimension k); everywhere else it must be None.
    """

    tag: FamilyTag
    n: int
    k: int | None = None

    def __post_init__(self):
        tag = self.tag
        if not isinstance(tag, FamilyTag):
            try:
                tag = FamilyTag(tag)
            except ValueError:
                raise InvalidFamily(f"not a family tag: {tag!r}") from None
            object.__setattr__(self, "tag", tag)
        n = check_integer(self.n, "n")
        k = None if self.k is None else check_integer(self.k, "k")
        object.__setattr__(self, "n", n)  # an np.int64 n would overflow the exact lane
        object.__setattr__(self, "k", k)
        n_min, step, takes_k = _ADMISSIBLE[tag]
        if not (n == n_min if step == 0 else n >= n_min and (n - n_min) % step == 0):
            need = f"n = {n_min}, {n_min + step}, ..." if step else f"n = {n_min}"
            raise InvalidFamily(f"{tag.value} needs {need}, got n={n}")
        if takes_k != (k is not None) or (takes_k and not 1 <= k <= n - 2):
            need = "1 <= k <= n-2" if takes_k else "no parameter k"
            raise InvalidFamily(f"{tag.value} takes {need}, got n={n}, k={k}")

    @property
    def is_projective(self) -> bool:
        return self.tag in _SUBSTITUTION

    @property
    def space_form_sign(self) -> int:
        """+1 for CP^n(4), -1 for CH^n(-4)."""
        return 1 if self.is_projective else -1

    @property
    def substitution(self) -> Substitution | None:
        return _SUBSTITUTION.get(self.tag)

    def radius_domain(self):
        """Open interval of admissible radii as mpf bounds, or None (horosphere)."""
        if self.tag is FamilyTag.CH_A0:
            return None
        if not self.is_projective:
            return (mp.mpf(0), mp.inf)
        if self.substitution is Substitution.COS2_2T:
            return (mp.mpf(0), mp.pi / 4)
        return (mp.mpf(0), mp.pi / 2)

    @property
    def excluded_radius(self):
        """Isolated forbidden radius inside the domain (CH_B only)."""
        if self.tag is FamilyTag.CH_B:
            return mp.log(2 + mp.sqrt(3)) / 2
        return None


def fixed_dimension(tag: FamilyTag) -> int | None:
    """The one admissible n of a family that exists in a single dimension (D, E)."""
    n_min, step, _ = _ADMISSIBLE[tag]
    return n_min if step == 0 else None


def admissible_families(tag: FamilyTag, n_max: int):
    """Every family of one tag with n <= n_max, in increasing (n, k)."""
    n_min, step, takes_k = _ADMISSIBLE[tag]
    for n in range(n_min, (n_max if step else min(n_max, n_min)) + 1, step or 1):
        for k in range(1, n - 1) if takes_k else (None,):
            yield HypersurfaceFamily(tag, n, k)


@dataclass(frozen=True)
class CurvatureSpectrum:
    """Hopf curvature alpha plus (principal curvature, multiplicity) branches."""

    alpha: object
    branches: tuple


def _check_radius(family: HypersurfaceFamily, t):
    domain = family.radius_domain()
    if domain is None:
        return None
    if t is None:
        raise RadiusOutOfDomain(f"{family.tag.value} requires a radius t")
    t = to_mpf(t)
    lo, hi = domain
    if not lo < t < hi:
        raise RadiusOutOfDomain(f"radius {mp.nstr(t, 12)} outside open interval (0, {mp.nstr(hi, 12)})")
    excl = family.excluded_radius
    if excl is not None and abs(t - excl) < mp.mpf(10) ** (-15):
        raise ExcludedRadius("CH_B is not defined at t = log(2 + sqrt(3))/2")
    return t


def _spectrum(family: HypersurfaceFamily, t, lib, one):
    """Alpha and the (lambda, m) branches with m > 0, evaluated with lib.

    ``lib`` is ``mp``, the float64 ``_FLOAT64`` or the (cos, sin) ``_ANGLE``
    and ``one`` the matching unit (an mpf, or an array of ones shaped like t).
    This is the only copy of the table; every lane reads it.
    """
    tag, n, k = family.tag, family.n, family.k
    if tag is FamilyTag.CH_A0:
        alpha = 2 * one
        branches = [(one, 2 * n - 2)]
    elif tag is FamilyTag.CH_A1_GEODESIC:
        alpha = 2 * lib.coth(2 * t)
        branches = [(lib.tanh(t), 2 * n - 2)]
    elif tag is FamilyTag.CH_A1_POINT:
        alpha = 2 * lib.coth(2 * t)
        branches = [(lib.coth(t), 2 * n - 2)]
    elif tag is FamilyTag.CH_A2:
        alpha = 2 * lib.coth(2 * t)
        branches = [(lib.coth(t), 2 * (n - k - 1)), (lib.tanh(t), 2 * k)]
    elif tag is FamilyTag.CH_B:
        alpha = 2 * lib.tanh(2 * t)
        branches = [(lib.coth(t), n - 1), (lib.tanh(t), n - 1)]
    elif tag is FamilyTag.CP_A1:
        alpha = 2 * lib.cot(2 * t)
        branches = [(-lib.tan(t), 2 * n - 2)]
    elif tag is FamilyTag.CP_A2:
        alpha = 2 * lib.cot(2 * t)
        branches = [(lib.cot(t), 2 * (n - k - 1)), (-lib.tan(t), 2 * k)]
    elif tag is FamilyTag.CP_B:
        alpha = 2 * lib.tan(2 * t)
        branches = [(-lib.cot(t), n - 1), (lib.tan(t), n - 1)]
    else:  # CP_C, CP_D, CP_E share the quarter-turn curvature pattern
        alpha = 2 * lib.cot(2 * t)
        lams = [lib.cot(t - j * lib.pi / 4) for j in (1, 3, 2, 0)]
        if tag is FamilyTag.CP_C:
            mults = (2, 2, n - 3, n - 3)
        elif tag is FamilyTag.CP_D:
            mults = (4, 4, 4, 4)
        else:
            mults = (6, 6, 8, 8)
        branches = zip(lams, mults)
    return alpha, [(lam, m) for lam, m in branches if m > 0]


# cot and coth as reciprocals: 2 * (1 / tan(x)) has the bits of 2 / tan(x).
_FLOAT64 = SimpleNamespace(
    pi=np.pi, tan=np.tan, tanh=np.tanh, cot=lambda x: 1 / np.tan(x), coth=lambda x: 1 / np.tanh(x)
)


class _Angle(NamedTuple):
    """An angle held as its (cos, sin) pair; ``2 * angle`` is the double angle."""

    cos: object
    sin: object

    def __rmul__(self, k):
        if k != 2:
            return NotImplemented
        return _Angle(self.cos * self.cos - self.sin * self.sin, 2 * self.sin * self.cos)


# Field operations only: it covers the table rows that use t and 2t alone.
_ANGLE = SimpleNamespace(tan=lambda a: a.sin / a.cos, cot=lambda a: a.cos / a.sin)


def angle_spectrum(family: HypersurfaceFamily, cos_t, sin_t) -> CurvatureSpectrum:
    """Spectrum at the radius t with (cos t, sin t) = (cos_t, sin_t), by field
    operations alone; CP_A1, CP_A2 and CP_B only."""
    if family.tag not in (FamilyTag.CP_A1, FamilyTag.CP_A2, FamilyTag.CP_B):
        raise UnsupportedFamily(f"{family.tag.value} needs more than t and 2t")
    alpha, branches = _spectrum(family, _Angle(cos_t, sin_t), _ANGLE, mp.mpf(1))
    return CurvatureSpectrum(alpha=alpha, branches=tuple(branches))


def curvature_spectrum(family: HypersurfaceFamily, t=None) -> CurvatureSpectrum:
    """Evaluate the family's spectrum at radius t (ignored for the horosphere).

    Branches with zero multiplicity (the n = 1 curve case) are dropped, so the
    invariant 1 + sum(multiplicities) = 2n - 1 holds for every admissible n.
    """
    alpha, branches = _spectrum(family, _check_radius(family, t), mp, mp.mpf(1))
    return CurvatureSpectrum(alpha=alpha, branches=tuple(branches))


def trace_shape(spectrum: CurvatureSpectrum):
    """Trace of the shape operator: alpha + sum of m_i * lambda_i."""
    return spectrum.alpha + mp.fsum(m * lam for lam, m in spectrum.branches)


def trace_shape_squared(spectrum: CurvatureSpectrum):
    """Trace of the squared shape operator: alpha^2 + sum of m_i * lambda_i^2."""
    return spectrum.alpha**2 + mp.fsum(m * lam**2 for lam, m in spectrum.branches)


def minimal_x(family: HypersurfaceFamily) -> Fraction:
    """Exact value of the substitution variable at the minimal tube (trace = 0)."""
    _require_projective(family)
    n, k = family.n, family.k
    tag = family.tag
    if tag is FamilyTag.CP_A1:
        return Fraction(1, 2 * n)
    if tag is FamilyTag.CP_A2:
        return Fraction(2 * k + 1, 2 * n)
    if tag is FamilyTag.CP_B:
        return Fraction(1, n)
    if tag is FamilyTag.CP_C:
        return Fraction(2, n)
    if tag is FamilyTag.CP_D:
        return Fraction(4, 9)
    return Fraction(2, 5)


def r_independent_x(family: HypersurfaceFamily) -> Fraction:
    """Exact x at the radius where trace + 3*alpha = 0 (order-independent tube)."""
    _require_projective(family)
    n, k = family.n, family.k
    tag = family.tag
    if tag is FamilyTag.CP_A1:
        return Fraction(2, n + 3)
    if tag is FamilyTag.CP_A2:
        return Fraction(k + 2, n + 3)
    if tag is FamilyTag.CP_B:
        return Fraction(4, n + 3)
    if tag is FamilyTag.CP_C:
        return Fraction(2, n + 3)
    return Fraction(1, 3)


def radius_from_x(family: HypersurfaceFamily, x):
    """Tube radius t recovering x under the family's substitution; x must lie in (0, 1)."""
    x = to_mpf(x)
    sub = family.substitution
    if sub is None:
        raise UnsupportedFamily(f"{family.tag.value} has no algebraic radius variable")
    if not 0 < x < 1:
        raise RootOutOfRange(f"x = {mp.nstr(x, 12)} does not give a non-degenerate tube")
    root = mp.sqrt(x)
    if sub is Substitution.SIN2_T:
        return mp.asin(root)
    if sub is Substitution.COS2_T:
        return mp.acos(root)
    return mp.acos(root) / 2


def x_from_radius(family: HypersurfaceFamily, t):
    """Value of the family's substitution variable at a radius t of its domain."""
    sub = family.substitution
    if sub is None:
        raise UnsupportedFamily(f"{family.tag.value} has no algebraic radius variable")
    t = _check_radius(family, t)
    if sub is Substitution.SIN2_T:
        return mp.sin(t) ** 2
    if sub is Substitution.COS2_T:
        return mp.cos(t) ** 2
    return mp.cos(2 * t) ** 2


@dataclass(frozen=True)
class SpecialRadii:
    """Distinguished radii of a projective family."""

    t_minimal: object
    t_r_independent: object


def special_radii(family: HypersurfaceFamily) -> SpecialRadii:
    """Radii solving trace = 0 and trace + 3*alpha = 0.

    Both are computed exactly in the substitution variable and converted to t
    only here; both always exist inside the open domain for every projective
    family.
    """
    return SpecialRadii(
        t_minimal=radius_from_x(family, minimal_x(family)),
        t_r_independent=radius_from_x(family, r_independent_x(family)),
    )


def scaled_curvature_spectrum(family: HypersurfaceFamily, t, c) -> CurvatureSpectrum:
    """Spectrum of the same family in the space form of holomorphic curvature c.

    Curvatures scale by sqrt(|c|)/2 while radii scale by 2/sqrt(|c|); the sign
    of c must match the family's space form.  Branch order and multiplicities
    are unchanged.
    """
    c = to_mpf(c)
    if not mp.isfinite(c) or c == 0 or (c > 0) != family.is_projective:
        raise UnsupportedFamily(f"c={mp.nstr(c, 8)} is not a finite curvature of {family.tag.value}'s sign")
    s = mp.sqrt(abs(c)) / 2
    base = curvature_spectrum(family, None if family.tag is FamilyTag.CH_A0 else s * to_mpf(t))
    return CurvatureSpectrum(
        alpha=s * base.alpha,
        branches=tuple((s * lam, m) for lam, m in base.branches),
    )


def spectrum_arrays(family: HypersurfaceFamily, ts: np.ndarray):
    """Vectorised float64 spectrum over an array of radii.

    Returns (alpha, [(lambda_i, m_i), ...]) with numpy arrays.  This is the
    fast lane used for sign-level grid scans; certified quantities always go
    through the mpmath path.  Every radius must pass ``_check_radius``'s
    tests: inside the open domain, NaN and +/-inf excluded, and off CH_B's
    excluded radius.
    """
    ts = np.asarray(ts, dtype=float)
    domain = family.radius_domain()  # a NaN radius makes both extremes NaN and fails the test
    if domain is not None and ts.size and not float(domain[0]) < ts.min() <= ts.max() < float(domain[1]):
        raise RadiusOutOfDomain(f"{family.tag.value} grid radii must be finite and inside its open domain")
    excl = family.excluded_radius
    if excl is not None and np.any(np.abs(ts - float(excl)) < 1e-15):
        raise ExcludedRadius("grid hits the CH_B forbidden radius")
    return _spectrum(family, ts, _FLOAT64, np.ones_like(ts))


def _require_projective(family: HypersurfaceFamily):
    if not family.is_projective:
        raise UnsupportedFamily(f"{family.tag.value} is a hyperbolic family")
