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

import numpy as np
from mpmath import mp

from ._rational import to_mpf
from .errors import (
    ExcludedRadius,
    InvalidFamily,
    RadiusOutOfDomain,
    UnsupportedFamily,
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
        tag, n, k = self.tag, self.n, self.k
        if not isinstance(tag, FamilyTag):
            object.__setattr__(self, "tag", FamilyTag(tag))
            tag = self.tag
        if tag in (FamilyTag.CP_A2, FamilyTag.CH_A2):
            if k is None:
                raise InvalidFamily(f"{tag.value} requires the parameter k")
            if n < 3 or not 1 <= k <= n - 2:
                raise InvalidFamily(f"{tag.value} needs n >= 3 and 1 <= k <= n-2, got n={n}, k={k}")
            return
        if k is not None:
            raise InvalidFamily(f"{tag.value} takes no parameter k")
        if tag is FamilyTag.CP_A1:
            # n = 1 is the curve case (tube around a point of CP^1).
            if n < 1:
                raise InvalidFamily("CP_A1 requires n >= 1")
        elif tag is FamilyTag.CP_B:
            if n < 2:
                raise InvalidFamily("CP_B requires n >= 2")
        elif tag is FamilyTag.CP_C:
            if n < 5 or n % 2 == 0:
                raise InvalidFamily("CP_C requires odd n >= 5")
        elif tag is FamilyTag.CP_D:
            if n != 9:
                raise InvalidFamily("CP_D exists only in complex dimension 9")
        elif tag is FamilyTag.CP_E:
            if n != 15:
                raise InvalidFamily("CP_E exists only in complex dimension 15")
        else:
            if n < 2:
                raise InvalidFamily(f"{tag.value} requires n >= 2")

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
        raise TypeError(f"{family.tag.value} requires a radius t")
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

    ``lib`` is ``mp`` or the float64 namespace ``_FLOAT64`` and ``one`` the
    matching unit (an mpf, or an array of ones shaped like t).  This is the
    only copy of the table; both lanes read it.
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
    """Tube radius t recovering x under the family's substitution."""
    x = to_mpf(x)
    sub = family.substitution
    if sub is None:
        raise UnsupportedFamily(f"{family.tag.value} has no algebraic radius variable")
    root = mp.sqrt(x)
    if sub is Substitution.SIN2_T:
        return mp.asin(root)
    if sub is Substitution.COS2_T:
        return mp.acos(root)
    return mp.acos(root) / 2


def x_from_radius(family: HypersurfaceFamily, t):
    """Value of the family's substitution variable at radius t."""
    t = to_mpf(t)
    sub = family.substitution
    if sub is None:
        raise UnsupportedFamily(f"{family.tag.value} has no algebraic radius variable")
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
    if c == 0 or (c > 0) != family.is_projective:
        raise UnsupportedFamily(f"curvature sign of c={mp.nstr(c, 8)} does not match {family.tag.value}")
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
    through the mpmath path.
    """
    ts = np.asarray(ts, dtype=float)
    return _spectrum(family, ts, _FLOAT64, np.ones_like(ts))


def _require_projective(family: HypersurfaceFamily):
    if not family.is_projective:
        raise UnsupportedFamily(f"{family.tag.value} is a hyperbolic family")
