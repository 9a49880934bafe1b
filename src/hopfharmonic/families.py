"""Principal-curvature data of the homogeneous Hopf hypersurface families.

Each family is a one-parameter family of tubes in CP^n(4) or CH^n(-4); the
spectrum of the shape operator at radius t consists of the Hopf curvature
alpha together with a short list of (principal curvature, multiplicity)
branches.  All numeric evaluation goes through mpmath so that downstream
residual tolerances of 1e-12 keep ample headroom.  One table, ``_FAMILIES``,
holds a row per family tag: its admissible (n, k) and, for a projective
family, its radius variable x and, for B-E, the multiplicities of the
quarter-turn pattern, from which its minimal and order-independent x follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import (
    ExcludedRadius,
    InvalidFamily,
    RadiusOutOfDomain,
    RootOutOfRange,
    UnsupportedFamily,
    check_integer,
    mp,
    to_floats,
    to_mpf,
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
    """Algebraic variable x = trig(s t)^2 in which a projective family's radii are rational.

    The radius is t = inverse(sqrt x) / s, on the domain (0, pi / (2 s)).
    """

    SIN2_T = "sin^2(t)", mp.sin, mp.asin, 1
    COS2_T = "cos^2(t)", mp.cos, mp.acos, 1
    COS2_2T = "cos^2(2t)", mp.cos, mp.acos, 2

    def __new__(cls, value, trig, inverse, s):
        member = str.__new__(cls, value)
        member._value_ = value
        member.trig, member.inverse, member.s = trig, inverse, s
        return member


class _Family(NamedTuple):
    """One family's row: admissible (n, k) and, if projective, its radius variable.

    n runs over n_min, n_min + step, ... (step 0: n_min only), and k, if
    taken, over 1 <= k <= n - 2.  A quarter-turn row (x = cos^2 2t) holds the
    content d of its quartic (None on every other row), the multiplicity a of
    cot(t - j pi/4), j = 1, 3 (None: n - 1), and ``mirror`` if it is the
    pattern at pi/4 - t, x -> 1 - x.
    """

    n_min: int
    step: int
    takes_k: bool
    substitution: Substitution | None = None
    d: int | None = None
    a: int | None = None
    mirror: bool = False


_TAGS = {tag.value: tag for tag in FamilyTag}  # a member hashes as its value

# Takagi's list for CP^n (n = 1 is the curve case of A1) and Berndt's
# classification for CH^n.
_FAMILIES = {
    FamilyTag.CH_A0: _Family(2, 1, False),
    FamilyTag.CH_A1_GEODESIC: _Family(2, 1, False),
    FamilyTag.CH_A1_POINT: _Family(2, 1, False),
    FamilyTag.CH_A2: _Family(3, 1, True),
    FamilyTag.CH_B: _Family(2, 1, False),
    FamilyTag.CP_A1: _Family(1, 1, False, Substitution.SIN2_T),
    FamilyTag.CP_A2: _Family(3, 1, True, Substitution.COS2_T),
    FamilyTag.CP_B: _Family(2, 1, False, Substitution.COS2_2T, d=1, mirror=True),
    FamilyTag.CP_C: _Family(5, 2, False, Substitution.COS2_2T, d=1, a=2),
    FamilyTag.CP_D: _Family(9, 0, False, Substitution.COS2_2T, d=4, a=4),
    FamilyTag.CP_E: _Family(15, 0, False, Substitution.COS2_2T, d=2, a=6),
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
        tag = _check_tag(self.tag)
        n = check_integer(self.n, "n")  # an np.int64 n would overflow the exact lane
        k = None if self.k is None else check_integer(self.k, "k")
        for name, value in (("tag", tag), ("n", n), ("k", k)):
            object.__setattr__(self, name, value)
        row = _FAMILIES[tag]
        n_min, step, takes_k = row.n_min, row.step, row.takes_k
        if not (n == n_min if step == 0 else n >= n_min and (n - n_min) % step == 0):
            need = f"n = {n_min}, {n_min + step}, ..." if step else f"n = {n_min}"
            raise InvalidFamily(f"{tag.value} needs {need}, got n={n}")
        if takes_k != (k is not None) or (takes_k and not 1 <= k <= n - 2):
            need = "1 <= k <= n-2" if takes_k else "no parameter k"
            raise InvalidFamily(f"{tag.value} takes {need}, got n={n}, k={k}")

    @property
    def is_projective(self) -> bool:
        return self.substitution is not None

    @property
    def space_form_sign(self) -> int:
        """+1 for CP^n(4), -1 for CH^n(-4)."""
        return 1 if self.is_projective else -1

    @property
    def substitution(self) -> Substitution | None:
        return _FAMILIES[self.tag].substitution

    def radius_domain(self):
        """The mathematical domain, an open interval of mpf radii, or None (horosphere); every lane's floor is the least normal float64."""
        sub = self.substitution
        if sub is not None:
            return (mp.mpf(0), mp.pi / (2 * sub.s))
        return None if self.tag is FamilyTag.CH_A0 else (mp.mpf(0), mp.inf)

    @property
    def excluded_radius(self):
        """Isolated forbidden radius inside the domain (CH_B only)."""
        if self.tag is FamilyTag.CH_B:
            return mp.log(2 + mp.sqrt(3)) / 2
        return None


def _check_tag(tag) -> FamilyTag:
    if isinstance(tag, str) and tag in _TAGS:
        return _TAGS[tag]
    raise InvalidFamily(f"not a family tag: {tag!r}")


def fixed_dimension(tag: FamilyTag) -> int | None:
    """The one admissible n of a family that exists in a single dimension (D, E)."""
    row = _FAMILIES[tag]
    return row.n_min if row.step == 0 else None


def admissible_families(tag: FamilyTag, n_max: int):
    """Every family of one tag with n <= n_max, in increasing (n, k)."""
    row, n_max = _FAMILIES[_check_tag(tag)], check_integer(n_max, "n_max")
    n_min, step = row.n_min, row.step
    for n in range(n_min, (n_max if step else min(n_max, n_min)) + 1, step or 1):
        for k in range(1, n - 1) if row.takes_k else (None,):
            yield HypersurfaceFamily(tag, n, k)


def quarter_turn(family: HypersurfaceFamily):
    """(a, b, d, mirror) of a quarter-turn family (B-E), b = n - 1 - a; None for the others."""
    row, n = _FAMILIES[family.tag], family.n
    if row.d is None:
        return None
    a = n - 1 if row.a is None else row.a
    return a, n - 1 - a, row.d, row.mirror


class CurvatureSpectrum(NamedTuple):
    """Hopf curvature alpha and the tuple of (curvature, multiplicity) branches, in every lane's arithmetic."""

    alpha: object
    branches: tuple


def check_family(family, projective: bool | None = None) -> HypersurfaceFamily:
    """family itself; ``InvalidFamily`` unless it is a ``HypersurfaceFamily``, and
    ``UnsupportedFamily`` if ``projective`` is given and its space form is the other one."""
    if not isinstance(family, HypersurfaceFamily):
        raise InvalidFamily(f"not a HypersurfaceFamily: {family!r}")
    if projective is not None and family.is_projective != projective:
        raise UnsupportedFamily(f"{family.tag.value} is a {'hyperbolic' if projective else 'projective'} family")
    return family


_TINY = mp.mpf(np.finfo(float).tiny)  # the least normal float64, the floor of every lane's radii; an mpf compares fastest


def _check_radius(family: HypersurfaceFamily, t):
    """t as an mpf; ``RadiusOutOfDomain`` unless _TINY <= t < the domain's end (so not NaN), ``ExcludedRadius``
    at CH_B's excluded radius.  This is every lane's radius rule; ``spectrum_arrays`` applies it in float64."""
    domain = check_family(family).radius_domain()
    if domain is None:  # the horosphere's spectrum ignores the value of t, not a non-number
        return None if t is None else to_mpf(t, RadiusOutOfDomain)
    t = to_mpf(t, RadiusOutOfDomain)
    if not _TINY <= t < domain[1]:
        raise RadiusOutOfDomain(f"radius {mp.nstr(t, 12)} below the least normal float64 or outside (0, {mp.nstr(domain[1], 12)})")
    excl = family.excluded_radius
    if excl is not None and abs(t - excl) < mp.mpf(10) ** (-15):
        raise ExcludedRadius("CH_B is not defined at t = log(2 + sqrt(3))/2")
    return t


def _spectrum(family: HypersurfaceFamily, t, lib, one):
    """The ``CurvatureSpectrum`` of alpha and the (lambda, m) branches with m > 0, evaluated with lib.

    ``lib`` is ``mp``, the float64 ``_FLOAT64`` or the (cos, sin) ``_ANGLE``
    and ``one`` the matching unit (an mpf, or an array of ones shaped like t).
    This is the only copy of the table; every lane reads it.  It has five
    rows, one per geometry, of (curvature as a function of t, multiplicity),
    and a curvature of multiplicity 0 is never evaluated.  The A row is the
    tube over a totally geodesic CP^k or CH^k: A1 is its k = n - 1 and
    CH_A1_point its k = 0 (the quartic reads A1 as the dual k = 0 tube, in
    x = sin^2 t = cos^2(pi/2 - t)).  B is the quarter-turn pattern at
    pi/4 - t, but keeps its own row: the pattern would take cot(-t) from
    (pi/4 - t) - pi/4, which loses the digits of t as t -> 0.
    """
    tag, n = family.tag, family.n
    if tag is FamilyTag.CH_A0:
        alpha, row = 2 * one, [(lambda t: one, 2 * n - 2)]
    elif tag is FamilyTag.CH_B:
        alpha, row = 2 * lib.tanh(2 * t), [(lib.coth, n - 1), (lib.tanh, n - 1)]
    elif tag is FamilyTag.CP_B:
        alpha, row = 2 * lib.tan(2 * t), [(lambda t: -lib.cot(t), n - 1), (lib.tan, n - 1)]
    elif (pattern := quarter_turn(family)) is not None:  # C, D, E: multiplicities (a, a, b, b)
        a, b, _, _ = pattern
        alpha = 2 * lib.cot(2 * t)
        row = [(lambda t, j=j: lib.cot(t - j * lib.pi / 4), m) for j, m in zip((1, 3, 2, 0), (a, a, b, b))]
    else:  # A1, A2: the tube over CP^k or CH^k
        k = family.k if family.k is not None else 0 if tag is FamilyTag.CH_A1_POINT else n - 1
        if family.is_projective:
            alpha, far, near = 2 * lib.cot(2 * t), lib.cot, lambda t: -lib.tan(t)
        else:
            alpha, far, near = 2 * lib.coth(2 * t), lib.coth, lib.tanh
        row = [(far, 2 * (n - 1 - k)), (near, 2 * k)]
    return CurvatureSpectrum(alpha, tuple((curvature(t), m) for curvature, m in row if m > 0))


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


def _angle_spectrum(family: HypersurfaceFamily, cos_t, sin_t) -> CurvatureSpectrum:
    """Spectrum at the radius t with (cos t, sin t) = (cos_t, sin_t), by field
    operations alone; CP_A1, CP_A2 and CP_B only."""
    if family.tag not in (FamilyTag.CP_A1, FamilyTag.CP_A2, FamilyTag.CP_B):
        raise UnsupportedFamily(f"{family.tag.value} needs more than t and 2t")
    return _spectrum(family, _Angle(cos_t, sin_t), _ANGLE, mp.mpf(1))


def curvature_spectrum(family: HypersurfaceFamily, t=None) -> CurvatureSpectrum:
    """Evaluate the family's spectrum at radius t (ignored for the horosphere).

    Branches with zero multiplicity (the n = 1 curve case) are dropped, so the
    invariant 1 + sum(multiplicities) = 2n - 1 holds for every admissible n.
    """
    return _spectrum(family, _check_radius(family, t), mp, mp.mpf(1))


def trace_shape(spectrum: CurvatureSpectrum):
    """Trace of the shape operator, alpha + sum of m_i * lambda_i, of a spectrum the package made."""
    return spectrum.alpha + mp.fsum(m * lam for lam, m in spectrum.branches)


def trace_shape_squared(spectrum: CurvatureSpectrum):
    """Trace of the squared shape operator, alpha^2 + sum of m_i * lambda_i^2, of a spectrum the package made."""
    return spectrum.alpha**2 + mp.fsum(m * lam**2 for lam, m in spectrum.branches)


def _tube_x(family: HypersurfaceFamily, s: int) -> Fraction:
    """Exact x where trace + s alpha = 0: (2k + 1 + s) / (2n + 2s) for A2 and A1 (k = 0),
    and a / (n + s) for the quarter-turn pattern, 1 minus it if mirrored."""
    n, pattern = check_family(family, projective=True).n, quarter_turn(family)
    if pattern is None:
        return Fraction(2 * (family.k or 0) + 1 + s, 2 * (n + s))
    a, _, _, mirror = pattern
    return Fraction(n + s - a if mirror else a, n + s)


def minimal_x(family: HypersurfaceFamily) -> Fraction:
    """Exact value of the substitution variable at the minimal tube (trace = 0)."""
    return _tube_x(family, 0)


def r_independent_x(family: HypersurfaceFamily) -> Fraction:
    """Exact x at the radius where trace + 3*alpha = 0 (order-independent tube)."""
    return _tube_x(family, 3)


def radius_from_x(family: HypersurfaceFamily, x):
    """Tube radius t recovering x under the family's substitution; x must lie in (0, 1)."""
    x = to_mpf(x, RootOutOfRange)
    sub = check_family(family, projective=True).substitution
    if not 0 < x < 1:
        raise RootOutOfRange(f"x = {mp.nstr(x, 12)} does not give a non-degenerate tube")
    return sub.inverse(mp.sqrt(x)) / sub.s


def x_from_radius(family: HypersurfaceFamily, t):
    """Value of the family's substitution variable at a radius t of its domain."""
    sub = check_family(family, projective=True).substitution
    t = _check_radius(family, t)
    return sub.trig(sub.s * t) ** 2


def scaled_curvature_spectrum(family: HypersurfaceFamily, t, c) -> CurvatureSpectrum:
    """Spectrum of the same family in the space form of holomorphic curvature c.

    Curvatures scale by sqrt(|c|)/2 while radii scale by 2/sqrt(|c|); the sign
    of c must match the family's space form.  Branch order and multiplicities
    are unchanged.
    """
    family, c = check_family(family), to_mpf(c, UnsupportedFamily)
    if not mp.isfinite(c) or c == 0 or (c > 0) != family.is_projective:
        raise UnsupportedFamily(f"c={mp.nstr(c, 8)} is not a finite curvature of {family.tag.value}'s sign")
    s = mp.sqrt(abs(c)) / 2
    t = None if t is None else s * to_mpf(t, RadiusOutOfDomain)
    base = curvature_spectrum(family, t)
    return CurvatureSpectrum(s * base.alpha, tuple((s * lam, m) for lam, m in base.branches))


def spectrum_arrays(family: HypersurfaceFamily, ts: np.ndarray):
    """Vectorised float64 spectrum over an array of radii: a ``CurvatureSpectrum`` of arrays.

    This is the fast lane used for sign-level grid scans; certified quantities
    always go through the mpmath path.  Its radii pass ``_check_radius``'s rule
    compared in float64: at least ``_TINY``, the least normal float64, so that
    every curvature, at most about 2 / t, is finite, below the float64 nearest
    the domain's end, and off CH_B's excluded radius.
    """
    ts = to_floats(ts, RadiusOutOfDomain)
    domain = check_family(family).radius_domain()  # a NaN radius makes both extremes NaN and fails the test
    if domain is not None and ts.size and not _TINY <= ts.min() <= ts.max() < float(domain[1]):
        raise RadiusOutOfDomain(f"{family.tag.value} grid radii must be finite, normal and inside its open domain")
    excl = family.excluded_radius
    if excl is not None and np.any(np.abs(ts - float(excl)) < 1e-15):
        raise ExcludedRadius("grid hits the CH_B forbidden radius")
    return _spectrum(family, ts, _FLOAT64, np.ones_like(ts))
