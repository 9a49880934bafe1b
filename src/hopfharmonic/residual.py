"""Polyharmonicity residual of a Hopf hypersurface and the hyperbolic scan.

A non-minimal homogeneous Hopf hypersurface in a complex space form of
holomorphic curvature c is properly r-harmonic exactly when

    (4/c) (tr S^2)^2 - 2 (n+1) tr S^2 - (r-2) (tr S)^2 - 3 alpha (r-2) tr S

vanishes.  With c fixed at +/-4 the leading factor is +/-1.  For hyperbolic
families every term is strictly negative, so the residual never vanishes;
``chn_scan`` verifies this empirically on a grid (float64 fast lane), with
``tail_residual`` covering the large-radius limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidFamily, InvalidOrder, RadiusOutOfDomain, check_order
from .families import (
    FamilyTag,
    HypersurfaceFamily,
    check_family,
    curvature_spectrum,
    spectrum_arrays,
    trace_shape,
    trace_shape_squared,
)


@dataclass(frozen=True)
class ResidualReport:
    """Residual value together with the scalar invariants that produced it."""

    residual: object
    trace: object
    trace_sq: object
    alpha: object
    r: int


def _residual_value(sign: int, n: int, r: int, trace, trace_sq, alpha):
    return sign * trace_sq**2 - 2 * (n + 1) * trace_sq - (r - 2) * trace**2 - 3 * alpha * (r - 2) * trace


def residual(family: HypersurfaceFamily, t=None, r: int = 2) -> ResidualReport:
    """Evaluate the r-harmonicity residual at radius t (ignored for CH_A0)."""
    r = check_order(r)
    spec = curvature_spectrum(family, t)
    tr = trace_shape(spec)
    tr2 = trace_shape_squared(spec)
    value = _residual_value(family.space_form_sign, family.n, r, tr, tr2, spec.alpha)
    return ResidualReport(
        residual=value,
        trace=tr,
        trace_sq=tr2,
        alpha=spec.alpha,
        r=r,
    )


@np.errstate(over="ignore", invalid="ignore")  # a value float64 cannot hold is refused below
def residual_grid(family: HypersurfaceFamily, r: int, ts) -> np.ndarray:
    """Vectorised float64 residual over radii that ``spectrum_arrays`` accepts, r and 2(n + 1) <= 2**53 (sign-scan lane)."""
    r = check_order(r)
    alpha, branches = spectrum_arrays(family, ts)  # checks family before its n is read
    if r > 2**53:  # the lane's integers are exact float64s: r, and 2(n + 1), which bounds the multiplicities
        raise InvalidOrder("order r is past 2**53, the float64 lane's exact integers")
    if 2 * (family.n + 1) > 2**53:
        raise InvalidFamily(f"{family.tag.value}'s 2(n + 1) is past 2**53, the float64 lane's exact integers")
    trace = alpha + sum(m * lam for lam, m in branches)
    trace_sq = alpha**2 + sum(m * lam**2 for lam, m in branches)
    values = _residual_value(family.space_form_sign, family.n, r, trace, trace_sq, alpha)
    if not np.isfinite(values).all():
        raise RadiusOutOfDomain(f"the {family.tag.value} residual overflows float64 on this grid")
    return values


def chn_scan(family: HypersurfaceFamily, r: int, grid) -> float:
    """Maximum residual of a hyperbolic family over a radius grid.

    The scan passes when the maximum is strictly negative.  The grid must be
    nonempty, stay inside the open domain and avoid the CH_B forbidden radius.
    """
    check_family(family, projective=False)
    values = residual_grid(family, r, grid)
    if values.size == 0:
        raise RadiusOutOfDomain("the grid holds no radius")
    return float(np.max(values))


def tail_residual(family: HypersurfaceFamily, r: int):
    """Large-radius limit of a hyperbolic family's residual.

    All hyperbolic curvatures tend to the horosphere values (alpha -> 2,
    branch curvatures -> 1), so the limit is the residual of the horosphere
    CH_A0 of the same n, and it bounds the scan's tail.
    """
    check_family(family, projective=False)
    return residual(HypersurfaceFamily(FamilyTag.CH_A0, family.n), None, r).residual
