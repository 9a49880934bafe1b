"""Polyharmonicity residual of a Hopf hypersurface and the hyperbolic scan.

A non-minimal homogeneous Hopf hypersurface in a complex space form of
holomorphic curvature c is properly r-harmonic exactly when

    (4/c) (tr S^2)^2 - 2 (n+1) tr S^2 - (r-2) (tr S)^2 - 3 alpha (r-2) tr S

vanishes.  With c fixed at +/-4 the leading factor is +/-1.  The float64
lane evaluates it as base - (r-2) slope, with base = +/-(tr S^2)^2 - 2 (n+1)
tr S^2 and slope = tr S (tr S + 3 alpha) computed once for every order.  For
hyperbolic families every term is strictly negative, so the residual never
vanishes; ``chn_sweep`` verifies this empirically on a grid (float64 fast
lane), with ``tail_residual`` covering the large-radius limit.
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


def _float64_sums(family: HypersurfaceFamily, orders, ts):
    """The residual's order-free base and its slope in r - 2 over ts as float64 arrays, once r and 2(n + 1) <= 2**53."""
    alpha, branches = spectrum_arrays(family, ts)  # checks family before its n is read
    if max(orders) > 2**53:  # the lane's integers are exact float64s: r, and 2(n + 1), which bounds the multiplicities
        raise InvalidOrder("order r is past 2**53, the float64 lane's exact integers")
    if 2 * (family.n + 1) > 2**53:
        raise InvalidFamily(f"{family.tag.value}'s 2(n + 1) is past 2**53, the float64 lane's exact integers")
    trace = alpha + sum(m * lam for lam, m in branches)
    trace_sq = alpha**2 + sum(m * lam**2 for lam, m in branches)
    return family.space_form_sign * trace_sq**2 - 2 * (family.n + 1) * trace_sq, trace * (trace + 3 * alpha)


def _float64_residual(family: HypersurfaceFamily, r: int, base, slope) -> np.ndarray:
    values = base - (r - 2) * slope
    if not np.isfinite(values).all():
        raise RadiusOutOfDomain(f"the {family.tag.value} residual overflows float64 on this grid")
    return values


@np.errstate(over="ignore", invalid="ignore")  # a value float64 cannot hold is refused in _float64_residual
def residual_grid(family: HypersurfaceFamily, r: int, ts) -> np.ndarray:
    """Vectorised float64 residual over radii that ``spectrum_arrays`` accepts, r and 2(n + 1) <= 2**53 (sign-scan lane)."""
    r = check_order(r)
    return _float64_residual(family, r, *_float64_sums(family, [r], ts))


@np.errstate(over="ignore", invalid="ignore")  # as in residual_grid
def chn_sweep(family: HypersurfaceFamily, orders, grid) -> np.ndarray:
    """Maximum residual of a hyperbolic family over a nonempty grid that ``residual_grid`` takes, at each order (float64)."""
    check_family(family, projective=False)
    if not np.iterable(orders) or not (orders := [check_order(r) for r in orders]):
        raise InvalidOrder(f"orders must be a nonempty iterable of integers >= 2, got {orders!r}")
    base, slope = _float64_sums(family, orders, grid)
    if base.size == 0:
        raise RadiusOutOfDomain("the grid holds no radius")
    return np.array([np.max(_float64_residual(family, r, base, slope)) for r in orders])


def chn_scan(family: HypersurfaceFamily, r: int, grid) -> float:
    """``chn_sweep`` at the one order r; the scan passes when the maximum is strictly negative."""
    return float(chn_sweep(family, (r,), grid)[0])


def tail_residual(family: HypersurfaceFamily, r: int):
    """Large-radius limit of a hyperbolic family's residual.

    All hyperbolic curvatures tend to the horosphere values (alpha -> 2,
    branch curvatures -> 1), so the limit is the residual of the horosphere
    CH_A0 of the same n, and it bounds the scan's tail.
    """
    check_family(family, projective=False)
    return residual(HypersurfaceFamily(FamilyTag.CH_A0, family.n), None, r).residual
