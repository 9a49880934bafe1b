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

from .errors import InvalidTolerance, RadiusOutOfDomain, check_order, check_tol, to_mpf
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


def is_proper_r_harmonic(family: HypersurfaceFamily, t, r: int, tol: float) -> bool:
    """True iff the residual vanishes within tol while the trace does not."""
    tol = to_mpf(check_tol(tol), InvalidTolerance)
    report = residual(family, t, r)
    return abs(report.residual) <= tol and abs(report.trace) > tol


def residual_grid(family: HypersurfaceFamily, r: int, ts) -> np.ndarray:
    """Vectorised float64 residual over radii that ``spectrum_arrays`` accepts (sign-scan lane)."""
    r = check_order(r)
    alpha, branches = spectrum_arrays(family, ts)
    trace = alpha + sum(m * lam for lam, m in branches)
    trace_sq = alpha**2 + sum(m * lam**2 for lam, m in branches)
    return _residual_value(family.space_form_sign, family.n, r, trace, trace_sq, alpha)


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
