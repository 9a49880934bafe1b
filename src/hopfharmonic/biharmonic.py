"""Biharmonic tubes over totally geodesic complex subspaces and their stability.

At order r = 2 the harmonicity condition collapses to tr S^2 = 2(n+1); the
admissible radii are the two branches

    cos^2 t_(+/-) = (3(n+1) - 2p +/- sqrt(n^2 + 6n - 4(n+1)p + 4p^2 + 5)) / (4(n+1))

for the tube over a codimension-p totally geodesic complex subspace.  The
spectrum at a tube comes from cos^2 t by square roots alone, cos t = sqrt(c)
and sin t = sqrt(1 - c); only the reported radius t uses acos.  Every
such tube is unstable (constant variations are negative directions); the
normal index is exactly one when

    (n+1)(4 L + n+1) > (15/4) T^2 + (2 L + n+1) |T| + 12 alpha T

holds with T = tr S and L the minimum squared principal curvature, via the
first-eigenvalue bound mu_1 >= (n+1) - |tr S|/2.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

from mpmath import mp

from .errors import DegenerateTube, InvalidFamily, NoBiharmonicTube
from .families import (
    CurvatureSpectrum,
    FamilyTag,
    HypersurfaceFamily,
    angle_spectrum,
    trace_shape,
    trace_shape_squared,
)

BRANCHES = ("plus", "minus")


class IndexClaim(str, Enum):
    UNSTABLE_INDEX_GE_1 = "unstable_index_ge_1"
    INDEX_EXACTLY_1 = "index_exactly_1"


@dataclass(frozen=True)
class BiharmonicTube:
    """One biharmonic radius of the tube over a totally geodesic CP^(n-p)."""

    n: int
    p: int
    branch: str
    cos_sq_t: object
    t: object


@dataclass(frozen=True)
class StabilityReport:
    """Stability data of one biharmonic tube."""

    n: int
    p: int
    branch: str
    cos_sq_t: object
    t: object
    trace: object
    trace_sq: object
    alpha: object
    lambda_min_sq: object
    mu1_lower_bound: object
    lhs: object
    rhs: object
    constant_witness: object
    condition_holds: bool
    index_claim: IndexClaim


@dataclass(frozen=True)
class ThresholdScan:
    """Result of scanning n for the onset of a certified index-one regime."""

    p: int
    n_max: int
    threshold: int | None
    holds_for_all_larger: bool


@dataclass(frozen=True)
class AsymptoticErrors:
    """Scaled deviations from the large-n behaviour of the plus branch."""

    cot2_2t: object
    cot2_t: object
    tan2_t: object
    trace: object


def tube_family(n: int, p: int) -> HypersurfaceFamily:
    """Family hosting the tube over CP^(n-p): A1 for p = 1, A2 with k = n-p else."""
    if n < 2 or not 1 <= p <= n - 1:
        raise InvalidFamily(f"need n >= 2 and 1 <= p <= n-1, got n={n}, p={p}")
    if p == 1:
        return HypersurfaceFamily(FamilyTag.CP_A1, n)
    return HypersurfaceFamily(FamilyTag.CP_A2, n, n - p)


def _tube(n: int, p: int, branch: str):
    """The tube of one branch and its cos t, or None when cos^2 t is outside (0, 1)."""
    disc = n * n + 6 * n - 4 * (n + 1) * p + 4 * p * p + 5
    if disc < 0:
        raise NoBiharmonicTube(f"negative discriminant for n={n}, p={p}")
    sqrt_disc = mp.sqrt(disc)
    base = 3 * (n + 1) - 2 * p
    cs = (base + sqrt_disc if branch == "plus" else base - sqrt_disc) / (4 * (n + 1))
    if not 0 < cs < 1:
        return None
    cos_t = mp.sqrt(cs)
    return BiharmonicTube(n=n, p=p, branch=branch, cos_sq_t=cs, t=mp.acos(cos_t)), cos_t


def biharmonic_radii(n: int, p: int) -> list:
    """All biharmonic tubes over CP^(n-p), plus branch first.

    Branches whose cos^2 t falls outside (0, 1) would be degenerate and are
    dropped; in the admissible range both branches are always interior.
    """
    tube_family(n, p)  # validates (n, p)
    tubes = (_tube(n, p, branch) for branch in BRANCHES)
    return [tube[0] for tube in tubes if tube is not None]


def lambda_min_squared(spectrum: CurvatureSpectrum):
    """Minimum squared principal curvature, the Hopf curvature included."""
    return min([spectrum.alpha**2] + [lam**2 for lam, _ in spectrum.branches])


def first_eigenvalue_bound(n: int, trace):
    """Lower bound (n+1) - |tr S|/2 on the first nonzero Laplace eigenvalue from
    tr S, valid for hypersurfaces of an Einstein ambient with Ricci = 2(n+1) g."""
    return (n + 1) - abs(trace) / 2


def stability_condition(n: int, p: int, branch: str) -> StabilityReport:
    """Evaluate the index-one sufficient condition on one biharmonic tube.

    The constant-function witness tr S (tr S + 3 alpha) > 0 certifies
    instability unconditionally; when the condition holds the normal index is
    exactly one, otherwise only index >= 1 is claimed.
    """
    if branch not in BRANCHES:
        raise InvalidFamily(f"branch must be one of {BRANCHES}, got {branch!r}")
    family = tube_family(n, p)
    found = _tube(n, p, branch)
    if found is None:
        raise DegenerateTube(f"branch {branch} of (n={n}, p={p}) is not a tube")

    tube, cos_t = found
    spec = angle_spectrum(family, cos_t, mp.sqrt(1 - tube.cos_sq_t))
    tr = trace_shape(spec)
    tr2 = trace_shape_squared(spec)
    lam_min = lambda_min_squared(spec)
    lhs = (n + 1) * (4 * lam_min + n + 1)
    rhs = mp.mpf(15) / 4 * tr**2 + (2 * lam_min + n + 1) * abs(tr) + 12 * spec.alpha * tr
    holds = lhs > rhs
    return StabilityReport(
        n=n,
        p=p,
        branch=branch,
        cos_sq_t=tube.cos_sq_t,
        t=tube.t,
        trace=tr,
        trace_sq=tr2,
        alpha=spec.alpha,
        lambda_min_sq=lam_min,
        mu1_lower_bound=first_eigenvalue_bound(n, tr),
        lhs=lhs,
        rhs=rhs,
        constant_witness=tr * (tr + 3 * spec.alpha),
        condition_holds=holds,
        index_claim=IndexClaim.INDEX_EXACTLY_1 if holds else IndexClaim.UNSTABLE_INDEX_GE_1,
    )


def index_threshold_scan(p: int, n_max: int) -> ThresholdScan:
    """Smallest n in (p+1, n_max] whose plus branch satisfies the condition,
    together with whether it keeps holding up to n_max."""
    try:
        p, n_max = operator.index(p), operator.index(n_max)
    except TypeError:
        raise InvalidFamily(f"p and n_max must be integers, got p={p!r}, n_max={n_max!r}") from None
    if p < 1 or n_max <= p + 1:
        raise InvalidFamily(f"need p >= 1 and n_max > p+1, got p={p}, n_max={n_max}")
    threshold = None
    holds_above = True
    for n in range(p + 2, n_max + 1):
        holds = stability_condition(n, p, "plus").condition_holds
        if threshold is None:
            if holds:
                threshold = n
        elif not holds:
            holds_above = False
    return ThresholdScan(p=p, n_max=n_max, threshold=threshold, holds_for_all_larger=threshold is not None and holds_above)


def asymptotic_check(p: int, n: int) -> AsymptoticErrors:
    """Scaled errors of the four large-n relations at the plus branch:

    |4 cot^2 2t - 2n/(2p-1)|/n,  |cot^2 t - 2n/(2p-1)|/n,
    |tan^2 t - (2p-1)/(2n)|*n,   |tr S - 2 sqrt(4p-2)/sqrt(n)|*sqrt(n),

    all from c = cos^2 t: tan^2 t = (1-c)/c and 4 cot^2 2t = (2c-1)^2/(c(1-c)).
    """
    family = tube_family(n, p)
    tube, cos_t = _tube(n, p, "plus")
    c = tube.cos_sq_t
    tr = trace_shape(angle_spectrum(family, cos_t, mp.sqrt(1 - c)))
    lead = mp.mpf(2 * n) / (2 * p - 1)
    return AsymptoticErrors(
        cot2_2t=abs((2 * c - 1) ** 2 / (c * (1 - c)) - lead) / n,
        cot2_t=abs(c / (1 - c) - lead) / n,
        tan2_t=abs((1 - c) / c - mp.mpf(2 * p - 1) / (2 * n)) * n,
        trace=abs(tr - 2 * mp.sqrt(4 * p - 2) / mp.sqrt(n)) * mp.sqrt(n),
    )
