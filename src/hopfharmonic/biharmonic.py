"""Biharmonic tubes over totally geodesic complex subspaces and their stability.

At order r = 2 the harmonicity condition collapses to tr S^2 = 2(n+1); the
admissible radii are the two branches

    cos^2 t_(+/-) = (3(n+1) - 2p +/- sqrt(n^2 + 6n - 4(n+1)p + 4p^2 + 5)) / (4(n+1))

for the tube over a codimension-p totally geodesic complex subspace.  With
D = (2p - n - 1)^2 + 4(n+1) > 0 both are real, and both are interior for
every admissible (n, p): sin^2 t_+ = (2p - 1) / (n + 1 + 2p + sqrt D) and
cos^2 t_- = (2n + 1 - 2p) / (3(n+1) - 2p + sqrt D) are quotients of positive
numbers.  cos^2 t and sin^2 t each come from a form without cancellation, and
t = atan2(sin t, cos t).  tr S still cancels like 1/n at small p and at p near
n, so each tube is computed at mp.dps plus the digits of n.
Every such tube is unstable (constant variations are negative directions); the
normal index is exactly one when

    (n+1)(4 L + n+1) > (15/4) T^2 + (2 L + n+1) |T| + 12 alpha T

holds with T = tr S and L the minimum squared principal curvature, via the
first-eigenvalue bound mu_1 >= (n+1) - |tr S|/2.

The condition is decided exactly, in integer pairs u + v sqrt D.  With
N = n + 1 and q = +1 (plus) or -1 (minus),

    C = 4N cos^2 t = 3N - 2p + q sqrt D,   S = 4N sin^2 t = N + 2p - q sqrt D

are positive (above).  With sigma = sqrt(CS), alpha = (C - S)/sigma,
cot t = C/sigma and -tan t = -S/sigma, so T = X/sigma with

    X = (C - S) + 2(p-1) C - 2(n-p) S,

and L = M/(CS) with M the square of the least of |C - S|, S and C, where C
counts only for p > 1 (cot t has multiplicity 2(p-1)).  C - S = 2N - 4p +
2q sqrt D has the sign of q, as D = (N - 2p)^2 + 4N; so the least is C - S
or S on the plus branch and S - C or C on the minus branch, one linear sign
test.  Multiplied by CS > 0 the condition reads 4A > 4B/sigma with

    4A = 4N(4M + N CS) - 15 X^2 - 48 (C - S) X,   B = (2M + N CS)|X| >= 0,

so it holds iff 4A > 0 and (4A)^2 CS > 16 B^2.  u + v sqrt D has the sign of
the nonzero one of u and v (0 if both are 0) unless their signs are strictly
opposite, and then the sign of u times that of u^2 - v^2 D.  The decision
makes no mp operation, so it does not depend on the working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidFamily, check_integer, mp
from .families import (
    CurvatureSpectrum,
    FamilyTag,
    HypersurfaceFamily,
    _angle_spectrum,
    trace_shape,
    trace_shape_squared,
)

BRANCHES = ("plus", "minus")
_FIFTEEN_QUARTERS = mp.mpf(15) / 4  # exact in binary, so one constant serves every precision


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
class StabilityReport(BiharmonicTube):
    """A biharmonic tube with its stability data."""

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
    n, p = check_integer(n, "n"), check_integer(p, "p")
    if n < 2 or not 1 <= p <= n - 1:
        raise InvalidFamily(f"need n >= 2 and 1 <= p <= n-1, got n={n}, p={p}")
    if p == 1:
        return HypersurfaceFamily(FamilyTag.CP_A1, n)
    return HypersurfaceFamily(FamilyTag.CP_A2, n, n - p)


def _discriminant(n: int, p: int) -> int:
    return n * n + 6 * n - 4 * (n + 1) * p + 4 * p * p + 5


def _workdps(n: int):
    """mp.workdps raised by the decimal digits of the int n, from its bit length
    (str(n) refuses more than 4300 digits)."""
    return mp.workdps(mp.dps + math.ceil(n.bit_length() * math.log10(2)))


def _tube(n: int, p: int, branch: str):
    """The tube of one branch with its cos t and sin t, for int n and p."""
    sqrt_disc = mp.sqrt(_discriminant(n, p))
    base = 3 * (n + 1) - 2 * p
    if branch == "plus":
        cs, sn = (base + sqrt_disc) / (4 * (n + 1)), (2 * p - 1) / (n + 1 + 2 * p + sqrt_disc)
    else:
        cs, sn = (2 * n + 1 - 2 * p) / (base + sqrt_disc), (n + 1 + 2 * p + sqrt_disc) / (4 * (n + 1))
    cos_t, sin_t = mp.sqrt(cs), mp.sqrt(sn)
    return BiharmonicTube(n=n, p=p, branch=branch, cos_sq_t=cs, t=mp.atan2(sin_t, cos_t)), cos_t, sin_t


def biharmonic_radii(n: int, p: int) -> list:
    """Both biharmonic tubes over CP^(n-p), plus branch first."""
    n, p = tube_family(n, p).n, check_integer(p, "p")
    with _workdps(n):
        return [_tube(n, p, branch)[0] for branch in BRANCHES]


def lambda_min_squared(spectrum: CurvatureSpectrum):
    """Minimum squared principal curvature, the Hopf curvature included, of a spectrum the package made."""
    return min([spectrum.alpha**2] + [lam**2 for lam, _ in spectrum.branches])


def first_eigenvalue_bound(n: int, trace):
    """Lower bound (n+1) - |tr S|/2 on the first nonzero Laplace eigenvalue from a
    trace tr S the package made, valid for hypersurfaces of an Einstein ambient with Ricci = 2(n+1) g."""
    return (n + 1) - abs(trace) / 2


def _sign(u: int, v: int, d: int) -> int:
    """Sign of u + v sqrt(d) for ints u, v and d > 0."""
    if u > 0 > v or v > 0 > u:
        w = u * u - v * v * d
        return (w > 0) - (w < 0) if u > 0 else (w < 0) - (w > 0)
    return (u > 0) - (u < 0) or (v > 0) - (v < 0)


def _index_one_margin(n: int, p: int, branch: str):
    """The exact (u, v) pairs of X, M, CS, 4A and B of the module docstring, for int n and p."""
    big, q, d = n + 1, 1 if branch == "plus" else -1, _discriminant(n, p)
    c0, s0 = 3 * big - 2 * p, big + 2 * p
    du, dv = c0 - s0, 2 * q  # C - S
    ku, kv = c0 * s0 - d, q * (s0 - c0)  # CS
    xu, xv = du + 2 * (p - 1) * c0 - 2 * (n - p) * s0, 2 * q * n  # X
    if q > 0:  # C > S: the least of C - S and S
        if _sign(du - s0, 3, d) <= 0:
            lu, lv = du, dv
        else:
            lu, lv = s0, -1
    elif p == 1 or _sign(s0 - 2 * c0, 3, d) <= 0:  # C < S: the least of S - C and, for p > 1, C
        lu, lv = -du, 2
    else:
        lu, lv = c0, -1
    mu, mv = lu * lu + lv * lv * d, 2 * lu * lv  # M
    gu, gv = big * ku, big * kv  # N CS
    au = 4 * big * (4 * mu + gu) - 15 * (xu * xu + xv * xv * d) - 48 * (du * xu + dv * xv * d)
    av = 4 * big * (4 * mv + gv) - 30 * xu * xv - 48 * (du * xv + dv * xu)
    hu, hv, sx = 2 * mu + gu, 2 * mv + gv, _sign(xu, xv, d)  # B = (2M + N CS) sign(X) X
    bu, bv = sx * (hu * xu + hv * xv * d), sx * (hu * xv + hv * xu)
    return (xu, xv), (mu, mv), (ku, kv), (au, av), (bu, bv)


def _index_one_holds(n: int, p: int, branch: str) -> bool:
    """Whether the index-one condition holds on one tube, decided exactly: 4A > 0 and (4A)^2 CS > 16 B^2."""
    _, _, (ku, kv), (au, av), (bu, bv) = _index_one_margin(n, p, branch)
    d = _discriminant(n, p)
    if _sign(au, av, d) <= 0:
        return False
    su, sv = au * au + av * av * d, 2 * au * av
    return _sign(su * ku + sv * kv * d - 16 * (bu * bu + bv * bv * d), su * kv + sv * ku - 32 * bu * bv, d) > 0


def stability_condition(n: int, p: int, branch: str) -> StabilityReport:
    """Evaluate the index-one sufficient condition on one biharmonic tube.

    The constant-function witness tr S (tr S + 3 alpha) > 0 certifies
    instability unconditionally; when the condition holds the normal index is
    exactly one, otherwise only index >= 1 is claimed.  ``lhs`` and ``rhs``
    are its two sides in mp; whether it holds is decided exactly.
    """
    if branch not in BRANCHES:
        raise InvalidFamily(f"branch must be one of {BRANCHES}, got {branch!r}")
    family = tube_family(n, p)
    n, p = family.n, check_integer(p, "p")
    with _workdps(n):
        tube, cos_t, sin_t = _tube(n, p, branch)
        spec = _angle_spectrum(family, cos_t, sin_t)
        tr = trace_shape(spec)
        tr2 = trace_shape_squared(spec)
        lam_min = lambda_min_squared(spec)
        lhs = (n + 1) * (4 * lam_min + n + 1)
        rhs = _FIFTEEN_QUARTERS * tr**2 + (2 * lam_min + n + 1) * abs(tr) + 12 * spec.alpha * tr
        witness = tr * (tr + 3 * spec.alpha)
    holds = _index_one_holds(n, p, branch)
    return StabilityReport(
        **vars(tube),
        trace=tr,
        trace_sq=tr2,
        alpha=spec.alpha,
        lambda_min_sq=lam_min,
        mu1_lower_bound=first_eigenvalue_bound(n, tr),
        lhs=lhs,
        rhs=rhs,
        constant_witness=witness,
        condition_holds=holds,
        index_claim=IndexClaim.INDEX_EXACTLY_1 if holds else IndexClaim.UNSTABLE_INDEX_GE_1,
    )


def index_threshold_scan(p: int, n_max: int) -> ThresholdScan:
    """Smallest n in (p+1, n_max] whose plus branch satisfies the condition,
    together with whether it keeps holding up to n_max; each step is the exact
    decision, with no report and no mp operation."""
    p, n_max = check_integer(p, "p"), check_integer(n_max, "n_max")
    if p < 1 or n_max <= p + 1:
        raise InvalidFamily(f"need p >= 1 and n_max > p+1, got p={p}, n_max={n_max}")
    threshold = None
    holds_above = True
    for n in range(p + 2, n_max + 1):
        holds = _index_one_holds(n, p, "plus")
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

    all from c = cos^2 t and s = sin^2 t: tan^2 t = s/c and 4 cot^2 2t = (c-s)^2/(cs).
    """
    report = stability_condition(n, p, "plus")
    n, p, tr = report.n, report.p, report.trace
    with _workdps(n):
        c, s = report.cos_sq_t, mp.sin(report.t) ** 2
        lead = mp.mpf(2 * n) / (2 * p - 1)
        return AsymptoticErrors(
            cot2_2t=abs((c - s) ** 2 / (c * s) - lead) / n,
            cot2_t=abs(c / s - lead) / n,
            tan2_t=abs(s / c - mp.mpf(2 * p - 1) / (2 * n)) * n,
            trace=abs(tr - 2 * mp.sqrt(4 * p - 2) / mp.sqrt(n)) * mp.sqrt(n),
        )
