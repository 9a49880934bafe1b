"""Existence counts for proper r-harmonic tubes in the projective families.

Root counts are certified by exact Sturm counts in (0, 1) and the proper
radii by ``certify_radii``; the rational probe points used by the
intermediate-value arguments are retained as a secondary witness, with
every probe value evaluated in exact arithmetic.  The A2 tube of radius t
over CP^k is the tube of radius pi/2 - t over CP^(n-1-k) (Takagi's list;
Cecil & Ryan, *Geometry of Hypersurfaces*, 2015): P_{n,k}(x) =
P_{n,n-1-k}(1 - x), and A1 is A2 at k = 0.  So k > k2 exactly when
n-1-k < k1; that side's test, k2 and probes are the dual's k < k1 ones, and
the paper's eta2(n, k) is eta1(n, n-1-k).
Self-dual families, 2k = n - 1 (for A1: n = 1), have proper roots x and 1 - x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidFamily, NoExactCountGuarantee, NotApplicable, ProbesCollide, check_integer, check_order, mp
from .families import FamilyTag, HypersurfaceFamily, check_family, minimal_x, r_independent_x
from .quartic import build_quartic, count_real_roots, isolate_and_refine


@dataclass(frozen=True)
class ProbeReport:
    """Exact quartic values at the probe points {0, x0, x1, x2, 1}."""

    family: HypersurfaceFamily
    r: int
    points: tuple
    values: tuple

    @property
    def signs(self) -> tuple:
        return tuple((v > 0) - (v < 0) for v in self.values)

    @property
    def pattern(self) -> str:
        return "".join({1: "+", -1: "-", 0: "0"}[s] for s in self.signs)


class ThresholdPair(NamedTuple):
    """Orders guaranteeing at least two, and exactly four, proper tubes.

    ``r_four`` is None for the self-dual families, 2k = n - 1 (balanced A2 and
    the A1 curve n = 1): P(x) = P(1 - x), and both x and 1 - x are proper roots.
    """

    r_two: int
    r_four: int | None


# Order-dependent outer probes (x0 = a/r, x2 = 1 - b/r) around the minimal tube.
_OUTER_PROBES = {FamilyTag.CP_B: (2, 5), FamilyTag.CP_C: (5, 4), FamilyTag.CP_D: (5, 3), FamilyTag.CP_E: (5, 4)}


def _probe_triple(family: HypersurfaceFamily, r: int):
    n, k, tag = family.n, family.k, family.tag
    x_min = minimal_x(family)
    if tag is FamilyTag.CP_A1:
        return x_min, x_min + Fraction(1, n * r), r_independent_x(family)
    if tag is FamilyTag.CP_A2:
        above = k_above_k2(n, k)  # then: the layout of the dual (n, n-1-k), whose x_min is 1 - x_min, under x -> 1 - x
        if not (above or k_below_k1(n, k)):
            raise NoExactCountGuarantee(f"no probe layout for CP_A2 with n={n}, k={k} inside the k-window")
        x_low = 1 - x_min if above else x_min
        triple = x_low, x_low + Fraction(1, r), 1 - Fraction(1, r)
        return tuple(1 - x for x in reversed(triple)) if above else triple
    a, b = _OUTER_PROBES[tag]
    return Fraction(a, r), x_min, 1 - Fraction(b, r)


def probe_values(family: HypersurfaceFamily, r: int) -> ProbeReport:
    """Exact values of the family quartic at its proof probe points.

    Above the exact-count threshold every family realises the sign pattern
    + - + - + across (0, x0, x1, x2, 1), which forces four roots.
    """
    poly = build_quartic(family, r)
    points = (Fraction(0), *_probe_triple(family, r), Fraction(1))
    if not all(a < b for a, b in zip(points, points[1:])):
        raise ProbesCollide(f"probe points {points[1:4]} not strictly ordered in (0, 1) at r={r}")
    values = tuple(poly.evaluate(x) for x in points)
    return ProbeReport(family=family, r=r, points=points, values=values)


def guaranteed_thresholds(family: HypersurfaceFamily) -> ThresholdPair:
    """Orders past which the family certifiably has >= 2, resp. exactly 4, tubes."""
    check_family(family, projective=True)
    n, k, tag = family.n, family.k, family.tag
    if 2 * (k or 0) == n - 1:  # self-dual: balanced A2 (2k = n - 1) and the A1 curve (n = 1, read as k = 0)
        return ThresholdPair(2, None)
    if tag is FamilyTag.CP_A1:
        return ThresholdPair(2, 2 * n + 13)
    if tag is FamilyTag.CP_B:
        poly_bound = 12 * n * n + 16 * n - 19
        return ThresholdPair(min(6001, poly_bound), max(6001, poly_bound))
    if tag is FamilyTag.CP_C:
        return ThresholdPair(300, -((-(1125 * n * n + 375 * n - 1996)) // 4))
    if tag is FamilyTag.CP_D:
        return ThresholdPair(32, 89)
    if tag is FamilyTag.CP_E:
        return ThresholdPair(27, 100)
    if k_below_k1(n, k):
        return ThresholdPair(2, 4 * (22 * k**4 + 85 * k**3 + 123 * k**2 + 54 * k + 8) * k * k)
    if k_above_k2(n, k):
        return ThresholdPair(2, 4 * (6 * k**4 + 19 * k**3 + 39 * k**2 + 8 * k + 2) * (2 * k + 1) * k)
    raise NoExactCountGuarantee(f"no exact-count threshold for CP_A2 with n={n}, k={k}")


def count_solutions(family: HypersurfaceFamily, r: int) -> int:
    """Number of proper r-harmonic radii: quartic roots in (0, 1), excluding a
    root coinciding with the minimal radius (exact rational comparison)."""
    poly = build_quartic(family, r)
    count = count_real_roots(poly, 0, 1)
    if poly.evaluate(minimal_x(family)) == 0:
        count -= 1
    return count


def certify_radii(family: HypersurfaceFamily, r: int, tol) -> list:
    """Certificates of the proper r-harmonic radii, one per root that
    ``count_solutions`` counts: each root of the family quartic in (0, 1),
    refined to tol, with its radius and residual report; a root at the
    minimal radius (exact rational test) is not proper and is dropped."""
    poly = build_quartic(family, r)
    certs = isolate_and_refine(poly, 0, 1, tol)
    x_min = minimal_x(family)
    if poly.evaluate(x_min) != 0:
        return certs
    return [cert for cert in certs if not cert.isolating_interval[0] < x_min < cert.isolating_interval[1]]


@dataclass(frozen=True)
class BalancedTubeRoots:
    """Closed-form roots of the balanced A2 quartic (2k = n-1)."""

    x_plus: object
    x_minus: object
    cos_4t: object


def a2_closed_form(n: int, r: int) -> BalancedTubeRoots:
    """Both proper radii of the balanced A2 family, in closed form.

    For odd n and k = (n-1)/2 the quartic satisfies the biquadratic relation
    a3^3 - 4 a4 a3 a2 + 8 a4^2 a1 = 0 exactly, and its two real roots are
    x_(+/-) = 1/2 +/- (1/2) [2n(n+3)r - 4(n-1)]^(-1/2) [n(n+3)r - 4(n^2+n-1) + n sqrt(w)]^(1/2)
    with w = (n+3)^2 r^2 - 8n(n+3) r + 16 (n^2 + 2n - 2).  The difference cancels
    like 1/r, so x_- comes from the product x_+ x_- = 2n / ((n+3)r + 4n + sqrt(w)).
    """
    n = check_integer(n, "n")
    if n < 3 or n % 2 == 0:
        raise NotApplicable(f"closed form needs odd n >= 3, got n={n}")
    r = check_order(r)
    omega = (n + 3) ** 2 * r * r - 8 * n * (n + 3) * r + 16 * (n * n + 2 * n - 2)
    sqrt_omega = mp.sqrt(omega)
    inner = n * (n + 3) * r - 4 * (n * n + n - 1) + n * sqrt_omega
    half_width = mp.sqrt(inner) / (2 * mp.sqrt(2 * n * (n + 3) * r - 4 * (n - 1)))
    cos_4t = (n * sqrt_omega - 2 * (2 * n - 1) * (n + 1)) / (n * (n + 3) * r - 2 * (n - 1))
    x_plus = mp.mpf(1) / 2 + half_width
    x_minus = 2 * n / (((n + 3) * r + 4 * n + sqrt_omega) * x_plus)
    return BalancedTubeRoots(x_plus=x_plus, x_minus=x_minus, cos_4t=cos_4t)


def k_below_k1(n: int, k: int) -> bool:
    """Exact integer test for k < k1, for n >= 2 and 0 <= k <= n - 1.

    k < k1 iff 5n^2 - 4n + 2 - 4(n - 1)k > n sqrt(13n^2 - 8n + 4).  On this
    domain the left side is at least n^2 + 4n - 2 > 0 (at k = n - 1), and its
    square minus the right side's is 4 (n - 1) eta1(n, k).
    """
    n, k = check_integer(n, "n"), check_integer(k, "k")
    if n < 2 or not 0 <= k <= n - 1:
        raise InvalidFamily(f"need n >= 2 and 0 <= k <= n - 1, got n={n}, k={k}")
    return eta1(n, k) > 0


def k_above_k2(n: int, k: int) -> bool:
    """Exact integer test for k > k2, that is n-1-k < k1, on the same domain."""
    n, k = check_integer(n, "n"), check_integer(k, "k")
    return k_below_k1(n, n - 1 - k)


def eta1(n: int, k: int) -> int:
    """Positivity witness for the lower A2 branch (positive iff k < k1 side)."""
    n, k = check_integer(n, "n"), check_integer(k, "k")
    return 4 * (n - 1) * k * k - (10 * n * n - 8 * n + 4) * k + 3 * n**3 - 5 * n * n + 3 * n - 1


def a1_offset_probe_poly(n: int) -> tuple:
    """Coefficients (b4..b0) of 2 n^4 r^4 P(x0 + 1/(n r)) as a polynomial in r
    for the A1 family, used as an exact regression witness for the 2n+13 bound."""
    n = check_integer(n, "n")
    return (
        (2 * n - 1) * (n * n - 1),
        -2 * (2 * n**4 + n**3 - 2 * n * n + 7 * n - 4),
        -4 * (2 * n**3 - 7 * n * n + 9 * n - 6),
        8 * (n**3 + 4 * n * n - 5 * n + 4),
        -16 * (n - 1),
    )
