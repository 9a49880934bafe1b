"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and nothing is deferred to calibration.
"""

import random
import time
from fractions import Fraction

import numpy as np
from mpmath import mp

from hopfharmonic import (
    FamilyTag,
    HypersurfaceFamily,
    a2_closed_form,
    asymptotic_check,
    biharmonic_radii,
    build_quartic,
    chn_scan,
    count_solutions,
    curvature_spectrum,
    index_threshold_scan,
    isolate_and_refine,
    residual,
    residual_grid,
    stability_condition,
    trace_shape_squared,
    tube_family,
    x_from_radius,
)
from hopfharmonic.errors import to_fraction

F = HypersurfaceFamily
CP = FamilyTag


def _report(number: int, message: str):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def _cp_families(n_max: int, include_curve=False):
    start = 1 if include_curve else 2
    fams = [F(CP.CP_A1, n) for n in range(start, n_max + 1)]
    fams += [F(CP.CP_A2, n, k) for n in range(3, n_max + 1) for k in range(1, n - 1)]
    fams += [F(CP.CP_B, n) for n in range(2, n_max + 1)]
    fams += [F(CP.CP_C, n) for n in range(5, n_max + 1, 2)]
    fams += [F(CP.CP_D, 9), F(CP.CP_E, 15)]
    return fams


def test_criterion_01_exact_probe_identities():
    started = time.monotonic()
    orders = (2, 17)
    for r in orders:
        for n in range(2, 201):
            pa1 = build_quartic(F(CP.CP_A1, n), r)
            assert 2 * n**4 * pa1.evaluate(Fraction(1, 2 * n)) == -(n - 1) * (2 * n - 1) ** 2
            assert (n + 3) ** 4 * pa1.evaluate(Fraction(2, n + 3)) == -(3 * n * n + 2 * n + 11) * (n + 7) * (n - 1)
            pb = build_quartic(F(CP.CP_B, n), r)
            assert n**4 * pb.evaluate(Fraction(1, n)) == 2 * (3 * n - 1) * (n - 1) ** 3
            for k in range(1, n - 1):
                pa2 = build_quartic(F(CP.CP_A2, n, k), r)
                value = 2 * n**4 * pa2.evaluate(Fraction(2 * k + 1, 2 * n))
                assert value == -(n - 1) * (2 * n - 2 * k - 1) ** 2 * (2 * k + 1) ** 2
        for n in range(5, 201, 2):
            pc = build_quartic(F(CP.CP_C, n), r)
            assert n**4 * pc.evaluate(Fraction(2, n)) == 8 * (3 * n - 1) * (n - 1) * (n - 2) ** 2
    elapsed = time.monotonic() - started
    assert elapsed < 10
    _report(1, f"rational probe identities exact for 2 <= n <= 200 in {elapsed:.1f}s")


def test_criterion_02_boundary_values():
    targets = {
        CP.CP_A1: lambda n, k: (1, (2 * n - 1) ** 2),
        CP.CP_A2: lambda n, k: ((2 * k + 1) ** 2, (2 * k - 2 * n + 1) ** 2),
        CP.CP_B: lambda n, k: (4, 4 * (n - 1) ** 2),
        CP.CP_C: lambda n, k: (16, 4 * (n - 2) ** 2),
        CP.CP_D: lambda n, k: (16, 25),
        CP.CP_E: lambda n, k: (72, 162),
    }
    for fam in _cp_families(200):
        at0, at1 = targets[fam.tag](fam.n, fam.k)
        for r in (2, 97):
            poly = build_quartic(fam, r)
            assert poly.evaluate(0) == at0
            assert poly.evaluate(1) == at1
    _report(2, "endpoint values exact for 2 <= n <= 200 and all admissible k")


def test_criterion_03_cross_consistency():
    started = time.monotonic()
    tol_root = Fraction(1, 10**20)
    n_checked = 0
    for fam in _cp_families(20, include_curve=True):
        lo, hi = fam.radius_domain()
        step = float(hi) / 1000
        ts = np.arange(1000) * step + step / 2  # 1000 interior radii
        for r in range(2, 31):
            poly = build_quartic(fam, r)
            certs = isolate_and_refine(poly, 0, 1, tol_root)
            for cert in certs:
                assert abs(cert.residual_at_radius) <= 1e-9, (fam, r, cert)
            roots = [float(cert.refined_root) for cert in certs]
            values = residual_grid(fam, r, ts)
            signs = np.sign(values)
            flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
            for i in flips:
                xa = float(x_from_radius(fam, ts[i]))
                xb = float(x_from_radius(fam, ts[i + 1]))
                xlo, xhi = min(xa, xb) - 1e-9, max(xa, xb) + 1e-9
                assert any(xlo <= root <= xhi for root in roots), (fam, r, ts[i])
            n_checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300
    _report(3, f"{n_checked} (family, order) pairs round-trip in {elapsed:.0f}s")


def test_criterion_04_exact_count_thresholds():
    for n in range(2, 11):
        assert count_solutions(F(CP.CP_A1, n), 2 * n + 13) == 4
    d, e = F(CP.CP_D, 9), F(CP.CP_E, 15)
    for r in range(89, 151):
        assert count_solutions(d, r) == 4
    for r in range(100, 151):
        assert count_solutions(e, r) == 4
    for n in range(2, 11):
        for r in range(2, 41):
            assert count_solutions(F(CP.CP_A1, n), r) >= 2
    for n in range(3, 11):
        for k in range(1, n - 1):
            fam = F(CP.CP_A2, n, k)
            for r in range(2, 41):
                assert count_solutions(fam, r) >= 2
    for r in range(32, 89):
        assert count_solutions(d, r) >= 2
    for r in range(27, 100):
        assert count_solutions(e, r) >= 2
    c5 = F(CP.CP_C, 5)
    for r in (*range(300, 321), 1000, 7001, 7002):
        assert count_solutions(c5, r) >= 2
    for n in (2, 3):
        fam = F(CP.CP_B, n)
        start = min(6001, 12 * n * n + 16 * n - 19)
        for r in (*range(start, start + 21), 6001, 6002):
            assert count_solutions(fam, r) >= 2
    _report(4, "certified counts meet every threshold with zero tolerance")


def test_criterion_05_balanced_biquadratic_branch():
    with mp.workdps(60):
        for n in (3, 5, 7, 9):
            fam = F(CP.CP_A2, n, (n - 1) // 2)
            for r in range(2, 41):
                a4, a3, a2, a1, _ = build_quartic(fam, r).coefficients()
                assert a3**3 - 4 * a4 * a3 * a2 + 8 * a4 * a4 * a1 == 0
                roots = a2_closed_form(n, r)
                certs = isolate_and_refine(build_quartic(fam, r), 0, 1, Fraction(1, 10**24))
                assert len(certs) == 2
                assert abs(roots.x_minus - certs[0].refined_root) < mp.mpf(10) ** (-20)
                assert abs(roots.x_plus - certs[1].refined_root) < mp.mpf(10) ** (-20)
        roots = a2_closed_form(3, 2)
        assert roots.x_plus == mp.mpf(3) / 4
        assert roots.x_minus == mp.mpf(1) / 4
        assert roots.cos_4t == mp.mpf(-1) / 2
    _report(5, "biquadratic relation exact; closed-form roots match to 1e-20")


def test_criterion_06_curve_case():
    fam = F(CP.CP_A1, 1)
    for r in range(2, 101):
        t = mp.asin(1 / mp.sqrt(r)) / 2
        assert abs(residual(fam, t, r).residual) <= 1e-12
    _report(6, "circle residual vanishes at sin^2(2t) = 1/r for 2 <= r <= 100")


def test_criterion_07_hyperbolic_nonexistence():
    grid = np.linspace(0.004, 15.0, 10_000)
    worst = -np.inf
    fams = []
    for n in range(2, 11):
        fams += [F(CP.CH_A0, n), F(CP.CH_A1_GEODESIC, n), F(CP.CH_A1_POINT, n), F(CP.CH_B, n)]
        fams += [F(CP.CH_A2, n, k) for k in range(1, n - 1)]
    for fam in fams:
        for r in range(2, 21):
            worst = max(worst, chn_scan(fam, r, grid))
    assert worst < -1e-6
    _report(7, f"hyperbolic residuals negative on 1e4-point grids (max {worst:.3g})")


def test_criterion_08_biharmonic_identity():
    for n in range(2, 61):
        for p in range(1, n):
            fam = tube_family(n, p)
            tubes = biharmonic_radii(n, p)
            assert tubes, (n, p)
            certs = isolate_and_refine(build_quartic(fam, 2), 0, 1, Fraction(1, 10**30))
            intervals = [cert.isolating_interval for cert in certs]
            for tube in tubes:
                spec = curvature_spectrum(fam, tube.t)
                assert abs(trace_shape_squared(spec) - 2 * (n + 1)) <= 1e-10
                x = to_fraction(x_from_radius(fam, tube.t))
                assert any(lo < x < hi for lo, hi in intervals), (n, p, tube.branch)
    tubes = biharmonic_radii(2, 1)
    sqrt13 = mp.sqrt(13)
    assert abs(tubes[0].cos_sq_t - (7 + sqrt13) / 12) <= 1e-15
    assert abs(tubes[1].cos_sq_t - (7 - sqrt13) / 12) <= 1e-15
    _report(8, "trace identity and quartic membership hold for n <= 60")


def test_criterion_09_stability():
    for n in range(2, 61):
        for p in range(1, n):
            for tube in biharmonic_radii(n, p):
                rep = stability_condition(n, p, tube.branch)
                assert rep.constant_witness > 0, (n, p, tube.branch)
    thresholds = {}
    for p in (1, 2, 3):
        scan = index_threshold_scan(p, 500)
        assert scan.threshold is not None and scan.threshold <= 500
        assert scan.holds_for_all_larger
        thresholds[p] = scan.threshold
    small = asymptotic_check(1, 10**4)
    large = asymptotic_check(1, 16 * 10**4)
    for field in ("cot2_2t", "cot2_t", "tan2_t", "trace"):
        assert getattr(small, field) / getattr(large, field) >= 2
    _report(9, f"all tubes unstable; empirical index-one onsets {thresholds}")


def test_criterion_10_trigonometric_identities():
    rng = random.Random(271828)
    with mp.workdps(40):
        for _ in range(1000):
            t = mp.mpf(rng.uniform(1e-4, float(mp.pi) / 4 - 1e-4))
            lams = [mp.cot(t - j * mp.pi / 4) for j in range(4)]
            rhs1 = 4 * mp.cot(4 * t)
            rhs2 = 12 + 16 * mp.cot(4 * t) ** 2
            assert abs(mp.fsum(lams) - rhs1) <= 1e-10 * max(1, abs(rhs1))
            assert abs(mp.fsum(l * l for l in lams) - rhs2) <= 1e-10 * abs(rhs2)
    _report(10, "quarter-turn cotangent identities hold at 1000 random radii")
