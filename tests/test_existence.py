import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

import hopfharmonic
from hopfharmonic import mp
from hopfharmonic import (
    FamilyTag,
    HypersurfaceFamily,
    InvalidFamily,
    NoExactCountGuarantee,
    NotApplicable,
    ProbeReport,
    ProbesCollide,
    QuarticPoly,
    a1_offset_probe_poly,
    admissible_families,
    a2_closed_form,
    build_quartic,
    certify_radii,
    count_solutions,
    eta1,
    guaranteed_thresholds,
    isolate_and_refine,
    k_above_k2,
    k_below_k1,
    probe_values,
    radius_from_x,
    residual,
)

F = HypersurfaceFamily
CP = FamilyTag


class TestProbeValues:
    @pytest.mark.parametrize("n", [2, 3, 7, 19, 64])
    def test_a1_identities(self, n):
        report = probe_values(F(CP.CP_A1, n), 2 * n + 13)
        x0, x2 = report.points[1], report.points[3]
        assert x0 == Fraction(1, 2 * n) and x2 == Fraction(2, n + 3)
        assert 2 * n**4 * report.values[1] == -(n - 1) * (2 * n - 1) ** 2
        assert (n + 3) ** 4 * report.values[3] == -(3 * n * n + 2 * n + 11) * (n + 7) * (n - 1)

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_b_minimal_identity(self, n):
        report = probe_values(F(CP.CP_B, n), 12 * n * n + 16 * n - 19)
        assert n**4 * report.values[2] == 2 * (3 * n - 1) * (n - 1) ** 3

    @pytest.mark.parametrize("n,k", [(4, 1), (7, 2), (10, 8), (9, 4)])
    def test_a2_minimal_identity(self, n, k):
        poly = build_quartic(F(CP.CP_A2, n, k), 11)
        value = poly.evaluate(Fraction(2 * k + 1, 2 * n))
        assert 2 * n**4 * value == -(n - 1) * (2 * n - 2 * k - 1) ** 2 * (2 * k + 1) ** 2

    @pytest.mark.parametrize(
        "fam,r",
        [
            (F(CP.CP_A1, 2), 17),
            (F(CP.CP_A1, 6), 25),
            (F(CP.CP_B, 2), 6001),
            (F(CP.CP_B, 3), 6001),
            (F(CP.CP_C, 5), 7001),
            (F(CP.CP_D, 9), 89),
            (F(CP.CP_E, 15), 100),
            (F(CP.CP_A2, 5, 1), 1168),
            (F(CP.CP_A2, 5, 3), 115584),
        ],
        ids=lambda v: str(getattr(v, "tag", v)),
    )
    def test_sign_pattern_at_threshold_and_beyond(self, fam, r):
        for order in (r, r + 1, r + 37):
            report = probe_values(fam, order)
            assert report.pattern == "+-+-+"
            assert all(a < b for a, b in zip(report.points, report.points[1:]))

    def test_a_zero_value_has_sign_zero(self):
        # no family quartic checked vanishes at a probe, so the report is built by hand
        report = ProbeReport(F(CP.CP_D, 9), 89, (0, 1, 2), (Fraction(3), Fraction(0), Fraction(-1, 7)))
        assert report.signs == (1, 0, -1) and report.pattern == "+0-"

    @pytest.mark.parametrize(
        "fam,r,expected",
        [
            (F(CP.CP_A1, 6), 25, lambda n, k, r: (Fraction(1, 2 * n), Fraction(1, 2 * n) + Fraction(1, n * r),
                                                  Fraction(2, n + 3))),
            (F(CP.CP_B, 3), 6001, lambda n, k, r: (Fraction(2, r), Fraction(1, n), 1 - Fraction(5, r))),
            (F(CP.CP_C, 5), 7001, lambda n, k, r: (Fraction(5, r), Fraction(2, n), 1 - Fraction(4, r))),
            (F(CP.CP_D, 9), 89, lambda n, k, r: (Fraction(5, r), Fraction(4, 9), 1 - Fraction(3, r))),
            (F(CP.CP_E, 15), 100, lambda n, k, r: (Fraction(5, r), Fraction(2, 5), 1 - Fraction(4, r))),
            (F(CP.CP_A2, 5, 1), 1168, lambda n, k, r: (Fraction(2 * k + 1, 2 * n),
                                                      Fraction(2 * k + 1, 2 * n) + Fraction(1, r),
                                                      1 - Fraction(1, r))),
            (F(CP.CP_A2, 5, 3), 115584, lambda n, k, r: (Fraction(1, r),
                                                        Fraction(2 * k + 1, 2 * n) - Fraction(1, r),
                                                        Fraction(2 * k + 1, 2 * n))),
        ],
        ids=["A1", "B", "C", "D", "E", "A2-below-k1", "A2-above-k2"],
    )
    def test_points_follow_the_paper_layout(self, fam, r, expected):
        # the layout restated per type, independent of families.minimal_x
        for order in (r, r + 1, r + 37):
            report = probe_values(fam, order)
            assert report.points == (Fraction(0), *expected(fam.n, fam.k, order), Fraction(1))

    def test_above_k2_is_the_dual_below_k1_mirrored(self):
        # every A2 family with n <= 40 past k2, at its paper threshold and far beyond
        for fam in admissible_families(CP.CP_A2, 40):
            n, k = fam.n, fam.k
            if not k_above_k2(n, k):
                continue
            dual = F(CP.CP_A2, n, n - 1 - k)
            r_four = guaranteed_thresholds(fam).r_four
            for r in (r_four, r_four + 1, 10**6 + 7):
                report, mirror = probe_values(fam, r), probe_values(dual, r)
                assert report.points == tuple(1 - x for x in reversed(mirror.points))
                assert report.values == mirror.values[::-1]
                assert count_solutions(fam, r) == count_solutions(dual, r)

    def test_probes_collide_for_small_orders(self):
        with pytest.raises(ProbesCollide):
            probe_values(F(CP.CP_B, 2), 2)
        with pytest.raises(ProbesCollide):  # only x1 = x2 = 1/2; the other points are in order
            probe_values(F(CP.CP_B, 2), 10)
        with pytest.raises(ProbesCollide) as refused:
            probe_values(F(CP.CP_A1, 2), 3)
        # the message names the three interior probes x0, x1, x2
        points = "(Fraction(1, 4), Fraction(5, 12), Fraction(2, 5))"
        assert str(refused.value) == f"probe points {points} not strictly ordered in (0, 1) at r=3"

    def test_a2_window_has_no_probe_layout(self):
        with pytest.raises(NoExactCountGuarantee):
            probe_values(F(CP.CP_A2, 10, 4), 100)


class TestThresholds:
    def test_fixed_families(self):
        assert guaranteed_thresholds(F(CP.CP_D, 9)) == (32, 89)
        assert guaranteed_thresholds(F(CP.CP_E, 15)) == (27, 100)

    def test_c_family_rounding(self):
        assert guaranteed_thresholds(F(CP.CP_C, 5)) == (300, 7001)
        thr = guaranteed_thresholds(F(CP.CP_C, 7))
        assert thr.r_four == math.ceil((1125 * 49 + 375 * 7 - 1996) / 4)

    def test_b_min_max_swap(self):
        assert guaranteed_thresholds(F(CP.CP_B, 2)) == (61, 6001)
        assert guaranteed_thresholds(F(CP.CP_B, 30)) == (6001, 12 * 900 + 480 - 19)

    def test_a1(self):
        for n in (2, 9):
            assert guaranteed_thresholds(F(CP.CP_A1, n)) == (2, 2 * n + 13)

    def test_a1_curve_has_no_four_count(self):
        # the curve n = 1 has exactly two proper radii for every order
        assert guaranteed_thresholds(F(CP.CP_A1, 1)) == (2, None)
        for r in (2, 15, 100, 9999):
            assert count_solutions(F(CP.CP_A1, 1), r) == 2

    def test_a2_branches(self):
        low = guaranteed_thresholds(F(CP.CP_A2, 5, 1))
        assert low == (2, 4 * (22 + 85 + 123 + 54 + 8) * 1)
        # at k = 1 every power of k is 1; k = 2 < k1 (about 6.6 for n = 20) tells them apart
        assert guaranteed_thresholds(F(CP.CP_A2, 20, 2)) == (2, 26240)
        high = guaranteed_thresholds(F(CP.CP_A2, 5, 3))
        assert high == (2, 4 * (6 * 81 + 19 * 27 + 39 * 9 + 8 * 3 + 2) * 7 * 3)

    def test_balanced_a2_has_no_four_count(self):
        pair = guaranteed_thresholds(F(CP.CP_A2, 9, 4))
        assert pair.r_two == 2 and pair.r_four is None

    def test_window_k_has_no_guarantee(self):
        for k in (4, 5):  # strictly inside (k1, k2) for n = 10
            with pytest.raises(NoExactCountGuarantee):
                guaranteed_thresholds(F(CP.CP_A2, 10, k))


class TestCounts:
    def test_frozen_examples(self):
        assert count_solutions(F(CP.CP_A2, 3, 1), 2) == 2
        assert count_solutions(F(CP.CP_A1, 2), 17) == 4
        assert count_solutions(F(CP.CP_A1, 2), 2) == 2

    def test_curve_counts_radii(self):
        # two radii parametrise congruent circles; both satisfy the equation
        assert count_solutions(F(CP.CP_A1, 1), 4) == 2

    @pytest.mark.parametrize("fam", [F(CP.CP_A1, n) for n in range(2, 11)], ids=lambda f: f"n{f.n}")
    def test_a1_exactly_four_at_threshold(self, fam):
        r_four = guaranteed_thresholds(fam).r_four
        for r in (r_four, r_four + 13, r_four + 50):
            assert count_solutions(fam, r) == 4

    def test_at_least_two_for_all_orders(self):
        fams = [F(CP.CP_A1, n) for n in range(2, 8)]
        fams += [F(CP.CP_A2, n, k) for n in range(3, 8) for k in range(1, n - 1)]
        for fam in fams:
            for r in range(2, 41):
                assert count_solutions(fam, r) >= 2

    def test_d_and_e_windows(self):
        d = F(CP.CP_D, 9)
        for r in (32, 55, 88):
            assert count_solutions(d, r) >= 2
        for r in (89, 101, 139):
            assert count_solutions(d, r) == 4
        e = F(CP.CP_E, 15)
        for r in (27, 60, 99):
            assert count_solutions(e, r) >= 2
        for r in (100, 123, 150):
            assert count_solutions(e, r) == 4

    def test_b_and_c_exact_four_beyond_threshold(self):
        for r in (6001, 6031):
            assert count_solutions(F(CP.CP_B, 2), r) == 4
        for r in (7001, 7051):
            assert count_solutions(F(CP.CP_C, 5), r) == 4
        for r in (300, 350):
            assert count_solutions(F(CP.CP_C, 5), r) >= 2

    def test_a2_exact_four_beyond_branch_bounds(self):
        low = F(CP.CP_A2, 5, 1)
        r_low = max(guaranteed_thresholds(low).r_four, 18 * 25 + 65 * 5 + 16 + 1)
        assert count_solutions(low, r_low) == 4
        assert count_solutions(low, r_low + 29) == 4
        high = F(CP.CP_A2, 5, 3)
        r_high = max(guaranteed_thresholds(high).r_four, 18 * 25 + 65 * 5 + 16 + 1)
        assert count_solutions(high, r_high) == 4

    def test_balanced_a2_always_two(self):
        fam = F(CP.CP_A2, 9, 4)
        for r in (2, 17, 1000, 10**6):
            assert count_solutions(fam, r) == 2


def _cp_families(n_max):
    fams = [F(CP.CP_A1, n) for n in range(1, n_max + 1)]
    fams += [F(CP.CP_A2, n, k) for n in range(3, n_max + 1) for k in range(1, n - 1)]
    fams += [F(CP.CP_B, n) for n in range(2, n_max + 1)]
    fams += [F(CP.CP_C, n) for n in range(5, n_max + 1, 2)]
    return fams + [F(CP.CP_D, 9), F(CP.CP_E, 15)]


class TestCertifyRadii:
    @pytest.mark.parametrize("fam", _cp_families(8), ids=lambda f: f"{f.tag.value}-n{f.n}-k{f.k}")
    def test_one_certificate_per_counted_radius(self, fam):
        for r in (2, 3, 17, 89):
            certs = certify_radii(fam, r, 1e-20)
            assert len(certs) == count_solutions(fam, r)
            assert all(type(cert.residual_at_radius) is Fraction for cert in certs)

    def test_family_certificates_carry_radius_and_residual(self):
        fam = F(CP.CP_A2, 3, 1)
        certs = certify_radii(fam, 2, Fraction(1, 10**20))
        assert abs(certs[0].radius - mp.pi / 3) < 1e-25
        assert abs(certs[1].radius - mp.pi / 6) < 1e-25
        for cert in certs:
            assert cert.radius == radius_from_x(fam, cert.refined_root)
            assert abs(cert.residual_at_radius) < 1e-9
            assert abs(residual(fam, cert.radius, 2).residual) < 1e-9

    def test_only_roots_in_the_unit_interval_are_counted_and_certified(self, monkeypatch):
        # x = 3/2 gives no tube.  No family quartic checked has a root at or past 1, so (2x - 1)(2x - 3) stands in
        # for the quartic of a family whose minimal x is 1/4; it has no weight, and counting and radii need none
        fam, tol = F(CP.CP_A1, 2), Fraction(1, 10**8)
        stand_in = QuarticPoly(4, -8, 3)
        monkeypatch.setattr("hopfharmonic.existence.build_quartic", lambda family, r: stand_in)
        assert count_solutions(fam, 3) == 1
        ((lo, hi),) = [cert.isolating_interval for cert in certify_radii(fam, 3, tol)]
        assert lo < Fraction(1, 2) < hi

    def test_counts_and_intervals_keep_their_digest(self):
        # SHA-256 of the count and the isolating intervals of every CP family
        # with n <= 12, and of D and E: a pin on the exact layer's output
        fams = [f for tag in (CP.CP_A1, CP.CP_A2, CP.CP_B, CP.CP_C) for f in admissible_families(tag, 12)]
        digest = hashlib.sha256()
        for fam in fams + [F(CP.CP_D, 9), F(CP.CP_E, 15)]:
            for r in (2, 7, 30, 89):
                intervals = [c.isolating_interval for c in certify_radii(fam, r, Fraction(1, 10**24))]
                digest.update(f"{fam.tag.value} {fam.n} {fam.k} {r} {count_solutions(fam, r)} {intervals}\n".encode())
        assert digest.hexdigest() == "de893a8c73e2c02afc3b2b924f7f6f02d995bfab5bce844b6309f5e10631dd2d"

    def test_minimal_root_of_the_curve_is_dropped(self):
        fam, half = F(CP.CP_A1, 1), Fraction(1, 2)
        for r in (2, 4, 9):
            all_roots = isolate_and_refine(build_quartic(fam, r), 0, 1, 1e-20)
            assert any(lo < half < hi for lo, hi in (c.isolating_interval for c in all_roots))
            proper = certify_radii(fam, r, 1e-20)
            assert len(proper) == len(all_roots) - 1 == 2
            assert not any(lo < half < hi for lo, hi in (c.isolating_interval for c in proper))

    def test_a_fresh_interpreter_certifies_at_the_shipped_precision(self):
        # The other tests run at 40 digits.  Importing once raised mpmath.mp.dps to 30,
        # and a caller's mpmath.mp.dps = 15 then gave residuals up to 1.2e-9 at D's r_four;
        # here mpmath.mp.dps stays 15 while the certificates are made.
        script = """
import mpmath
import hopfharmonic as h
assert mpmath.mp.dps == 15 and h.mp.dps == 30, (mpmath.mp.dps, h.mp.dps)
family = h.HypersurfaceFamily(h.FamilyTag.CP_D, 9)
certs = h.certify_radii(family, 89, 1e-24)
assert len(certs) == 4
for cert in certs:
    assert abs(cert.residual_at_radius) <= 1e-20, cert.residual_at_radius
    rep = h.residual(family, cert.radius, 89)
    assert abs(rep.residual) <= 1e-20 and abs(rep.trace) > 1e-15, cert.radius
"""
        src = str(Path(hopfharmonic.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestBalancedClosedForm:
    def test_n3_r2_exact(self):
        roots = a2_closed_form(3, 2)
        assert abs(roots.x_plus - mp.mpf(3) / 4) < 1e-35
        assert abs(roots.x_minus - mp.mpf(1) / 4) < 1e-35
        assert abs(roots.cos_4t + mp.mpf(1) / 2) < 1e-35

    def test_biquadratic_relation_exact(self):
        for n in range(3, 23, 2):
            for r in (2, 3, 17, 40):
                a4, a3, a2, a1, _ = build_quartic(F(CP.CP_A2, n, (n - 1) // 2), r).coefficients()
                assert a3**3 - 4 * a4 * a3 * a2 + 8 * a4 * a4 * a1 == 0

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_matches_certified_roots(self, n):
        fam = F(CP.CP_A2, n, (n - 1) // 2)
        with mp.workdps(60):
            for r in (2, 5, 17, 40):
                roots = a2_closed_form(n, r)
                certs = isolate_and_refine(build_quartic(fam, r), 0, 1, Fraction(1, 10**24))
                assert len(certs) == 2
                assert abs(roots.x_minus - certs[0].refined_root) < mp.mpf(10) ** (-20)
                assert abs(roots.x_plus - certs[1].refined_root) < mp.mpf(10) ** (-20)

    @pytest.mark.parametrize("n, r", [(3, 10**20), (101, 10**30)])
    def test_small_root_at_large_order(self, n, r):
        # x_- = 1/2 - half_width cancelled like 1/r: off by 2.6e-12 and 1.5e-2 relative here
        roots = a2_closed_form(n, r)
        certs = isolate_and_refine(build_quartic(F(CP.CP_A2, n, (n - 1) // 2), r), 0, 1, Fraction(1, 10**70))
        assert len(certs) == 2
        assert abs(roots.x_minus / certs[0].refined_root - 1) < 1e-25
        assert abs(roots.x_plus / certs[1].refined_root - 1) < 1e-25
        assert abs(roots.x_plus + roots.x_minus - 1) < 1e-25

    def test_limits_and_monotonicity(self):
        previous = a2_closed_form(3, 2)
        for r in (5, 20, 100, 10**4, 10**8):
            roots = a2_closed_form(3, r)
            assert roots.x_plus > previous.x_plus
            assert roots.x_minus < previous.x_minus
            previous = roots
        assert previous.x_plus > 1 - 1e-4
        assert previous.x_minus < 1e-4

    def test_even_n_rejected(self):
        with pytest.raises(NotApplicable):
            a2_closed_form(4, 2)


def _paper_k1(n):
    # the paper's k1, the reference for the exact window tests; its k2 is n - 1 - k1
    return (5 * n * n - 4 * n + 2 - n * mp.sqrt(13 * n * n - 8 * n + 4)) / (4 * (n - 1))


class TestKWindow:
    def test_upper_side_is_the_dual_lower_side(self):
        # the paper's own k > k2 expressions, now derived from k < k1 at n-1-k
        n, k = sympy.symbols("n k")
        paper_eta2 = 4 * (n - 1) * k * k + 2 * (n * n + 4 * n - 2) * k - 3 * n**3 + n * n + 3 * n - 1
        # eta1 takes integers; eta1(n, n-1-k) and paper_eta2 have degree <= 3 in n and <= 2 in k,
        # so agreeing on an 11 x 11 integer grid makes them the same polynomial
        assert all(eta1(m, m - 1 - j) == paper_eta2.subs({n: m, k: j}) for m in range(-5, 6) for j in range(-5, 6))
        sqrt_d = sympy.sqrt(13 * n * n - 8 * n + 4)
        paper_k1 = (5 * n * n - 4 * n + 2 - n * sqrt_d) / (4 * (n - 1))
        paper_k2 = (n * sqrt_d - n * n - 4 * n + 2) / (4 * (n - 1))
        assert sympy.cancel(n - 1 - paper_k1 - paper_k2) == 0
        for m in range(3, 201):
            for j in range(1, m - 1):
                lhs = 4 * (m - 1) * j + m * m + 4 * m - 2
                assert k_above_k2(m, j) == (lhs * lhs > m * m * (13 * m * m - 8 * m + 4))

    def test_lower_edge_is_the_sign_of_eta1(self):
        # the squared comparison k < k1 is lhs > 0 and lhs^2 > n^2 D, and
        # lhs^2 - n^2 D = 4 (n - 1) eta1, so for n >= 2 it is lhs > 0 and eta1 > 0
        n, k = sympy.symbols("n k")
        lhs = 5 * n * n - 4 * n + 2 - 4 * (n - 1) * k
        gap = lhs**2 - n * n * (13 * n * n - 8 * n + 4)  # degree 4 in n and 2 in k, as is 4 (n - 1) eta1
        assert all(gap.subs({n: m, k: j}) == 4 * (m - 1) * eta1(m, j) for m in range(-5, 6) for j in range(-5, 6))
        for m in range(2, 400):
            for j in range(m):
                lhs = 5 * m * m - 4 * m + 2 - 4 * (m - 1) * j
                assert k_below_k1(m, j) == (lhs > 0 and lhs * lhs > m * m * (13 * m * m - 8 * m + 4))
        # past the upper root, above n - 1, eta1 is positive again, and k is outside the domain
        assert eta1(5, 13) > 0
        with pytest.raises(InvalidFamily):
            k_below_k1(5, 13)

    @pytest.mark.parametrize("test", [k_below_k1, k_above_k2])
    @pytest.mark.parametrize("n,k", [(5, 3.5), (5, 0.5), (5, True), (5, -1), (5, 5), (1, 0), (5.0, 2)])
    def test_k_tests_refuse_k_outside_the_window_domain(self, test, n, k):
        # k_below_k1(5, 3.5) and k_above_k2(5, 0.5) once returned False, and k_below_k1(5, True) True
        with pytest.raises(InvalidFamily):
            test(n, k)

    def test_exact_comparators_agree_with_numeric(self):
        for n in range(3, 60):
            k1 = _paper_k1(n)
            for k in range(1, n - 1):
                assert k_below_k1(n, k) == (mp.mpf(k) < k1)
                assert k_above_k2(n, k) == (mp.mpf(k) > n - 1 - k1)

    def test_eta_positivity_at_window_edges(self):
        for n in range(3, 101):
            k1 = _paper_k1(n)
            floor_k1 = int(mp.floor(k1))
            if floor_k1 >= 1:
                assert eta1(n, floor_k1) > 0
            ceil_k2 = int(mp.ceil(n - 1 - k1))
            if ceil_k2 <= n - 2:
                assert eta1(n, n - 1 - ceil_k2) > 0

    def test_eta_sign_matches_side(self):
        for n in (5, 12, 31):
            for k in range(1, n - 1):
                if k_below_k1(n, k):
                    assert eta1(n, k) > 0
                if k_above_k2(n, k):
                    assert eta1(n, n - 1 - k) > 0


class TestOffsetProbePoly:
    def test_exact_identity(self):
        for n in range(2, 41):
            b4, b3, b2, b1, b0 = a1_offset_probe_poly(n)
            assert b4 > 0
            for r in (2, 3, 17, 97):
                poly = build_quartic(F(CP.CP_A1, n), r)
                x1 = Fraction(1, 2 * n) + Fraction(1, n * r)
                lhs = 2 * n**4 * r**4 * poly.evaluate(x1)
                assert lhs == b4 * r**4 + b3 * r**3 + b2 * r**2 + b1 * r + b0
