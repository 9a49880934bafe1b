from fractions import Fraction

import pytest
import sympy
from mpmath import mp

from hopfharmonic import (
    DegenerateTube,
    FamilyTag,
    HypersurfaceFamily,
    IndexClaim,
    asymptotic_check,
    biharmonic_radii,
    build_quartic,
    curvature_spectrum,
    first_eigenvalue_bound,
    index_threshold_scan,
    isolate_and_refine,
    lambda_min_squared,
    stability_condition,
    trace_shape,
    trace_shape_squared,
    tube_family,
    x_from_radius,
)
from hopfharmonic.errors import to_fraction
from hopfharmonic.biharmonic import _discriminant

F = HypersurfaceFamily
CP = FamilyTag


class TestRadii:
    def test_n2_p1_exact_values(self):
        tubes = biharmonic_radii(2, 1)
        assert [tube.branch for tube in tubes] == ["plus", "minus"]
        sqrt13 = mp.sqrt(13)
        assert abs(tubes[0].cos_sq_t - (7 + sqrt13) / 12) < 1e-30
        assert abs(tubes[1].cos_sq_t - (7 - sqrt13) / 12) < 1e-30

    def test_discriminant_is_positive_for_every_dimension(self):
        # (2p - n - 1)^2 + 4(n + 1) > 0 for n >= 0, so cos^2 t is always real
        n, p = sympy.symbols("n p")
        assert sympy.expand(_discriminant(n, p) - ((2 * p - n - 1) ** 2 + 4 * (n + 1))) == 0

    def test_n3_p2_both_branches_interior(self):
        # oracle: trace identity tr S^2 = 2(n+1) = 8 becomes 16x^2 - 16x + 3 = 0
        # with x = cos^2 t, so the two radii sit at x = 3/4 and x = 1/4
        tubes = biharmonic_radii(3, 2)
        assert len(tubes) == 2
        assert abs(tubes[0].cos_sq_t - mp.mpf(3) / 4) < 1e-30
        assert abs(tubes[1].cos_sq_t - mp.mpf(1) / 4) < 1e-30

    def test_trace_identity_over_grid(self):
        for n in range(2, 26):
            for p in range(1, n):
                for tube in biharmonic_radii(n, p):
                    spec = curvature_spectrum(tube_family(n, p), tube.t)
                    assert abs(trace_shape_squared(spec) - 2 * (n + 1)) < 1e-10

    def test_tubes_are_roots_of_the_biharmonic_quartic(self):
        for n, p in ((2, 1), (3, 2), (6, 2), (9, 5), (12, 1)):
            fam = tube_family(n, p)
            certs = isolate_and_refine(build_quartic(fam, 2), 0, 1, Fraction(1, 10**30))
            intervals = [cert.isolating_interval for cert in certs]
            for tube in biharmonic_radii(n, p):
                x = to_fraction(x_from_radius(fam, tube.t))
                assert any(lo < x < hi for lo, hi in intervals)

    def test_family_mapping(self):
        assert tube_family(5, 1).tag is CP.CP_A1
        fam = tube_family(5, 3)
        assert fam.tag is CP.CP_A2 and fam.k == 2
        with pytest.raises(ValueError):
            tube_family(5, 5)
        with pytest.raises(ValueError):
            tube_family(5, 0)


class TestLambdaMin:
    def test_zero_at_minimal_alpha(self):
        spec = curvature_spectrum(F(CP.CP_A1, 2), mp.pi / 4)
        assert lambda_min_squared(spec) < 1e-60

    def test_horosphere(self):
        assert lambda_min_squared(curvature_spectrum(F(CP.CH_A0, 2))) == 1

    def test_small_branch_attains_minimum_at_plus_radius(self):
        # at the small plus-branch radius the tangent branch is the least
        # squared curvature once n is moderately large
        for n in (6, 30, 200):
            tube = biharmonic_radii(n, 1)[0]
            spec = curvature_spectrum(tube_family(n, 1), tube.t)
            assert abs(lambda_min_squared(spec) - mp.tan(tube.t) ** 2) < 1e-25


class TestFirstEigenvalueBound:
    def test_simple_values(self):
        spec = curvature_spectrum(F(CP.CH_A0, 2))  # trace 4
        assert first_eigenvalue_bound(2, trace_shape(spec)) == 1
        minimal = curvature_spectrum(F(CP.CP_A1, 2), mp.pi / 6)  # trace 0
        assert abs(first_eigenvalue_bound(2, trace_shape(minimal)) - 3) < 1e-30

    def test_consistent_with_trace_at_plus_radius(self):
        tube = biharmonic_radii(2, 1)[0]
        spec = curvature_spectrum(tube_family(2, 1), tube.t)
        expected = 3 - abs(trace_shape(spec)) / 2
        assert abs(first_eigenvalue_bound(2, trace_shape(spec)) - expected) < 1e-30


class TestStability:
    def test_every_tube_is_unstable(self):
        for n in range(2, 21):
            for p in range(1, n):
                for branch in ("plus", "minus"):
                    rep = stability_condition(n, p, branch)
                    assert rep.constant_witness > 0
                    assert rep.index_claim in (IndexClaim.UNSTABLE_INDEX_GE_1, IndexClaim.INDEX_EXACTLY_1)

    def test_small_n_fails_condition(self):
        rep = stability_condition(2, 1, "plus")
        assert not rep.condition_holds
        assert rep.index_claim is IndexClaim.UNSTABLE_INDEX_GE_1
        assert abs(rep.lhs - 3 * (4 * rep.lambda_min_sq + 3)) < 1e-25

    def test_large_n_gives_index_one(self):
        rep = stability_condition(200, 1, "plus")
        assert rep.condition_holds
        assert rep.index_claim is IndexClaim.INDEX_EXACTLY_1

    def test_condition_implies_positive_quadratic_in_mu(self):
        # mu^2 + 4 L mu - 4 T (T + 3 alpha) increases in mu > 0, so positivity
        # at the eigenvalue bound propagates upward
        rep = stability_condition(60, 2, "plus")
        assert rep.condition_holds
        mu = rep.mu1_lower_bound
        for bump in (0, 1, 10, 1000):
            value = (mu + bump) ** 2 + 4 * rep.lambda_min_sq * (mu + bump) - 4 * rep.constant_witness
            assert value > 0

    def test_invalid_branch_rejected(self):
        with pytest.raises(ValueError):
            stability_condition(4, 1, "middle")

    def test_branch_is_checked_before_the_subspace(self):
        with pytest.raises(ValueError, match="branch"):
            stability_condition(5, 5, "middle")
        with pytest.raises(ValueError, match="1 <= p <= n-1"):
            stability_condition(5, 5, "plus")

    def test_reads_the_tube_of_biharmonic_radii(self):
        for n in range(2, 61):
            for p in range(1, n):
                for tube in biharmonic_radii(n, p):
                    rep = stability_condition(n, p, tube.branch)
                    assert rep.t == tube.t
                    assert rep.cos_sq_t == tube.cos_sq_t


class TestThresholdScan:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_finite_threshold_found(self, p):
        scan = index_threshold_scan(p, 120)
        assert scan.threshold is not None
        assert scan.threshold <= 120
        assert scan.holds_for_all_larger

    def test_threshold_marks_first_onset(self):
        scan = index_threshold_scan(1, 60)
        assert not stability_condition(scan.threshold - 1, 1, "plus").condition_holds
        assert stability_condition(scan.threshold, 1, "plus").condition_holds

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            index_threshold_scan(0, 50)
        with pytest.raises(ValueError):
            index_threshold_scan(3, 4)


class TestAsymptotics:
    def test_leading_constants_at_large_n(self):
        errs = asymptotic_check(1, 10**4)
        tube = biharmonic_radii(10**4, 1)[0]
        spec = curvature_spectrum(tube_family(10**4, 1), tube.t)
        assert abs(trace_shape(spec) - 2 * mp.sqrt(2) / 100) < 1e-3
        for field in ("cot2_2t", "cot2_t", "tan2_t", "trace"):
            assert getattr(errs, field) < 1e-2

    def test_p3_leading_terms(self):
        tube = biharmonic_radii(10**4, 3)[0]
        spec = curvature_spectrum(tube_family(10**4, 3), tube.t)
        assert abs(4 * mp.cot(2 * tube.t) ** 2 - 2 * 10**4 / mp.mpf(5)) / 10**4 < 1e-3
        assert abs(trace_shape(spec) - 2 * mp.sqrt(10) / 100) < 1e-3

    def test_errors_shrink_with_n(self):
        for p in (1, 2):
            small = asymptotic_check(p, 2000)
            large = asymptotic_check(p, 8000)
            for field in ("cot2_2t", "cot2_t", "tan2_t", "trace"):
                assert getattr(large, field) < getattr(small, field)

    def test_sixteenfold_n_halves_errors(self):
        small = asymptotic_check(1, 10**4)
        large = asymptotic_check(1, 16 * 10**4)
        for field in ("cot2_2t", "cot2_t", "tan2_t", "trace"):
            assert getattr(small, field) / getattr(large, field) >= 2

    def test_degenerate_plus_branch_raises(self):
        # at 40 digits cos^2 t rounds to 1; the check once unpacked None
        with pytest.raises(DegenerateTube):
            asymptotic_check(1, 10**60)
