import math
from fractions import Fraction

import pytest
import sympy

from hopfharmonic import mp
from hopfharmonic import (
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
from hopfharmonic.biharmonic import BRANCHES, _discriminant, _index_one_margin, _sign

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

    def test_both_branches_are_interior_for_every_admissible_pair(self):
        """With s = sqrt(D), D = (2p - n - 1)^2 + 4(n+1) > 0,

            cos^2 t_+ = (3(n+1) - 2p + s) / (4(n+1)),  sin^2 t_+ = (2p - 1) / (n + 1 + 2p + s),
            cos^2 t_- = (3(n+1) - 2p - s) / (4(n+1))  = (2n + 1 - 2p) / (3(n+1) - 2p + s),
            sin^2 t_- = (n + 1 + 2p + s) / (4(n+1)).

        Each pair sums to 1 modulo s^2 = D.  For n >= 2 and 1 <= p <= n - 1,
        2p - 1 >= 1 and 2n + 1 - 2p >= 3, and every other numerator and
        denominator is a sum of positive terms, so all four are quotients of
        positive numbers: both tubes lie strictly inside (0, pi/2) for every
        admissible (n, p), and only rounding could push cos^2 t to 0 or 1.
        """
        n, p, s = sympy.symbols("n p s")
        disc = _discriminant(n, p)
        base = 3 * (n + 1) - 2 * p
        cos_plus, sin_plus = (base + s) / (4 * (n + 1)), (2 * p - 1) / (n + 1 + 2 * p + s)
        cos_minus, sin_minus = (2 * n + 1 - 2 * p) / (base + s), (n + 1 + 2 * p + s) / (4 * (n + 1))

        def vanishes(expr):
            numer = sympy.numer(sympy.together(expr))
            return sympy.rem(sympy.expand(numer), s**2 - disc, s) == 0

        assert vanishes(cos_plus + sin_plus - 1)
        assert vanishes(cos_minus + sin_minus - 1)
        assert vanishes(cos_minus - (base - s) / (4 * (n + 1)))
        # n = p + 1 + b and p = 1 + a with a, b >= 0 cover every admissible pair
        a, b = sympy.symbols("a b", nonnegative=True, integer=True)
        root = sympy.Symbol("root", positive=True)
        admissible = {n: a + b + 2, p: a + 1, s: root}
        for quotient in (sin_plus, cos_minus, sin_minus, cos_plus):
            for part in sympy.fraction(quotient):
                assert sympy.expand(part.subs(admissible)).is_positive

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

    @mp.workdps(40)
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

    @pytest.mark.parametrize(
        "p,n_max,holds,expected",
        [
            (2, 4, [True], (4, True)),  # n_max = p + 2, one evaluation
            (1, 7, [False, True, True, True, True], (4, True)),
            (1, 7, [False, True, True, False, True], (4, False)),  # fails again after the threshold
            (3, 7, [False, False, False], (None, False)),
        ],
    )
    def test_scans_p_plus_2_through_n_max(self, monkeypatch, p, n_max, holds, expected):
        seen = []

        def scripted(n, p_, branch):
            seen.append((n, p_, branch))
            return holds[len(seen) - 1]

        monkeypatch.setattr("hopfharmonic.biharmonic._index_one_holds", scripted)
        scan = index_threshold_scan(p, n_max)
        assert seen == [(n, p, "plus") for n in range(p + 2, n_max + 1)]
        assert (scan.threshold, scan.holds_for_all_larger) == expected


def _at_60_digits(n, p, *pairs):
    """The pairs (u, v) as mpf values u + v sqrt D at 60 digits, with sqrt D from mp."""
    root = mp.sqrt(_discriminant(n, p))
    return [u + v * root for u, v in pairs]


def _close(value, expected):
    return abs(value - expected) <= mp.mpf("1e-25") * abs(expected)


class TestExactIndexOne:
    def test_sign_of_u_plus_v_sqrt_d(self):
        for d in range(1, 30):
            root = math.isqrt(d)
            for u in range(-12, 13):
                for v in range(-12, 13):
                    # u + v sqrt d is 0 only for a square d, and else |u^2 - v^2 d| / |u - v sqrt d| >= 1/80
                    value = u + v * root if root * root == d else u + v * mp.sqrt(d)
                    assert _sign(u, v, d) == (value > 0) - (value < 0), (u, v, d)

    def test_exact_decision_matches_the_mp_comparison(self):
        tubes = [(n, p, branch) for n in range(2, 61) for p in range(1, n) for branch in BRANCHES]
        tubes += [(n, p, "plus") for p in (1, 2, 3) for n in range(p + 2, 501)]
        outcomes = set()
        for n, p, branch in tubes:
            rep = stability_condition(n, p, branch)
            assert rep.condition_holds == (rep.lhs > rep.rhs), (n, p, branch)
            outcomes.add(rep.condition_holds)
        assert outcomes == {False, True}

    def test_margin_values_match_the_report(self):
        # X/sigma = tr S, M/(CS) = lambda_min^2 and (4A/4 - B/sigma)/(CS) = lhs - rhs
        for n in range(2, 31):
            for p in range(1, n):
                for branch in BRANCHES:
                    rep = stability_condition(n, p, branch)
                    with mp.workdps(60):
                        x, m, cs, a4, b = _at_60_digits(n, p, *_index_one_margin(n, p, branch))
                        sigma = mp.sqrt(cs)
                        assert _close(x / sigma, rep.trace), (n, p, branch)
                        assert _close(m / cs, rep.lambda_min_sq), (n, p, branch)
                        assert _close((a4 / 4 - b / sigma) / cs, rep.lhs - rep.rhs), (n, p, branch)

    def test_every_tube_is_unstable_exactly(self):
        # T (T + 3 alpha) CS = X (X + 3(C - S)) > 0, with C - S = 2(n+1) - 4p +/- 2 sqrt D
        for n in range(2, 201):
            for p in range(1, n):
                d = _discriminant(n, p)
                for branch, q in zip(BRANCHES, (1, -1)):
                    (xu, xv), _, (ku, kv), _, _ = _index_one_margin(n, p, branch)
                    yu, yv = xu + 3 * (2 * (n + 1) - 4 * p), xv + 6 * q
                    wu, wv = xu * yu + xv * yv * d, xu * yv + xv * yu
                    assert _sign(wu, wv, d) > 0, (n, p, branch)
                    if n <= 30 or n % 50 == 0:
                        rep = stability_condition(n, p, branch)
                        with mp.workdps(60):
                            w, cs = _at_60_digits(n, p, (wu, wv), (ku, kv))
                            assert _close(w / cs, rep.constant_witness), (n, p, branch)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_scan_does_not_depend_on_the_precision(self, p):
        with mp.workdps(15):
            low = index_threshold_scan(p, 500)
        with mp.workdps(60):
            high = index_threshold_scan(p, 500)
        assert low == high

    def test_scan_makes_no_report_and_no_mp_operation(self, monkeypatch):
        expected = index_threshold_scan(2, 120)

        class Refused:
            def __getattr__(self, name):
                raise AssertionError(f"mp.{name} used")

        def refused(*args):
            raise AssertionError("stability_condition called")

        monkeypatch.setattr("hopfharmonic.biharmonic.stability_condition", refused)
        monkeypatch.setattr("hopfharmonic.biharmonic.mp", Refused())
        monkeypatch.setattr("hopfharmonic.families.mp", Refused())
        assert index_threshold_scan(2, 120) == expected


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

    @pytest.mark.parametrize("p, n", [(1, 10**4), (3, 10**6)])
    def test_cot2_2t_matches_the_cotangent_of_the_tube_radius(self, p, n):
        # 4 cot^2 2t from mp.cot, not from (c - s)^2 / (c s); (c - s)^3 passed the other tests
        t = stability_condition(n, p, "plus").t
        with mp.workdps(60):
            expected = abs(4 * mp.cot(2 * t) ** 2 - mp.mpf(2 * n) / (2 * p - 1)) / n
        assert abs(asymptotic_check(p, n).cot2_2t / expected - 1) < 1e-20

    def test_holds_where_cos_sq_t_rounds_to_one(self):
        # cos^2 t = 1 - 1/(2n) rounds to 1 at the suite's 40 digits; 1 - c once divided by zero
        errs = asymptotic_check(1, 10**60)
        for field in ("cot2_2t", "cot2_t", "tan2_t", "trace"):
            assert getattr(errs, field) <= 1e-30


# (n, p) at both ends of the admissible range, where tr S cancels like 1/n
LARGE_N = [pytest.param(10**e, p, id=f"1e{e}-p{p}") for e in (12, 16, 40, 300) for p in (1, 2, 3)] + [
    pytest.param(10**e, 10**e - k, id=f"1e{e}-p=n-{k}") for e in (16, 40) for k in (1, 2)
]


class TestLargeN:
    @pytest.mark.parametrize("n, p", LARGE_N)
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_report_is_right_to_the_working_precision(self, n, p, branch):
        # the plus branch's sin^2 t at small p and the minus branch's cos^2 t at
        # p near n are about 1/n; at a fixed 30 digits the witness once read
        # -28.33 at (10^16, 1), and with cos^2 t_- = base - sqrt D it read 6, not 12, at (10^40, 10^40 - 1)
        rep = stability_condition(n, p, branch)
        assert abs(rep.trace_sq / (2 * (n + 1)) - 1) < 1e-25
        assert rep.constant_witness > 0
        with mp.workdps(3 * mp.dps):
            fine = stability_condition(n, p, branch)
        for field in ("trace", "constant_witness", "lhs", "rhs"):
            assert abs(getattr(rep, field) / getattr(fine, field) - 1) < 1e-25

    def test_radii_are_two_tubes(self):
        for n in (10**16, 10**300):
            tubes = biharmonic_radii(n, 1)
            assert [tube.branch for tube in tubes] == ["plus", "minus"]
            assert 0 < tubes[0].t < 1e-7
