import ast
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hopfharmonic
from hopfharmonic import mp
from hopfharmonic import (
    FamilyTag,
    HypersurfaceFamily,
    InvalidOrder,
    QuarticPoly,
    RootOutOfRange,
    ToleranceNotReached,
    UnsupportedFamily,
    admissible_families,
    build_quartic,
    count_real_roots,
    isolate_and_refine,
    minimal_x,
    r_independent_x,
    radius_from_x,
    residual,
    root_to_radius,
)

F = HypersurfaceFamily
CP = FamilyTag


def quartic(*coeffs):
    return QuarticPoly(*map(Fraction, coeffs))


def _monic(roots):
    coeffs = [Fraction(1)]  # highest degree first
    for x in roots:
        coeffs = [a - x * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return QuarticPoly(*coeffs)


class TestBuild:
    def test_a1_n2_r2(self):
        poly = build_quartic(F(CP.CP_A1, 2), 2)
        assert poly.coefficients() == (72, -108, 58, -14, 1)
        assert poly.weight == 1

    def test_a2_n3_k1_r2(self):
        poly = build_quartic(F(CP.CP_A2, 3, 1), 2)
        assert poly.coefficients() == (128, -256, 200, -72, 9)
        assert poly.weight == 1

    def test_d_r32(self):
        # linear coefficient is -(4r + 44); the boundary value P(1) = 25 pins it
        poly = build_quartic(F(CP.CP_D, 9), 32)
        assert poly.coefficients() == (860, -1525, 846, -172, 16)
        assert poly.evaluate(1) == 25

    def test_rejects_hyperbolic_and_low_order(self):
        with pytest.raises(UnsupportedFamily):
            build_quartic(F(CP.CH_A0, 2), 2)
        with pytest.raises(InvalidOrder):
            build_quartic(F(CP.CP_A1, 2), 1)

    @pytest.mark.parametrize("r", [2, 3, 17, 101])
    def test_boundary_values_exact(self, r):
        for n in range(2, 61):
            pa1 = build_quartic(F(CP.CP_A1, n), r)
            assert pa1.evaluate(0) == 1
            assert pa1.evaluate(1) == (2 * n - 1) ** 2
            pb = build_quartic(F(CP.CP_B, n), r)
            assert pb.evaluate(0) == 4
            assert pb.evaluate(1) == 4 * (n - 1) ** 2
        for n in range(3, 41):
            for k in range(1, n - 1):
                pa2 = build_quartic(F(CP.CP_A2, n, k), r)
                assert pa2.evaluate(0) == (2 * k + 1) ** 2
                assert pa2.evaluate(1) == (2 * k - 2 * n + 1) ** 2
        for n in range(5, 61, 2):
            pc = build_quartic(F(CP.CP_C, n), r)
            assert pc.evaluate(0) == 16
            assert pc.evaluate(1) == 4 * (n - 2) ** 2
        pd = build_quartic(F(CP.CP_D, 9), r)
        assert (pd.evaluate(0), pd.evaluate(1)) == (16, 25)
        pe = build_quartic(F(CP.CP_E, 15), r)
        assert (pe.evaluate(0), pe.evaluate(1)) == (72, 162)

    def test_leading_coefficient_always_positive(self):
        for fam in (F(CP.CP_A1, 1), F(CP.CP_A1, 30), F(CP.CP_A2, 12, 5), F(CP.CP_B, 2),
                    F(CP.CP_C, 7), F(CP.CP_D, 9), F(CP.CP_E, 15)):
            for r in (2, 5, 1000):
                assert build_quartic(fam, r).coefficients()[0] > 0


class TestDuality:
    """The A2 quartic is the one source of A1 and of both sides of the k-window.

    Each coefficient of P_{n,k}(x) - P_{n,n-1-k}(1 - x), as a polynomial in
    x of degree <= 4, is affine in r and of total degree <= 2 in (n, k).  Five
    x at which the difference vanishes make each coefficient vanish; one that
    vanishes at r = 2 and 3 on the 3 x 3 grid n in {7, 8, 9}, k in {1, 2, 3}
    is zero as a polynomial, so the identity holds for every (n, k, r).  The
    same argument in (n, r), with three n, pins the A1 row.
    """

    XS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 7), Fraction(2))

    def test_a2_tube_over_cp_k_is_the_dual_tube_at_one_minus_x(self):
        for n in (7, 8, 9):
            for k in (1, 2, 3):
                for r in (2, 3):
                    poly = build_quartic(F(CP.CP_A2, n, k), r)
                    dual = build_quartic(F(CP.CP_A2, n, n - 1 - k), r)
                    assert [poly.evaluate(x) for x in self.XS] == [dual.evaluate(1 - x) for x in self.XS]

    def test_a1_is_the_paper_a1_quartic(self):
        # the paper's A1 coefficients, highest degree first; build_quartic
        # takes A1 from the A2 row at k = 0
        def paper_a1(n, r):
            return (
                4 * (n * n + 3 * n) * r - 8 * (n - 1),
                -2 * (2 * n * n + 11 * n + 3) * r + 4 * (n * n + 3 * n - 4),
                10 * (n + 1) * r - 2 * (3 * n - 5),
                -4 * r - 2 * (n + 1),
                1,
            )

        for n in (1, 2, 3):
            for r in (2, 3):
                assert build_quartic(F(CP.CP_A1, n), r).coefficients() == paper_a1(n, r)


def paper_quarter_turn(tag, n, r):
    """The paper's B, C, D and E quartics, highest degree first."""
    if tag is CP.CP_B:
        return (
            n * (n + 3) * r - 2 * (n - 1),
            -(n * n + 8 * n + 3) * r + 4 * n * n + 2 * n - 10,
            (5 * n + 7) * r - 2 * (5 * n - 11),
            -4 * r + 2 * (n - 7),
            4,
        )
    if tag is CP.CP_C:
        return (
            n * (n + 3) * r - 2 * (n - 1),
            -(n * n + 7 * n + 6) * r + 4 * (n * n - 3 * n - 4),
            2 * (2 * n + 5) * r - 2 * (3 * n - 41),
            -4 * r + 4 * (n - 17),
            16,
        )
    if tag is CP.CP_D:
        return (27 * r - 4, -48 * r + 11, 25 * r + 46, -(4 * r + 44), 16)
    return (135 * r - 14, -234 * r + 100, 117 * r + 184, -(18 * r + 180), 72)


class TestQuarterTurn:
    """B, C, D and E are one quarter-turn quartic in their multiplicities.

    Each coefficient of ``build_quartic`` and of the paper's row is affine in
    r and of degree <= 2 in n: B's multiplicities are n - 1 and C's 2 and
    n - 3, and D and E have one n.  Two such polynomials that agree at three
    n and two r agree for every (n, r); the first test checks every B-E
    family with n <= 401 at seven orders up to 10^40.
    """

    ORDERS = (2, 3, 7, 89, 6001, 10**9, 10**40)

    def test_build_quartic_is_the_paper_quartic(self):
        cases = 0
        for tag in (CP.CP_B, CP.CP_C, CP.CP_D, CP.CP_E):
            for fam in admissible_families(tag, 401):
                for r in self.ORDERS:
                    assert build_quartic(fam, r).coefficients() == paper_quarter_turn(tag, fam.n, r)
                    cases += 1
        assert cases == 4207

    # x^2 (1 - x)^2 residual = w P(x): w = 1 for A1 and A2, and 4d for the pattern's content d
    WEIGHTED = [
        (F(CP.CP_A1, 2), 1), (F(CP.CP_A1, 5), 1), (F(CP.CP_A2, 7, 2), 1),
        (F(CP.CP_B, 2), 4), (F(CP.CP_B, 5), 4),
        (F(CP.CP_C, 5), 4), (F(CP.CP_C, 7), 4), (F(CP.CP_C, 9), 4),
        (F(CP.CP_D, 9), 16), (F(CP.CP_E, 15), 8),
    ]

    @pytest.mark.parametrize("fam,w", WEIGHTED, ids=[f"{f.tag.value}-n{f.n}" for f, _ in WEIGHTED])
    def test_spectrum_table_gives_the_quartic(self, fam, w):
        with mp.workdps(60):
            for r in (2, 3):
                poly = build_quartic(fam, r)
                assert poly.weight == w  # the w the exact residual reads
                for x in (Fraction(1, 7), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(6, 7)):
                    xm = mp.mpf(x.numerator) / x.denominator
                    lhs = xm**2 * (1 - xm) ** 2 * residual(fam, root_to_radius(fam, xm), r).residual
                    value = w * poly.evaluate(x)
                    rhs = mp.mpf(value.numerator) / value.denominator
                    assert abs(lhs - rhs) <= mp.mpf(10) ** -40 * max(1, abs(rhs))


class TestExactResidual:
    """A family certificate's residual is w P(x) / (x^2 (1 - x)^2) at its midpoint x, an exact ``Fraction``."""

    def test_is_the_mp_residual_at_the_radius_of_every_certified_root(self):
        # 597 roots: every CP family with n <= 12 at three orders, and E (n = 15), the one family with w = 8, whose
        # 4 roots are at r = 89.  At 60 digits the radius and each of the residual's terms, none above 1e7 here, are
        # off by a relative 1e-60, so the mp value is within about 1e-52 of the exact one (2.8e-53 measured, 1.4e-54
        # on E); 1e-40 leaves 12 digits of margin and is far below the residuals themselves, which a wrong weight
        # w scales
        tol, checked = Fraction(1, 10**24), 0
        fams = [f for tag in (CP.CP_A1, CP.CP_A2, CP.CP_B, CP.CP_C, CP.CP_D) for f in admissible_families(tag, 12)]
        with mp.workdps(60):
            for fam in fams + [F(CP.CP_E, 15)]:
                for r in (2, 17, 89):
                    for cert in isolate_and_refine(build_quartic(fam, r), 0, 1, tol):
                        x = sum(cert.isolating_interval) / 2
                        value = residual(fam, radius_from_x(fam, mp.mpf(x.numerator) / x.denominator), r).residual
                        exact = cert.residual_at_radius
                        assert abs(value - mp.mpf(exact.numerator) / exact.denominator) <= mp.mpf(10) ** -40
                        checked += 1
        assert checked == 597

    def test_certificates_do_not_depend_on_the_working_precision(self):
        def certificates(dps):
            with mp.workdps(dps):
                return [
                    (cert.isolating_interval, cert.residual_at_radius)
                    for fam, _ in TestQuarterTurn.WEIGHTED
                    for r in (2, 89)
                    for cert in isolate_and_refine(build_quartic(fam, r), 0, 1, Fraction(1, 10**24))
                ]

        at_30 = certificates(30)
        assert at_30 == certificates(60)
        assert all(type(exact) is Fraction for _, exact in at_30)

    def test_the_exact_layer_imports_nothing_from_residual(self):
        tree = ast.parse((Path(hopfharmonic.__file__).parent / "quartic.py").read_text(encoding="utf-8"))
        names = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names += [str(node.module), *(f"{node.module}.{alias.name}" for alias in node.names)]
            elif isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
        assert [name for name in names if "residual" in name.split(".")] == []
        # the radius map is re-exported on one line for bench/tracing.py; no other line names it, so none calls it
        radius = {"root_to_radius", "radius_from_x"}
        lines = {
            node.lineno for node in ast.walk(tree)
            if {getattr(node, "id", None), getattr(node, "attr", None)} & radius
            or any({alias.name, alias.asname} & radius for alias in getattr(node, "names", ()))
        }
        (alias,) = [node for node in tree.body if node.lineno in lines]
        assert lines == {alias.lineno}
        assert [(a.name, a.asname) for a in alias.names] == [("radius_from_x", "root_to_radius")]
        # the residual's weight comes with the polynomial: isolate_and_refine names no family, row or quartic builder
        (body,) = [node for node in tree.body if getattr(node, "name", None) == "isolate_and_refine"]
        named = {getattr(node, "id", None) for node in ast.walk(body)} | {getattr(node, "attr", None) for node in ast.walk(body)}
        assert named & {"build_quartic", "quarter_turn", "family"} == set()
        assert "weight" in named


class TestOrderSlope:
    """P(x; r) is affine in r, and its slope P1 = P(.; 3) - P(.; 2) is c x (1 - x)(x - x_min)(x - x_ri).

    The residual's one r-term is -(r - 2) tr S (tr S + 3 alpha); cleared by
    x^2 (1 - x)^2 it is the r-term of w P, so P1 vanishes where tr S does
    (``minimal_x``), where tr S + 3 alpha does (``r_independent_x``), and at 0
    and 1, where the traces' poles in x are simple.  A self-dual family has
    x_min = x_ri = 1/2, a double zero.  A test of the quartic formulas
    against the geometry, not against themselves.
    """

    @staticmethod
    def slopes():
        """(family, P1 coefficients highest degree first) for every CP family with n <= 60."""
        for tag in (CP.CP_A1, CP.CP_A2, CP.CP_B, CP.CP_C, CP.CP_D, CP.CP_E):
            for fam in admissible_families(tag, 60):
                yield fam, [a - b for a, b in zip(build_quartic(fam, 3).coefficients(), build_quartic(fam, 2).coefficients())]

    def test_the_slope_vanishes_at_both_ends_and_both_special_tubes(self):
        evaluations = 0
        for fam, slope in self.slopes():
            p1 = QuarticPoly(*slope)
            for x in (Fraction(0), Fraction(1), minimal_x(fam), r_independent_x(fam)):
                assert p1.evaluate(x) == 0, (fam, x)
                evaluations += 1
        assert evaluations == 7440

    def test_the_slope_has_a_double_zero_at_one_half_on_self_dual_families(self):
        self_dual = [(fam, slope) for fam, slope in self.slopes() if minimal_x(fam) == r_independent_x(fam)]
        assert len(self_dual) == 30
        for fam, slope in self_dual:
            assert minimal_x(fam) == Fraction(1, 2)
            derivative = QuarticPoly(*(c * (len(slope) - 1 - i) for i, c in enumerate(slope[:-1])))
            assert derivative.evaluate(Fraction(1, 2)) == 0, fam


def _random_family_and_order(rng):
    choice = rng.randrange(6)
    r = rng.randint(2, 200)
    if choice == 0:
        return F(CP.CP_A1, rng.randint(1, 40)), r
    if choice == 1:
        n = rng.randint(3, 40)
        return F(CP.CP_A2, n, rng.randint(1, n - 2)), r
    if choice == 2:
        return F(CP.CP_B, rng.randint(2, 40)), r
    if choice == 3:
        return F(CP.CP_C, 2 * rng.randint(2, 20) + 1), r
    if choice == 4:
        return F(CP.CP_D, 9), r
    return F(CP.CP_E, 15), r


class TestCountRealRoots:
    def test_examples(self):
        assert count_real_roots(quartic(128, -256, 200, -72, 9), 0, 1) == 2
        assert count_real_roots(quartic(72, -108, 58, -14, 1), 0, 1) == 2
        assert count_real_roots(quartic(1, 0, -1, 0, 0), -2, 2) == 3

    def test_counts_distinct_roots_once(self):
        assert count_real_roots(quartic(1, -4, 6, -4, 1), 0, 2) == 1

    def test_endpoint_roots_are_not_counted(self):
        # x^4 - x^2 has roots -1, 0, 1; the open (0, 2) holds only 1
        assert count_real_roots(quartic(1, 0, -1, 0, 0), 0, 2) == 1
        assert count_real_roots(quartic(1, 0, -1, 0, 0), -1, 1) == 1

    def test_root_next_to_an_endpoint_root(self):
        eps = Fraction(1, 2**32)
        poly = quartic(1, -eps, 1, -eps, 0)  # x (x^2 + 1) (x - eps)
        assert count_real_roots(poly, 0, 1) == 1
        (cert,) = isolate_and_refine(poly, 0, 1, Fraction(1, 10**20))
        lo, hi = cert.isolating_interval
        assert 0 < lo < eps < hi

    def test_root_closer_to_an_endpoint_root_than_2_to_the_minus_32(self):
        # x^2 (x - 2^-33) (x - 1/2) on (0, 1): both inner roots count
        eps = Fraction(1, 2**33)
        poly = quartic(1, -eps - Fraction(1, 2), eps / 2, 0, 0)
        assert count_real_roots(poly, 0, 1) == 2
        certs = isolate_and_refine(poly, 0, 1, Fraction(1, 10**20))
        assert len(certs) == 2
        square_free = quartic(0, 1, -eps - Fraction(1, 2), eps / 2, 0)
        for cert, root in zip(certs, (eps, Fraction(1, 2))):
            lo, hi = cert.isolating_interval
            assert 0 < lo < root < hi < 1
            assert square_free.evaluate(lo) * square_free.evaluate(hi) < 0

    def test_a_nonzero_constant_has_no_roots(self):
        # a constant's Sturm sequence is the constant alone: it has no derivative to take
        assert count_real_roots(QuarticPoly(5), 0, 1) == 0
        assert isolate_and_refine(QuarticPoly(0, 0, 3), 0, 1, Fraction(1, 10**6)) == []

    def test_roots_at_both_ends(self):
        poly = quartic(0, 3, -4, 1, 0)  # x (x - 1) (3x - 1)
        assert count_real_roots(poly, 0, 1) == 1
        (cert,) = isolate_and_refine(poly, 0, 1, Fraction(1, 10**20))
        lo, hi = cert.isolating_interval
        assert lo < Fraction(1, 3) < hi

    def test_matches_grid_sign_oracle(self):
        polys = [
            quartic(72, -108, 58, -14, 1),
            quartic(128, -256, 200, -72, 9),
            quartic(2399, -4261, 2271, -400, 16),
            quartic(672, -1098, 508, -74, 1),
        ]
        xs = (np.arange(10_000) + 0.5) / 10_000  # cell midpoints never hit decimal roots
        for poly in polys:
            vals = np.polyval([float(c) for c in poly.coefficients()], xs)
            brackets = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
            assert count_real_roots(poly, 0, 1) == brackets


class TestIsolateAndRefine:
    def test_exact_rational_roots(self):
        certs = isolate_and_refine(quartic(128, -256, 200, -72, 9), 0, 1, Fraction(1, 10**20))
        roots = [sum(cert.isolating_interval) / 2 for cert in certs]
        assert len(roots) == 2
        assert abs(roots[0] - Fraction(1, 4)) <= Fraction(1, 10**20)
        assert abs(roots[1] - Fraction(3, 4)) <= Fraction(1, 10**20)

    def test_bracketed_irrational_roots(self):
        certs = isolate_and_refine(quartic(72, -108, 58, -14, 1), 0, 1, Fraction(1, 10**15))
        assert len(certs) == 2
        assert Fraction(1, 10) < sum(certs[0].isolating_interval) / 2 < Fraction(15, 100)
        assert Fraction(7, 10) < sum(certs[1].isolating_interval) / 2 < Fraction(3, 4)

    def test_quadruple_root_certified_once(self):
        certs = isolate_and_refine(quartic(1, -4, 6, -4, 1), 0, 2, Fraction(1, 10**10))
        assert len(certs) == 1
        lo, hi = certs[0].isolating_interval
        assert lo < 1 < hi

    def test_symmetric_triple(self):
        certs = isolate_and_refine(quartic(1, 0, -1, 0, 0), -2, 2, Fraction(1, 10**12))
        mids = [sum(cert.isolating_interval) / 2 for cert in certs]
        assert len(mids) == 3
        for mid, target in zip(mids, (-1, 0, 1)):
            assert abs(mid - target) <= Fraction(1, 10**12)

    def test_certificate_invariants(self):
        tol = Fraction(1, 10**18)
        poly = build_quartic(F(CP.CP_D, 9), 97)
        certs = isolate_and_refine(poly, 0, 1, tol)
        assert len(certs) == 4
        prev_hi = Fraction(-1)
        for cert in certs:
            lo, hi = cert.isolating_interval
            assert prev_hi < lo < hi
            prev_hi = hi
            assert hi - lo < tol
            assert abs(poly.evaluate((lo + hi) / 2)) <= tol
            # exactly one sign change of the (square-free) quartic across the interval
            assert poly.evaluate(lo) * poly.evaluate(hi) < 0
            assert count_real_roots(poly, lo, hi) == 1

    def test_only_the_family_quartic_gets_an_exact_residual(self):
        # w P(x) / (x^2 (1 - x)^2) is the residual only for the P that build_quartic returns, the one polynomial
        # with a weight: the same coefficients given anew certify the same intervals with no residual, and so
        # does 2 P (whose |2 P| <= tol stop test may end elsewhere)
        fam, tol = F(CP.CP_A1, 2), Fraction(1, 10**20)
        quartic = build_quartic(fam, 3)
        certs = isolate_and_refine(quartic, 0, 1, tol)
        assert len(certs) == 2 and all(type(cert.residual_at_radius) is Fraction for cert in certs)
        copied = QuarticPoly(*quartic.coefficients())
        doubled = QuarticPoly(*(2 * c for c in quartic.coefficients()))
        assert copied.weight is doubled.weight is None
        free = isolate_and_refine(copied, 0, 1, tol)
        assert [c.isolating_interval for c in free] == [c.isolating_interval for c in certs]
        for poly in (copied, doubled):
            assert [c.residual_at_radius for c in isolate_and_refine(poly, 0, 1, tol)] == [None] * 2

    def test_no_keyword_or_assignment_sets_a_weight(self):
        with pytest.raises(TypeError):
            QuarticPoly(1, 2, family=F(CP.CP_A1, 2), r=3)
        with pytest.raises(TypeError):
            QuarticPoly(1, 2, weight=1)
        with pytest.raises(AttributeError):  # a frozen dataclass refuses assignment
            QuarticPoly(2, -1).weight = 1

    def test_unreachable_tolerance_is_a_hopf_error(self):
        # 4000 bisection steps from width 1 stop at width 2^-4000 > tol
        with pytest.raises(ToleranceNotReached):
            isolate_and_refine(quartic(0, 0, 1, 0, -2), 1, 2, Fraction(1, 2**4100))

    def test_refinement_may_take_the_last_level_below_the_bound(self):
        # the width test first passes at level 3999, the last one under the 4000-step bound
        (cert,) = isolate_and_refine(quartic(0, 0, 1, 0, -2), 1, 2, Fraction(1, 2**3998))
        lo, hi = cert.isolating_interval
        assert hi - lo == Fraction(1, 2**3999)

    def test_refinement_refuses_the_level_at_the_bound(self):
        # the width test first passes at level 4000, one past the last level the bound allows
        with pytest.raises(ToleranceNotReached):
            isolate_and_refine(quartic(0, 0, 1, 0, -2), 1, 2, Fraction(1, 2**3999))

    def test_refinement_stops_where_the_value_equals_tol(self):
        # 12x - 4 with tol 1/4: on (1/4, 3/8) the width 1/8 is below tol and
        # |P(5/16)| = 1/4 is tol itself, which the stop test accepts
        (cert,) = isolate_and_refine(QuarticPoly(12, -4), 0, 1, Fraction(1, 4))
        assert cert.isolating_interval == (Fraction(1, 4), Fraction(3, 8))

    @pytest.mark.parametrize("tol", [Fraction(1, 10**20), Fraction(1, 2**4100)])
    def test_refinement_lands_on_a_rational_root(self, tol):
        # the first bisection midpoint of (0, 1) is the root 1/2 of 2x - 1; the
        # exact hit certifies even a tol that 4000 halvings could not reach
        (cert,) = isolate_and_refine(quartic(0, 0, 0, 2, -1), 0, 1, tol)
        lo, hi = cert.isolating_interval
        assert lo < Fraction(1, 2) < hi
        assert hi - lo <= tol

    def test_exact_hit_window_is_cut_from_the_current_interval(self):
        # 8x - 3 on (0, 1): midpoints 1/2 and 1/4 miss, 3/8 is the root; half
        # the current width (1/8) is below tol, so the window radius is 1/16
        (cert,) = isolate_and_refine(quartic(0, 0, 0, 8, -3), 0, 1, Fraction(1, 5))
        assert cert.isolating_interval == (Fraction(5, 16), Fraction(7, 16))

    def test_exact_root_window_is_bounded(self):
        # x (x - 2^-4100) on (-1, 1): isolation hits the root 0, and no window
        # after 4000 halvings leaves out the second root
        with pytest.raises(ToleranceNotReached):
            isolate_and_refine(quartic(0, 0, 1, -Fraction(1, 2**4100), 0), -1, 1, 1)

    @pytest.mark.parametrize(
        "coeffs,lo",
        [
            # (x - 2^-8000)(x - 2^-7999) on (-1, 1): the roots part only after 7999 halvings
            ((0, 0, 1, -3 * Fraction(1, 2**8000), Fraction(1, 2**15999)), -1),
            # x (x - 2^-8000) on (0, 1): the root end 0 is bisected away for 8000 halvings
            ((0, 0, 1, -Fraction(1, 2**8000), 0), 0),
            # (x - 1/7)(x - 1/7 - 2^-4001) on (0, 1): the roots part only after 4001 halvings
            ((0, 0, 1, -Fraction(2, 7) - Fraction(1, 2**4001), Fraction(1, 49) + Fraction(1, 7 * 2**4001)), 0),
        ],
    )
    def test_isolation_is_bounded(self, coeffs, lo):
        with pytest.raises(ToleranceNotReached):
            isolate_and_refine(quartic(*coeffs), lo, 1, Fraction(1, 10**6))

    @pytest.mark.parametrize(
        "roots",
        [
            # on (0, 1) the two roots part at the 4000th halving, the last one allowed
            [Fraction(1, 7), Fraction(1, 7) + Fraction(1, 2**4000)],
            # the first midpoint is a root; beside its window a pair parts at the last halving
            [Fraction(1, 7), Fraction(1, 7) + Fraction(1, 2**4000), Fraction(1, 2)],
            [Fraction(1, 2), Fraction(5, 7), Fraction(5, 7) + Fraction(1, 2**4000)],
        ],
        ids=["pair", "pair-left-of-an-exact-root", "pair-right-of-an-exact-root"],
    )
    def test_isolation_may_take_every_halving(self, roots):
        certs = isolate_and_refine(_monic(roots), 0, 1, Fraction(1, 10**6))
        assert len(certs) == len(roots)
        assert all(cert.isolating_interval[0] < x < cert.isolating_interval[1] for cert, x in zip(certs, roots))

    @pytest.mark.parametrize(
        "roots",
        [
            # the first midpoint is a root; beside its window a pair parts only at the 4002nd halving,
            # so the bound refuses it, as it would not if the window's split did not count
            [Fraction(1, 7), Fraction(1, 7) + Fraction(1, 2**4002), Fraction(1, 2)],
            [Fraction(1, 2), Fraction(5, 7), Fraction(5, 7) + Fraction(1, 2**4002)],
        ],
        ids=["pair-left-of-an-exact-root", "pair-right-of-an-exact-root"],
    )
    def test_isolation_beside_an_exact_root_counts_its_halving(self, roots):
        with pytest.raises(ToleranceNotReached):
            isolate_and_refine(_monic(roots), 0, 1, Fraction(1, 10**6))

    def test_family_roots_get_an_exact_residual_and_no_radius(self):
        # certify_radii attaches radii; isolate_and_refine gives a family quartic's midpoints in (0, 1) only
        # their exact residual
        certs = isolate_and_refine(build_quartic(F(CP.CP_A1, 2), 2), 0, 1, Fraction(1, 10**8))
        assert len(certs) == 2
        assert all(type(cert.residual_at_radius) is Fraction and cert.radius is None for cert in certs)

    def test_free_polynomials_have_no_radius(self):
        # x^4 - x^2 has its roots -1, 0 and 1 outside (0, 1), and 2x - 3 its root 3/2
        certs = isolate_and_refine(quartic(1, 0, -1, 0, 0), -2, 2, Fraction(1, 10**8))
        certs += isolate_and_refine(QuarticPoly(2, -3), 0, 2, Fraction(1, 10**8))
        assert len(certs) == 4
        assert all(cert.radius is None and cert.residual_at_radius is None for cert in certs)

    def test_roots_outside_the_unit_interval_have_no_radius(self):
        # a weight is set as build_quartic sets it; 4x^4 - 5x^2 - 9 = (4x^2 - 9)(x^2 + 1) has its root 3/2 outside
        # (0, 1), where no tube is, so the weight gives it no residual
        poly = quartic(4, 0, -5, 0, -9)
        object.__setattr__(poly, "weight", 1)
        (cert,) = isolate_and_refine(poly, 0, 2, Fraction(1, 10**8))
        assert cert.isolating_interval[0] < Fraction(3, 2) < cert.isolating_interval[1]
        assert cert.radius is None and cert.residual_at_radius is None

    @pytest.mark.parametrize("lo,hi,tol", [(-0.5, 0.5, 2), (0.5, 1.5, 10)], ids=["centred-on-0", "centred-on-1"])
    def test_a_root_read_at_an_end_of_the_unit_interval_has_no_radius(self, lo, hi, tol):
        # the cell holds one root of the A1 quartic (n = 2, r = 2), and a tol above |P| there (1 at x = 0, 9 at
        # x = 1) stops refinement at once, so the root is read at the cell's midpoint, where no tube is
        (cert,) = isolate_and_refine(build_quartic(F(CP.CP_A1, 2), 2), lo, hi, tol)
        assert cert.refined_root == (lo + hi) / 2
        assert cert.radius is None and cert.residual_at_radius is None

class TestRootToRadius:
    def test_is_the_family_radius_map(self):
        assert hopfharmonic.root_to_radius is hopfharmonic.radius_from_x

    @mp.workdps(40)
    def test_examples(self):
        assert abs(root_to_radius(F(CP.CP_A1, 2), 0.5) - mp.pi / 4) < 1e-35
        assert abs(root_to_radius(F(CP.CP_A2, 3, 1), 0.75) - mp.pi / 6) < 1e-35
        assert abs(root_to_radius(F(CP.CP_B, 2), 0.25) - mp.pi / 6) < 1e-35

    @pytest.mark.parametrize("x", [0, 1, -0.5, 1.5])
    def test_degenerate_tubes_rejected(self, x):
        with pytest.raises(RootOutOfRange):
            root_to_radius(F(CP.CP_A1, 2), x)

    def test_radius_lands_in_domain(self):
        rng = random.Random(5)
        for _ in range(100):
            fam, r = _random_family_and_order(rng)
            x = mp.mpf(rng.uniform(1e-3, 1 - 1e-3))
            lo, hi = fam.radius_domain()
            assert lo < root_to_radius(fam, x) < hi


# Isolating intervals as certified before the exact layer moved onto
# integers; the integer bisection and Sturm chain must reproduce them bit
# for bit.  CP_D at r = 7 and CP_C(7) at r = 11 sit just below their
# existence thresholds and certify nothing; r = 97 and r = 12 pin roots.
GOLDEN_FAMILY_CERTIFICATES = [
    (F(CP.CP_A2, 3, 1), 2, 20, [
        ("49999999999999999999/200000000000000000000", "50000000000000000001/200000000000000000000"),
        ("149999999999999999999/200000000000000000000", "150000000000000000001/200000000000000000000"),
    ]),
    (F(CP.CP_D, 9), 7, 30, []),
    (F(CP.CP_D, 9), 97, 30, [
        ("2030697060031192563924161733065/40564819207303340847894502572032",
         "4061394120062385127848323466131/81129638414606681695789005144064"),
        ("2527462841790935192177184910089/10141204801825835211973625643008",
         "5054925683581870384354369820179/20282409603651670423947251286016"),
        ("638934818571012658005577201163/1267650600228229401496703205376",
         "40891828388544810112356940874433/81129638414606681695789005144064"),
        ("157873782734664517555224821663127/162259276829213363391578010288128",
         "19734222841833064694403102707891/20282409603651670423947251286016"),
    ]),
    (F(CP.CP_A1, 5), 30, 24, [
        ("164927949009068271422937/19342813113834066795298816", "82463974504534135711469/9671406556917033397649408"),
        ("1013833821083970922636021/9671406556917033397649408", "506916910541985461318011/4835703278458516698824704"),
        ("291004788645592708206671/1208925819614629174706176", "4656076618329483331306737/19342813113834066795298816"),
        ("603366408015608633925779275/618970019642690137449562112",
         "150841602003902158481444819/154742504910672534362390528"),
    ]),
    (F(CP.CP_C, 7), 11, 18, []),
    (F(CP.CP_C, 7), 12, 18, [
        ("706295290508997693/1152921504606846976", "353147645254498847/576460752303423488"),
        ("1537228672809129301/2305843009213693952", "3074457345618258603/4611686018427387904"),
    ]),
]

# (x^2 - 2)(x - 1)^2 on (-8, 8): isolation hits the double root 1 exactly at
# a midpoint, so the root of sqrt(2) is refined from a non-dyadic endpoint.
GOLDEN_FREE_CERTIFICATES = [
    ("-54709737280064589764386659/38685626227668133590597632",
     "-27354868640032294882193329/19342813113834066795298816"),
    ("39999999999999999999999999/40000000000000000000000000", "40000000000000000000000001/40000000000000000000000000"),
    ("34193585800040368602741660708172349227239919275269/24178516392292583494123520000000000000000000000000",
     "547097372800645897643866591330757587635838708404303/386856262276681335905976320000000000000000000000000"),
]


def _intervals(certs):
    return [tuple(map(str, cert.isolating_interval)) for cert in certs]


class TestGoldenCertificates:
    @pytest.mark.parametrize("fam,r,digits,expected", GOLDEN_FAMILY_CERTIFICATES)
    def test_family_intervals(self, fam, r, digits, expected):
        certs = isolate_and_refine(build_quartic(fam, r), 0, 1, Fraction(1, 10**digits))
        assert _intervals(certs) == expected
        assert all(isinstance(x, Fraction) for cert in certs for x in cert.isolating_interval)

    def test_free_quartic_on_wide_symmetric_interval(self):
        certs = isolate_and_refine(quartic(1, -2, -1, 4, -2), -8, 8, Fraction(1, 10**25))
        assert _intervals(certs) == GOLDEN_FREE_CERTIFICATES
