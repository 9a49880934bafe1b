import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfharmonic import mp
from hopfharmonic import (
    FamilyTag,
    HopfError,
    HypersurfaceFamily,
    InvalidOrder,
    RadiusOutOfDomain,
    UnsupportedFamily,
    admissible_families,
    chn_scan,
    chn_sweep,
    curvature_spectrum,
    r_independent_x,
    radius_from_x,
    residual,
    residual_grid,
    spectrum_arrays,
    tail_residual,
    trace_shape,
    trace_shape_squared,
)
from hopfharmonic.errors import ExcludedRadius
from hopfharmonic.residual import _residual_value

F = HypersurfaceFamily
CP = FamilyTag


class TestResidualValues:
    @pytest.mark.parametrize("r", [2, 3, 5, 17, 64])
    @mp.workdps(40)
    def test_curve_closed_form(self, r):
        # a circle of radius t in the projective line is properly r-harmonic
        # exactly when sin^2(2t) = 1/r
        fam = F(CP.CP_A1, 1)
        t = mp.asin(1 / mp.sqrt(r)) / 2
        rep = residual(fam, t, r)
        assert abs(rep.residual) < 1e-30
        assert abs(rep.residual) <= 1e-12 and abs(rep.trace) > 1e-12

    @mp.workdps(40)
    def test_a2_exact_zero_at_pi_six(self):
        fam = F(CP.CP_A2, 3, 1)
        rep = residual(fam, mp.pi / 6, 2)
        assert abs(rep.residual) < 1e-30
        assert abs(rep.residual) <= 1e-10 and abs(rep.trace) > 1e-10

    def test_horosphere_constant(self):
        rep = residual(F(CP.CH_A0, 2), None, 2)
        assert rep.residual == -72
        assert rep.trace == 4 and rep.trace_sq == 6

    def test_minimal_radius_is_not_proper(self):
        fam = F(CP.CP_A1, 2)
        rep = residual(fam, mp.pi / 6, 5)
        assert abs(rep.trace) < 1e-30
        assert not (abs(rep.residual) <= 1e-10 and abs(rep.trace) > 1e-10)

    def test_generic_radius_is_not_proper(self):
        fam = F(CP.CP_A1, 2)
        rep = residual(fam, mp.pi / 5, 2)
        assert rep.residual < -0.3  # decisively nonzero
        assert not (abs(rep.residual) <= 1e-10 and abs(rep.trace) > 1e-10)

    def test_rejects_low_order(self):
        with pytest.raises(InvalidOrder):
            residual(F(CP.CP_A1, 2), 0.3, 1)

    def test_the_default_order_is_biharmonic(self):
        fam, t = F(CP.CP_A2, 3, 1), mp.pi / 5
        assert residual(fam, t).r == 2
        assert residual(fam, t) == residual(fam, t, 2)


class TestResidualStructure:
    @given(
        st.sampled_from([(CP.CP_A1, 4, None), (CP.CP_A2, 5, 2), (CP.CP_B, 3, None), (CP.CH_A1_POINT, 3, None)]),
        st.floats(min_value=0.08, max_value=0.7),
    )
    def test_affine_in_order(self, fam_args, t):
        fam = F(*fam_args)
        r1, r2, r3 = 2, 7, 23
        v1 = residual(fam, t, r1).residual
        v2 = residual(fam, t, r2).residual
        v3 = residual(fam, t, r3).residual
        slope_12 = (v2 - v1) / (r2 - r1)
        slope_13 = (v3 - v1) / (r3 - r1)
        assert abs(slope_12 - slope_13) < 1e-22 * max(1, abs(slope_13))
        # the slope is the negative of trace * (trace + 3 alpha)
        spec = curvature_spectrum(fam, t)
        tr = trace_shape(spec)
        assert abs(slope_12 + tr * (tr + 3 * spec.alpha)) < 1e-22 * max(1, abs(tr))

    @pytest.mark.parametrize(
        "fam",
        [F(CP.CP_A1, 3), F(CP.CP_A2, 6, 2), F(CP.CP_B, 4), F(CP.CP_C, 7), F(CP.CP_D, 9), F(CP.CP_E, 15)],
        ids=lambda f: f"{f.tag.value}-n{f.n}",
    )
    def test_order_free_radius(self, fam):
        t = radius_from_x(fam, r_independent_x(fam))
        values = [residual(fam, t, r).residual for r in (2, 7, 23)]
        assert abs(values[0] - values[1]) < 1e-25 * max(1, abs(values[0]))
        assert abs(values[0] - values[2]) < 1e-25 * max(1, abs(values[0]))

    def test_report_consistency(self):
        fam = F(CP.CP_B, 3)
        t = mp.mpf("0.4")
        rep = residual(fam, t, 9)
        spec = curvature_spectrum(fam, t)
        assert rep.alpha == spec.alpha
        assert rep.trace == trace_shape(spec)
        assert rep.trace_sq == trace_shape_squared(spec)
        expected = rep.trace_sq**2 - 8 * rep.trace_sq - 7 * rep.trace**2 - 21 * rep.alpha * rep.trace
        assert abs(rep.residual - expected) < 1e-30


class TestHyperbolicScan:
    def test_horosphere_scan_is_constant(self):
        value = chn_scan(F(CP.CH_A0, 2), 2, np.linspace(0.1, 5, 50))
        assert value == pytest.approx(-72.0, abs=1e-9)
        with pytest.raises(RadiusOutOfDomain):
            chn_scan(F(CP.CH_A0, 2), 2, [])

    def test_geodesic_tube_scan(self):
        value = chn_scan(F(CP.CH_A1_GEODESIC, 3), 4, np.linspace(0.01, 5, 1000))
        assert value < -1e-6

    def test_b_scan_avoiding_excluded_radius(self):
        fam = F(CP.CH_B, 2)
        grid = np.linspace(0.01, 5, 1000)
        bad = float(fam.excluded_radius)
        grid = grid[np.abs(grid - bad) > 1e-6]
        assert chn_scan(fam, 3, grid) < -1e-6

    def test_grid_containing_excluded_radius_rejected(self):
        fam = F(CP.CH_B, 2)
        with pytest.raises(ExcludedRadius):
            chn_scan(fam, 2, [0.5, float(fam.excluded_radius)])

    @pytest.mark.parametrize("grid", [[], [0.0, 0.5], [-1.0], [0.5, float("nan")], [0.5, float("inf")]])
    def test_grid_outside_domain_rejected(self, grid):
        with pytest.raises(RadiusOutOfDomain):
            chn_scan(F(CP.CH_A1_POINT, 2), 2, grid)
        # spectrum_arrays holds the radius checks that residual_grid runs; only the empty grid is chn_scan's own
        if grid:
            with pytest.raises(RadiusOutOfDomain):
                residual_grid(F(CP.CH_B, 3), 2, grid)

    def test_projective_family_rejected(self):
        with pytest.raises(UnsupportedFamily):
            chn_scan(F(CP.CP_A1, 2), 2, [0.3])
        with pytest.raises(UnsupportedFamily):
            tail_residual(F(CP.CP_B, 2), 2)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("r", [2, 7, 20])
    def test_all_families_negative_on_moderate_grid(self, n, r):
        grid = np.linspace(0.01, 12, 2000)
        fams = [F(CP.CH_A0, n), F(CP.CH_A1_GEODESIC, n), F(CP.CH_A1_POINT, n), F(CP.CH_B, n)]
        fams += [F(CP.CH_A2, n, k) for k in range(1, n - 1)]
        for fam in fams:
            assert chn_scan(fam, r, grid) < -1e-6
            assert tail_residual(fam, r) < -1

    def test_tail_matches_large_radius_values(self):
        fam = F(CP.CH_A2, 4, 2)
        limit = tail_residual(fam, 6)
        far = residual(fam, 25, 6).residual
        assert abs(far - limit) < 1e-12


CH_B3 = F(CP.CH_B, 3)
# one bad input each, as chn_scan(family, r, grid); the sweep gets r among good orders
SCAN_FAULTS = {
    "order-1": (CH_B3, 1, [0.3]),
    "order-float": (CH_B3, 2.5, [0.3]),
    "order-str": (CH_B3, "3", [0.3]),
    "order-none": (CH_B3, None, [0.3]),
    "order-past-2^53": (CH_B3, 2**53 + 1, [0.3]),
    "empty-grid": (CH_B3, 3, []),
    "projective": (F(CP.CP_A1, 3), 3, [0.3]),
    "excluded-radius": (CH_B3, 3, [0.3, float(CH_B3.excluded_radius)]),
    "2(n+1)-past-2^53": (F(CP.CH_A0, 2**52), 3, [0.3]),
    "overflow": (CH_B3, 3, [0.3, 1e-160]),  # (tr S^2)^2 past float64
}


class TestHyperbolicSweep:
    def test_equals_the_scan_at_every_order(self):
        grid = np.linspace(0.01, 12, 2000)
        orders = range(2, 41)
        families = [f for tag in CP if not tag.value.startswith("CP_") for f in admissible_families(tag, 12)]
        assert len(families) > 22
        for fam in families:
            sweep = chn_sweep(fam, orders, grid)
            assert sweep.dtype == np.float64
            assert sweep.tobytes() == np.array([chn_scan(fam, r, grid) for r in orders]).tobytes(), fam

    @pytest.mark.parametrize("family,r,grid", SCAN_FAULTS.values(), ids=SCAN_FAULTS)
    def test_refuses_what_the_scan_refuses(self, family, r, grid):
        with pytest.raises(HopfError) as scan:
            chn_scan(family, r, grid)
        for orders in ([r], [r, 5], [2, r, 5], [2, r]):  # the order first, inside and last
            with pytest.raises(HopfError) as sweep:
                chn_sweep(family, orders, grid)
            assert type(sweep.value) is type(scan.value), orders

    @pytest.mark.parametrize("orders", [[], (), range(2, 2), None, 3], ids=repr)
    def test_refuses_no_orders(self, orders):
        with pytest.raises(InvalidOrder):
            chn_sweep(CH_B3, orders, [0.3])


class TestGridLane:
    @pytest.mark.parametrize(
        "fam,t_hi",
        [(F(CP.CP_A1, 2), 1.5), (F(CP.CP_A2, 4, 2), 1.5), (F(CP.CP_B, 3), 0.78),
         (F(CP.CP_C, 5), 0.78), (F(CP.CH_B, 3), 3.0),
         (F(CP.CP_A1, 1), 1.5), (F(CP.CP_D, 9), 0.78), (F(CP.CP_E, 15), 0.78),
         (F(CP.CH_A0, 3), 3.0), (F(CP.CH_A1_GEODESIC, 3), 3.0), (F(CP.CH_A1_POINT, 3), 3.0),
         (F(CP.CH_A2, 5, 2), 3.0)],
        ids=lambda v: str(v),
    )
    def test_agrees_with_mpmath_lane(self, fam, t_hi):
        ts = np.linspace(0.05, t_hi, 9)
        vals = residual_grid(fam, 5, ts)
        for t, v in zip(ts, vals):
            exact = float(residual(fam, t, 5).residual)
            assert abs(v - exact) <= 1e-9 * max(1.0, abs(exact))

    @pytest.mark.parametrize("tag", list(CP), ids=lambda tag: tag.value)
    def test_factored_lane_is_the_expanded_residual(self, tag):
        # base - (r - 2) slope against _residual_value on the same float64 sums, over the benchmark's 1000-point grids:
        # each side rounds a few products and sums of the four terms, so they agree to 8 ulps of the largest term
        for fam in admissible_families(tag, 12):
            hi = float(fam.radius_domain()[1]) if fam.is_projective else 12.0
            ts = np.linspace(hi / 1001, hi * 1000 / 1001, 1000)
            alpha, branches = spectrum_arrays(fam, ts)
            trace = alpha + sum(m * lam for lam, m in branches)
            trace_sq = alpha**2 + sum(m * lam**2 for lam, m in branches)
            for r in (2, 17, 89):
                expanded = _residual_value(fam.space_form_sign, fam.n, r, trace, trace_sq, alpha)
                terms = (trace_sq**2, 2 * (fam.n + 1) * trace_sq, (r - 2) * trace**2, 3 * alpha * (r - 2) * trace)
                ulp = np.spacing(np.max(np.abs(terms), axis=0))
                assert np.all(np.abs(residual_grid(fam, r, ts) - expanded) <= 8 * ulp), (fam, r)
