import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfharmonic import mp
from hopfharmonic import (
    ExcludedRadius,
    FamilyTag,
    HypersurfaceFamily,
    InvalidFamily,
    RadiusOutOfDomain,
    UnsupportedFamily,
    admissible_families,
    biharmonic_radii,
    curvature_spectrum,
    minimal_x,
    r_independent_x,
    radius_from_x,
    scaled_curvature_spectrum,
    spectrum_arrays,
    trace_shape,
    trace_shape_squared,
    tube_family,
    x_from_radius,
)
from hopfharmonic.families import _Angle, _angle_spectrum, _spectrum, fixed_dimension
from hopfharmonic.residual import residual

CP = FamilyTag
F = HypersurfaceFamily


def sample_families(n_max=8):
    fams = [F(CP.CP_A1, 1)]
    for n in range(2, n_max + 1):
        fams += [F(CP.CP_A1, n), F(CP.CP_B, n), F(CP.CH_A0, n),
                 F(CP.CH_A1_GEODESIC, n), F(CP.CH_A1_POINT, n), F(CP.CH_B, n)]
    for n in range(3, n_max + 1):
        for k in range(1, n - 1):
            fams += [F(CP.CP_A2, n, k), F(CP.CH_A2, n, k)]
    for n in range(5, n_max + 1, 2):
        fams.append(F(CP.CP_C, n))
    fams += [F(CP.CP_D, 9), F(CP.CP_E, 15)]
    return fams


class TestValidation:
    @pytest.mark.parametrize(
        "tag,n,k",
        [
            (CP.CP_A1, 0, None),
            (CP.CP_A2, 3, None),
            (CP.CP_A2, 3, 2),
            (CP.CP_A2, 2, 1),
            (CP.CP_B, 1, None),
            (CP.CP_C, 4, None),
            (CP.CP_C, 3, None),
            (CP.CP_D, 8, None),
            (CP.CP_E, 9, None),
            (CP.CH_A0, 1, None),
            (CP.CH_B, 2, 1),
            (CP.CP_A1, 2.5, None),
            (CP.CP_B, 7.5, None),
            (CP.CP_A2, 5.5, 1),
            (CP.CP_A2, 5, 1.5),
            (CP.CP_A1, None, None),
        ],
    )
    def test_rejects_bad_parameters(self, tag, n, k):
        with pytest.raises(InvalidFamily):
            F(tag, n, k)

    def test_rejects_unknown_tag(self):
        with pytest.raises(InvalidFamily):
            F("CP_F", 3)

    def test_missing_radius_is_out_of_domain(self):
        with pytest.raises(RadiusOutOfDomain):
            residual(F(CP.CP_A1, 2), None, 3)
        with pytest.raises(RadiusOutOfDomain):
            curvature_spectrum(F(CP.CH_B, 2))

    def test_radius_domain_violations(self):
        with pytest.raises(RadiusOutOfDomain):
            curvature_spectrum(F(CP.CP_B, 2), mp.pi / 3)
        with pytest.raises(RadiusOutOfDomain):
            curvature_spectrum(F(CP.CP_A1, 2), 0)
        with pytest.raises(RadiusOutOfDomain):
            curvature_spectrum(F(CP.CH_A1_GEODESIC, 2), -1)

    def test_ch_b_excluded_radius(self):
        t_bad = mp.log(2 + mp.sqrt(3)) / 2
        with pytest.raises(ExcludedRadius):
            curvature_spectrum(F(CP.CH_B, 2), t_bad)
        # nearby radii are fine, and there alpha stays away from the branches
        spec = curvature_spectrum(F(CP.CH_B, 2), t_bad + mp.mpf("0.05"))
        assert len(spec.branches) == 2


class TestEnumeration:
    N_MAX = 40

    def test_enumeration_matches_the_classification(self):
        yielded = [f for tag in CP for f in admissible_families(tag, self.N_MAX)]
        assert len(yielded) == len(set(yielded))
        assert set(yielded) == set(sample_families(self.N_MAX))

    @pytest.mark.parametrize("tag", list(CP), ids=lambda t: t.value)
    def test_construction_matches_enumeration(self, tag):
        yielded = list(admissible_families(tag, self.N_MAX))
        assert [(f.n, f.k or 0) for f in yielded] == sorted((f.n, f.k or 0) for f in yielded)
        admissible = {(f.n, f.k) for f in yielded}
        for n in range(-1, self.N_MAX + 1):
            for k in [None, *range(-1, n + 1)]:
                try:
                    F(tag, n, k)
                    constructed = True
                except InvalidFamily:
                    constructed = False
                assert constructed == ((n, k) in admissible), (tag, n, k)

    def test_fixed_dimensions(self):
        assert fixed_dimension(CP.CP_D) == 9 and fixed_dimension(CP.CP_E) == 15
        assert all(fixed_dimension(tag) is None for tag in CP if tag not in (CP.CP_D, CP.CP_E))
        assert list(admissible_families(CP.CP_E, 14)) == []
        assert list(admissible_families(CP.CP_D, 40)) == [F(CP.CP_D, 9)]


class TestSpectra:
    def test_cp_a1_at_quarter_pi(self):
        spec = curvature_spectrum(F(CP.CP_A1, 2), mp.pi / 4)
        assert abs(spec.alpha) < 1e-35
        (lam, m), = spec.branches
        assert m == 2 and abs(lam + 1) < 1e-35

    def test_horosphere_is_radius_free(self):
        spec = curvature_spectrum(F(CP.CH_A0, 2))
        assert spec.alpha == 2
        assert spec.branches == ((mp.mpf(1), 2),)
        assert curvature_spectrum(F(CP.CH_A0, 2), 17.5) == spec

    def test_cp_b_exact_surds(self):
        spec = curvature_spectrum(F(CP.CP_B, 3), mp.pi / 8)
        assert abs(spec.alpha - 2) < 1e-35
        lams = dict((m, lam) for lam, m in spec.branches)
        assert len(spec.branches) == 2
        (l1, m1), (l2, m2) = spec.branches
        assert m1 == m2 == 2
        assert abs(l1 + (1 + mp.sqrt(2))) < 1e-35
        assert abs(l2 - (mp.sqrt(2) - 1)) < 1e-35

    def test_curve_case_has_alpha_only(self):
        spec = curvature_spectrum(F(CP.CP_A1, 1), mp.mpf("0.3"))
        assert spec.branches == ()
        assert abs(spec.alpha - 2 * mp.cot(mp.mpf("0.6"))) < 1e-35

    def test_a_zero_multiplicity_curvature_is_never_evaluated(self):
        # an eager table would take a coth or tanh of multiplicity 0 over every chn_scan grid
        def calls(fam, t):
            made = []
            lib = SimpleNamespace(pi=mp.pi, **{
                name: lambda x, name=name: made.append((name, x)) or getattr(mp, name)(x)
                for name in ("tan", "tanh", "cot", "coth")
            })
            _spectrum(fam, t, lib, mp.mpf(1))
            return made

        t = mp.mpf("0.3")
        assert calls(F(CP.CP_A1, 1), t) == [("cot", 2 * t)]
        assert calls(F(CP.CH_A1_POINT, 4), t) == [("coth", 2 * t), ("coth", t)]
        assert calls(F(CP.CH_A1_GEODESIC, 4), t) == [("coth", 2 * t), ("tanh", t)]
        assert calls(F(CP.CP_A2, 5, 2), t) == [("cot", 2 * t), ("cot", t), ("tan", t)]

    @pytest.mark.parametrize("fam", sample_families(), ids=lambda f: f"{f.tag.value}-n{f.n}-k{f.k}")
    def test_dimension_invariant(self, fam):
        rng = random.Random(1234)
        domain = fam.radius_domain()
        hi = 1.5 if domain is None or domain[1] == mp.inf else float(domain[1])
        for _ in range(3):
            t = rng.uniform(0.05, hi - 0.05) if domain is not None else None
            spec = curvature_spectrum(fam, t)
            assert 1 + sum(m for _, m in spec.branches) == 2 * fam.n - 1

    def test_quarter_turn_identities_at_random_radii(self):
        rng = random.Random(99)
        for _ in range(200):
            t = mp.mpf(rng.uniform(1e-3, float(mp.pi) / 4 - 1e-3))
            lams = [mp.cot(t - j * mp.pi / 4) for j in range(4)]
            s1 = mp.fsum(lams)
            s2 = mp.fsum(l * l for l in lams)
            assert abs(s1 - 4 * mp.cot(4 * t)) <= 1e-10 * max(1, abs(4 * mp.cot(4 * t)))
            assert abs(s2 - (12 + 16 * mp.cot(4 * t) ** 2)) <= 1e-10 * abs(12 + 16 * mp.cot(4 * t) ** 2)


class TestTraces:
    def test_trace_zero_at_pi_six_for_a1_n2(self):
        spec = curvature_spectrum(F(CP.CP_A1, 2), mp.pi / 6)
        assert abs(trace_shape(spec)) < 1e-35

    def test_horosphere_traces(self):
        spec = curvature_spectrum(F(CP.CH_A0, 2))
        assert trace_shape(spec) == 4
        assert trace_shape_squared(spec) == 6

    @pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (9, 4), (12, 7)])
    def test_a2_trace_zero_at_special_radius(self, n, k):
        t_star = mp.atan(mp.sqrt(mp.mpf(2 * n - 2 * k - 1) / (2 * k + 1)))
        spec = curvature_spectrum(F(CP.CP_A2, n, k), t_star)
        assert abs(trace_shape(spec)) < 1e-30

    def test_trace_sq_at_quarter_pi(self):
        spec = curvature_spectrum(F(CP.CP_A1, 2), mp.pi / 4)
        assert abs(trace_shape_squared(spec) - 2) < 1e-35

    def test_trace_sq_at_biharmonic_radius(self):
        t_plus = mp.acos(mp.sqrt((7 + mp.sqrt(13)) / 12))
        spec = curvature_spectrum(F(CP.CP_A1, 2), t_plus)
        assert abs(trace_shape_squared(spec) - 6) < 1e-30


class TestSpecialRadii:
    def test_a1_closed_forms(self):
        for n in (2, 3, 10):
            fam = F(CP.CP_A1, n)
            assert abs(radius_from_x(fam, minimal_x(fam)) - mp.atan(mp.sqrt(mp.mpf(1) / (2 * n - 1)))) < 1e-30
            assert abs(radius_from_x(fam, r_independent_x(fam)) - mp.atan(mp.sqrt(mp.mpf(2) / (n + 1)))) < 1e-30

    def test_b_closed_form(self):
        for n in (2, 5, 11):
            fam = F(CP.CP_B, n)
            assert abs(radius_from_x(fam, minimal_x(fam)) - mp.atan(mp.sqrt(n - 1)) / 2) < 1e-30

    @pytest.mark.parametrize("fam", [f for f in sample_families(10) if f.is_projective],
                             ids=lambda f: f"{f.tag.value}-n{f.n}-k{f.k}")
    def test_reevaluation_tolerances(self, fam):
        spec_min = curvature_spectrum(fam, radius_from_x(fam, minimal_x(fam)))
        assert abs(trace_shape(spec_min)) < 1e-12
        spec_ind = curvature_spectrum(fam, radius_from_x(fam, r_independent_x(fam)))
        assert abs(trace_shape(spec_ind) + 3 * spec_ind.alpha) < 1e-12

    @pytest.mark.parametrize(
        "special_x,alpha_weight", [(minimal_x, 0), (r_independent_x, 3)], ids=["minimal", "r-independent"]
    )
    def test_special_trace_equations_up_to_n_50(self, special_x, alpha_weight):
        # minimal_x solves trace = 0, r_independent_x solves trace + 3 alpha = 0
        fams = [F(CP.CP_A1, n) for n in range(2, 51)]
        fams += [F(CP.CP_B, n) for n in range(2, 51)]
        fams += [F(CP.CP_A2, n, k) for n in range(3, 51) for k in range(1, n - 1)]
        fams += [F(CP.CP_C, n) for n in range(5, 51, 2)]
        fams += [F(CP.CP_D, 9), F(CP.CP_E, 15)]
        for fam in fams:
            spec = curvature_spectrum(fam, radius_from_x(fam, special_x(fam)))
            assert abs(trace_shape(spec) + alpha_weight * spec.alpha) < 1e-12

    def test_hyperbolic_families_unsupported(self):
        with pytest.raises(UnsupportedFamily):
            minimal_x(F(CP.CH_A0, 2))
        with pytest.raises(UnsupportedFamily):
            minimal_x(F(CP.CH_B, 3))
        for call in (r_independent_x, lambda f: radius_from_x(f, 0.5), lambda f: x_from_radius(f, 0.3)):
            with pytest.raises(UnsupportedFamily):
                call(F(CP.CH_A2, 5, 2))


class TestConversions:
    @pytest.mark.parametrize("fam", [f for f in sample_families(7) if f.is_projective],
                             ids=lambda f: f"{f.tag.value}-n{f.n}-k{f.k}")
    def test_radius_x_round_trip(self, fam):
        for x in (mp.mpf("0.12"), mp.mpf("0.5"), mp.mpf("0.93")):
            t = radius_from_x(fam, x)
            lo, hi = fam.radius_domain()
            assert lo < t < hi
            assert abs(x_from_radius(fam, t) - x) < 1e-35

    def test_r_independent_x_values(self):
        assert r_independent_x(F(CP.CP_A1, 2)) == pytest.approx(0.4)
        assert minimal_x(F(CP.CP_D, 9)) * 9 == 4
        assert minimal_x(F(CP.CP_E, 15)) * 5 == 2


# SHA-256 of every admissible family's table values with n <= 30 (flags,
# radius variable, domain, excluded radius, the two exact special x, their
# radii and radius/x round trips), as exact reprs at 30 and at 50 digits.
FAMILY_TABLE_DIGEST = "3f58bb390bb2f7a417c058ad045a7b21aa12963a46956cbd1eb2acc86ba123de"


@dataclass(frozen=True)
class SpecialRadii:  # the record of the two special radii whose repr the digest holds
    t_minimal: object
    t_r_independent: object


def _family_table_lines():
    for dps in (30, 50):
        with mp.workdps(dps):
            for tag in CP:
                yield repr((dps, tag, fixed_dimension(tag)))
                for fam in admissible_families(tag, 30):
                    row = [fam.is_projective, fam.space_form_sign, fam.substitution, fam.excluded_radius,
                           fam.radius_domain()]
                    if fam.is_projective:
                        specials = (minimal_x(fam), r_independent_x(fam))
                        row += [*specials, SpecialRadii(*(radius_from_x(fam, x) for x in specials))]
                        for x in (*specials, Fraction(1, 7), Fraction(1, 2), Fraction(6, 7)):
                            t = radius_from_x(fam, x)
                            row += [t, x_from_radius(fam, t)]
                    yield repr((fam, row))


def test_family_table_values_keep_their_digest():
    text = "\n".join(_family_table_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == FAMILY_TABLE_DIGEST


# SHA-256 of the spectrum table in every lane, for every admissible family
# with n <= 12 and D and E at their one n, at three radii: the exact mpf
# tuples of curvature_spectrum and _angle_spectrum at 30 and at 50 digits,
# and the float64 bytes of spectrum_arrays.
SPECTRUM_DIGEST = "ef2e040349ce74758097b7b44d1e0a766df4b5499f4afe6785ceb3339c1e29c2"


def _exact(x):
    return tuple(map(int, x._mpf_))  # as ints, whichever integer type the mpmath backend uses


def _spectrum_values():
    for dps in (30, 50):
        with mp.workdps(dps):
            for tag in CP:
                for fam in admissible_families(tag, max(12, fixed_dimension(tag) or 0)):
                    domain = fam.radius_domain()
                    hi = 4 if domain is None or domain[1] == mp.inf else domain[1]
                    radii = [hi * mp.mpf(j) / 8 for j in (1, 3, 7)]
                    spectra = [curvature_spectrum(fam, t) for t in radii]
                    if tag in (CP.CP_A1, CP.CP_A2, CP.CP_B):
                        spectra += [_angle_spectrum(fam, mp.cos(t), mp.sin(t)) for t in radii]
                    for spec in spectra:
                        yield repr((dps, fam, _exact(spec.alpha), [(_exact(lam), m) for lam, m in spec.branches]))
                    alpha, branches = spectrum_arrays(fam, [float(t) for t in radii])
                    yield repr((dps, fam, alpha.tobytes(), [(lam.tobytes(), m) for lam, m in branches]))


def test_spectrum_table_keeps_its_digest():
    text = "\n".join(_spectrum_values())
    assert hashlib.sha256(text.encode()).hexdigest() == SPECTRUM_DIGEST


class TestScaling:
    @given(
        st.sampled_from([(CP.CP_A1, 3, None), (CP.CP_A2, 4, 2), (CP.CP_B, 5, None)]),
        st.floats(min_value=0.1, max_value=0.5),
        st.floats(min_value=0.5, max_value=8.0),
    )
    def test_curvature_rescaling(self, fam_args, t, c):
        fam = F(*fam_args)
        s = mp.sqrt(c) / 2
        scaled = scaled_curvature_spectrum(fam, t, c)
        base = curvature_spectrum(fam, s * mp.mpf(t))
        assert abs(scaled.alpha - s * base.alpha) < 1e-25
        for (ls, ms), (lb, mb) in zip(scaled.branches, base.branches):
            assert ms == mb
            assert abs(ls - s * lb) < 1e-25
        # extremal branch positions survive the scaling
        vals_s = [ls for ls, _ in scaled.branches]
        vals_b = [lb for lb, _ in base.branches]
        assert vals_s.index(max(vals_s)) == vals_b.index(max(vals_b))

    def test_wrong_sign_rejected(self):
        with pytest.raises(UnsupportedFamily):
            scaled_curvature_spectrum(F(CP.CP_A1, 2), 0.3, -4)
        with pytest.raises(UnsupportedFamily):
            scaled_curvature_spectrum(F(CP.CH_B, 2), 0.3, 4)


class TestGridLane:
    @pytest.mark.parametrize("fam", sample_families(6), ids=lambda f: f"{f.tag.value}-n{f.n}-k{f.k}")
    def test_agrees_with_mpmath_lane(self, fam):
        import numpy as np

        domain = fam.radius_domain()
        hi = 1.3 if domain is None or domain[1] == mp.inf else float(domain[1]) - 0.05
        ts = np.linspace(0.07, hi, 7)
        alpha, branches = spectrum_arrays(fam, ts)
        for i, t in enumerate(ts):
            spec = curvature_spectrum(fam, t)
            assert abs(alpha[i] - float(spec.alpha)) < 1e-9 * max(1, abs(alpha[i]))
            for (lam_arr, m_arr), (lam, m) in zip(branches, spec.branches):
                assert m_arr == m
                assert abs(lam_arr[i] - float(lam)) < 1e-9 * max(1, abs(lam_arr[i]))


def assert_spectra_agree(angle, spec, rel=mp.mpf(10) ** -25):
    assert abs(angle.alpha - spec.alpha) <= rel * abs(spec.alpha)
    assert [m for _, m in angle.branches] == [m for _, m in spec.branches]
    for (lam_a, _), (lam, _) in zip(angle.branches, spec.branches):
        assert abs(lam_a - lam) <= rel * abs(lam)


class TestAngleLane:
    # sample_families starts with the curve case CP_A1, n = 1 (no branches).
    ANGLE_FAMILIES = [fam for fam in sample_families(8) if fam.tag in (CP.CP_A1, CP.CP_A2, CP.CP_B)]

    @pytest.mark.parametrize("fam", ANGLE_FAMILIES, ids=lambda f: f"{f.tag.value}-n{f.n}-k{f.k}")
    def test_agrees_with_mpmath_lane_at_random_radii(self, fam):
        rng = random.Random(f"{fam.tag.value}-{fam.n}-{fam.k}")
        hi = fam.radius_domain()[1]
        for _ in range(25):
            t = hi * mp.mpf(rng.uniform(1e-3, 1 - 1e-3))
            angle = _angle_spectrum(fam, mp.cos(t), mp.sin(t))
            assert_spectra_agree(angle, curvature_spectrum(fam, t))

    def test_agrees_with_mpmath_lane_at_every_biharmonic_tube(self):
        for n in range(2, 61):
            for p in range(1, n):
                fam = tube_family(n, p)
                for tube in biharmonic_radii(n, p):
                    angle = _angle_spectrum(fam, mp.sqrt(tube.cos_sq_t), mp.sqrt(1 - tube.cos_sq_t))
                    assert_spectra_agree(angle, curvature_spectrum(fam, tube.t))

    @pytest.mark.parametrize(
        "fam",
        [fam for fam in sample_families(6) if fam.tag not in (CP.CP_A1, CP.CP_A2, CP.CP_B)],
        ids=lambda f: f"{f.tag.value}-n{f.n}-k{f.k}",
    )
    def test_other_families_are_unsupported(self, fam):
        with pytest.raises(UnsupportedFamily):
            _angle_spectrum(fam, mp.cos(mp.mpf("0.3")), mp.sin(mp.mpf("0.3")))

    def test_only_the_double_angle_is_defined(self):
        # the table's rows use t and 2t alone; any other multiple must not pass as a tuple repeat
        t = mp.mpf("0.3")
        angle = _Angle(mp.cos(t), mp.sin(t))
        double = 2 * angle
        assert type(double) is _Angle
        assert abs(double.cos - mp.cos(2 * t)) < mp.mpf(10) ** (-35)
        assert abs(double.sin - mp.sin(2 * t)) < mp.mpf(10) ** (-35)
        with pytest.raises(TypeError):
            3 * angle
