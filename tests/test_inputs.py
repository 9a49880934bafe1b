"""Rejected inputs: every library entry point raises a HopfError for them."""

import importlib.util
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import to_rational

import hopfharmonic
from hopfharmonic import (
    ExcludedRadius,
    FamilyTag,
    HopfError,
    HypersurfaceFamily,
    InvalidFamily,
    InvalidOrder,
    InvalidRootSearch,
    InvalidTolerance,
    NoExactCountGuarantee,
    NotApplicable,
    ProbesCollide,
    QuarticPoly,
    RadiusOutOfDomain,
    RootOutOfRange,
    ToleranceNotReached,
    UnsupportedFamily,
    a1_offset_probe_poly,
    a2_closed_form,
    admissible_families,
    asymptotic_check,
    biharmonic_radii,
    build_quartic,
    certify_radii,
    chn_scan,
    chn_sweep,
    count_real_roots,
    count_solutions,
    curvature_spectrum,
    eta1,
    guaranteed_thresholds,
    index_threshold_scan,
    isolate_and_refine,
    k_above_k2,
    k_below_k1,
    minimal_x,
    probe_values,
    r_independent_x,
    radius_from_x,
    residual,
    residual_grid,
    root_to_radius,
    scaled_curvature_spectrum,
    spectrum_arrays,
    stability_condition,
    tail_residual,
    tube_family,
    x_from_radius,
)
from hopfharmonic.errors import mp, to_fraction
from hopfharmonic.families import CurvatureSpectrum, _angle_spectrum

F = HypersurfaceFamily
CP = FamilyTag
A1 = F(CP.CP_A1, 3)
GRID = np.linspace(0.05, 6.0, 40)

# Every entry point that takes an order r, as a function of r alone.
ORDER_ENTRY_POINTS = {
    "build_quartic": lambda r: build_quartic(A1, r),
    "count_solutions": lambda r: count_solutions(A1, r),
    "probe_values": lambda r: probe_values(A1, r),
    "certify_radii": lambda r: certify_radii(A1, r, Fraction(1, 10**12)),
    "residual": lambda r: residual(A1, 0.3, r),
    "residual_grid": lambda r: residual_grid(A1, r, np.linspace(0.1, 1.4, 9)).tolist(),
    "chn_scan": lambda r: chn_scan(F(CP.CH_A1_GEODESIC, 3), r, GRID),
    "chn_sweep": lambda r: chn_sweep(F(CP.CH_A1_GEODESIC, 3), [2, r], GRID).tolist(),
    "tail_residual": lambda r: tail_residual(F(CP.CH_A2, 4, 1), r),
    "a2_closed_form": lambda r: a2_closed_form(5, r),
}


@pytest.mark.parametrize("r", [2.5, 3.0, "3", None, 1, True], ids=repr)
@pytest.mark.parametrize("entry", ORDER_ENTRY_POINTS)
def test_non_orders_raise_invalid_order(entry, r):
    with pytest.raises(InvalidOrder):
        ORDER_ENTRY_POINTS[entry](r)


@pytest.mark.parametrize("entry", ORDER_ENTRY_POINTS)
def test_integer_like_order_gives_the_same_result(entry):
    call = ORDER_ENTRY_POINTS[entry]
    assert call(np.int64(3)) == call(3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: index_threshold_scan(1.5, 50),
        lambda: index_threshold_scan(1, 50.0),
        lambda: index_threshold_scan("1", 50),
        lambda: stability_condition(5, 1, "x"),
        lambda: a2_closed_form(5.0, 3),
        lambda: a2_closed_form("5", 3),
        lambda: tube_family(None, 1),
        lambda: stability_condition(5, 1.0, "plus"),
        lambda: tube_family(3, True),
        lambda: F(CP.CP_A1, True),
        lambda: index_threshold_scan(True, 50),
        # the integer formulas raised TypeError, returned -21.0 and floats, and a KeyError
        lambda: eta1("a", 2),
        lambda: a1_offset_probe_poly(2.5),
        lambda: list(admissible_families("x", 3)),
        lambda: list(admissible_families(CP.CP_A1, 3.0)),
    ],
    ids=[
        "scan-p-float", "scan-n_max-float", "scan-p-str", "branch", "closed-form-n-float", "closed-form-n-str",
        "tube-n-none", "stability-p-float", "tube-p-true", "family-n-true", "scan-p-true", "eta1-n-str",
        "offset-probe-n-float", "families-tag-str", "families-n_max-float",
    ],
)
def test_biharmonic_and_window_inputs_raise_invalid_family(call):
    with pytest.raises(InvalidFamily):
        call()


# a Decimal passed the positivity test, then raised a bare TypeError in the conversion or comparison
BAD_TOLERANCES = [0, -1e-10, float("nan"), float("inf"), "1e-10", None, Decimal("1e-10")]


@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=repr)
def test_isolate_and_refine_rejects_tolerance(tol):
    with pytest.raises(InvalidTolerance):
        isolate_and_refine(build_quartic(A1, 3), 0, 1, tol)


def test_an_infinite_tolerance_is_refused_as_not_finite():
    # the tolerance check itself refuses inf, so the message names the rule, not the later exact conversion
    with pytest.raises(InvalidTolerance, match="^tolerance must be a finite positive number, got inf$"):
        isolate_and_refine(build_quartic(A1, 3), 0, 1, math.inf)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=repr)
def test_a_non_finite_mpf_is_refused_as_its_float_is(value):
    # an mpf reaches the domain, range or sign rule as it is, so an infinite or NaN mpf gets the float's message
    for call, error in (
        (lambda v: x_from_radius(A1, v), RadiusOutOfDomain),
        (lambda v: radius_from_x(A1, v), RootOutOfRange),
        (lambda v: scaled_curvature_spectrum(A1, 0.3, v), UnsupportedFamily),
    ):
        messages = []
        for v in (value, mp.mpf(value)):
            with pytest.raises(error) as info:
                call(v)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def test_a_str_in_an_object_array_of_radii_is_refused():
    # astype(float) would read "0.3" as 0.3, so an object array is searched for strings and bytes
    for bad in ("0.3", b"0.3"):
        with pytest.raises(RadiusOutOfDomain):
            residual_grid(A1, 2, np.array([Fraction(3, 10), bad], dtype=object))


@pytest.mark.parametrize("x", [2, 0, 1, -0.5, float("nan"), None, "abc", "0.25", (1, -2)], ids=repr)
def test_x_outside_the_unit_interval_gives_no_radius(x):
    # without the check, radius_from_x(A1, 2) is the complex asin(sqrt(2));
    # None and "abc" raised a bare TypeError and ValueError, "0.25" gave pi/6,
    # and (1, -2), read by mpmath as mantissa 1 and exponent -2, gave pi/6 too
    with pytest.raises(RootOutOfRange):
        radius_from_x(A1, x)


@pytest.mark.parametrize(
    "family,t",
    [(A1, 5), (A1, 0), (A1, -0.3), (A1, float("nan")), (F(CP.CP_D, 9), 1.0), (A1, 2.0), (A1, float("inf")),
     (A1, "abc"), (A1, "zz"), (A1, "a")],
    ids=["A1-5", "A1-0", "A1-negative", "A1-nan", "D-beyond-quarter-turn", "A1-2", "A1-inf",
         "A1-str-abc", "A1-str-zz", "A1-str-a"],
)
def test_radius_outside_the_domain_gives_no_x(family, t):
    # the mp lane and the float lane reject the same radii, the float lane also
    # alone and next to a valid one; a non-number raised a bare TypeError or ValueError
    for call in (
        lambda: x_from_radius(family, t),
        lambda: curvature_spectrum(family, t),
        lambda: residual(family, t, 3),
        lambda: residual_grid(family, 2, [t]),
        lambda: residual_grid(family, 2, [0.3, t]),
        lambda: scaled_curvature_spectrum(family, t, 4),
    ):
        with pytest.raises(RadiusOutOfDomain):
            call()


def test_family_keeps_its_dimension_as_an_int():
    # numpy integers reached the exact lane and overflowed it; n = 3 raised TypeError
    for n in (3, 10**5):
        family = F(CP.CP_A1, np.int64(n))
        assert type(family.n) is int
        assert count_solutions(family, 2) == count_solutions(F(CP.CP_A1, n), 2)
    assert type(F(CP.CP_A2, np.int64(5), np.int64(2)).k) is int


@pytest.mark.parametrize("t", [2.0, 0.0, float("nan")], ids=repr)
def test_spectrum_arrays_checks_its_radii(t):
    # the float lane's one radius check: 0 divided by zero, 2.0 gave a value
    with pytest.raises(RadiusOutOfDomain):
        spectrum_arrays(A1, [0.3, t])


@pytest.mark.parametrize(
    "call",
    [
        lambda: curvature_spectrum(A1, [1]),
        lambda: chn_scan(F(CP.CH_B, 3), 2, [0.3, "a"]),
        lambda: residual(A1, "0.3", 3),
        lambda: residual_grid(A1, 2, ["0.3"]),
        lambda: residual(F(CP.CH_A0, 3), "zz", 2),
        lambda: residual(F(CP.CH_A0, 3), (1, -2), 2),
        lambda: curvature_spectrum(F(CP.CH_A0, 3), [1]),
        lambda: scaled_curvature_spectrum(F(CP.CH_A0, 3), "x", -4),
    ],
    ids=["spectrum-list", "chn-scan-str", "residual-numeric-str", "grid-numeric-str", "CH_A0-residual-str",
         "CH_A0-residual-tuple", "CH_A0-spectrum-list", "CH_A0-scaled-str"],
)
def test_a_non_number_radius_is_rejected(call):
    # a list radius raised a bare TypeError; chn_scan converted the grid itself, with a bare ValueError;
    # a numeric str was read by mp.mpf or numpy at their own precision; the horosphere, whose
    # spectrum ignores the value of t, returned values for all of these
    with pytest.raises(RadiusOutOfDomain):
        call()


def test_the_horosphere_takes_any_real_radius():
    # as its float lane does: the value of t is not used, a NaN grid gives the same residual
    horosphere = F(CP.CH_A0, 3)
    assert residual(horosphere, float("nan"), 2).residual == residual(horosphere, None, 2).residual == -128
    assert residual_grid(horosphere, 2, [float("nan")]).tolist() == [-128]


@pytest.mark.parametrize(
    "call,error",
    [
        # a bare OverflowError where numpy converted the int to a float64
        (lambda: residual_grid(A1, 10**400, [0.3]), InvalidOrder),
        (lambda: residual_grid(F(CP.CP_A1, 2**1024), 2, [0.3]), InvalidFamily),
        (lambda: residual_grid(F(CP.CP_A1, 2**1023), 2, [0.3]), InvalidFamily),  # its multiplicity 2n - 2 is past
        (lambda: chn_scan(F(CP.CH_A0, 2**1024), 2, [0.3]), InvalidFamily),
        # a RuntimeWarning for an overflow: 1 / t past float64, or a residual past it
        (lambda: spectrum_arrays(A1, [0.3, 5e-324]), RadiusOutOfDomain),
        (lambda: residual_grid(A1, 2, [5e-324]), RadiusOutOfDomain),
        (lambda: chn_scan(F(CP.CH_A1_GEODESIC, 2), 2, [2.8e-306]), RadiusOutOfDomain),
        # 2(n + 1) past 2**53, not the radius: n, not the grid, is what float64 cannot hold
        (lambda: residual_grid(F(CP.CP_A1, 10**300), 2, [0.3]), InvalidFamily),
    ],
    ids=["order-10^400", "n-2^1024", "n-2^1023", "chn-scan-n-2^1024", "spectrum-subnormal-radius", "grid-subnormal-radius",
         "chn-scan-radius-near-0", "grid-n-10^300"],
)
def test_float64_lane_refuses_what_it_cannot_hold(call, error):
    with pytest.raises(error):
        call()


CH_B = F(CP.CH_B, 3)

# Every call that takes one radius t of a family, in the mp lane and in the float64 lane.
RADIUS_CALLS = {
    "residual": lambda family, t: residual(family, t, 2),
    "curvature_spectrum": curvature_spectrum,
    "scaled_curvature_spectrum": lambda family, t: scaled_curvature_spectrum(family, t, 4 * family.space_form_sign),
    "x_from_radius": x_from_radius,
    "spectrum_arrays": lambda family, t: spectrum_arrays(family, [t]),
    "residual_grid": lambda family, t: residual_grid(family, 2, [t]),
}


def _raised(call):
    try:
        call()
    except HopfError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize(
    "family,radius,error",
    [
        (A1, lambda family: 5e-324, RadiusOutOfDomain),  # subnormal: 1 / t overflows float64
        (CH_B, lambda family: 5e-324, RadiusOutOfDomain),
        (A1, lambda family: 0, RadiusOutOfDomain),
        (CH_B, lambda family: 0, RadiusOutOfDomain),
        (A1, lambda family: math.nan, RadiusOutOfDomain),
        (CH_B, lambda family: math.nan, RadiusOutOfDomain),
        (A1, lambda family: family.radius_domain()[1], RadiusOutOfDomain),
        (CH_B, lambda family: family.radius_domain()[1], RadiusOutOfDomain),
        (A1, lambda family: CH_B.excluded_radius, None),
        (CH_B, lambda family: CH_B.excluded_radius, ExcludedRadius),
        (CH_B, lambda family: CH_B.excluded_radius + mp.mpf("5e-16"), ExcludedRadius),  # both lanes' 1e-15
        (CH_B, lambda family: CH_B.excluded_radius - mp.mpf("2e-15"), None),
    ],
    ids=["A1-subnormal", "CH_B-subnormal", "A1-zero", "CH_B-zero", "A1-nan", "CH_B-nan", "A1-end", "CH_B-end",
         "A1-at-CH_B-excluded", "CH_B-excluded", "CH_B-near-excluded", "CH_B-past-excluded"],
)
def test_every_lane_refuses_the_same_radii(family, radius, error):
    # the domain's end is read at the test's precision, so the mp lane sees the end itself
    t = radius(family)
    calls = {name: call for name, call in RADIUS_CALLS.items() if family.is_projective or name != "x_from_radius"}
    assert {name: _raised(lambda: call(family, t)) for name, call in calls.items()} == dict.fromkeys(calls, error)


def test_every_lane_returns_the_tables_curvature_spectrum():
    t = mp.mpf("0.3")
    for spectrum in (curvature_spectrum(A1, t), _angle_spectrum(A1, mp.cos(t), mp.sin(t)), spectrum_arrays(A1, [0.3])):
        assert type(spectrum) is CurvatureSpectrum and type(spectrum.branches) is tuple


@pytest.mark.parametrize(
    "n,r,error",
    [(2**52 - 1, 2, None), (2**52, 2, InvalidFamily), (3, 2**53, None), (3, 2**53 + 1, InvalidOrder)],
    ids=["n-2^52-1", "n-2^52", "r-2^53", "r-2^53+1"],
)
def test_float64_lane_takes_integers_up_to_2_53(n, r, error):
    # r and 2(n + 1), which bounds the multiplicities, must be exact float64 integers
    family = F(CP.CP_A1, n)
    assert _raised(lambda: residual_grid(family, r, [0.3])) == error
    if error is None:
        assert np.isfinite(residual_grid(family, r, [0.3])).all()


def test_grid_at_the_excluded_radius_is_rejected():
    ch_b = F(CP.CH_B, 3)
    with pytest.raises(ExcludedRadius):
        residual_grid(ch_b, 2, [0.3, float(ch_b.excluded_radius)])


@pytest.mark.parametrize(
    "family,c",
    [(F(CP.CH_A0, 3), float("nan")), (F(CP.CH_B, 3), float("-inf")), (A1, float("inf")), (A1, "x"), (A1, None)],
    ids=["CH_A0-nan", "CH_B-minus-inf", "CP_A1-inf", "CP_A1-str", "CP_A1-none"],
)
def test_non_finite_curvature_is_rejected(family, c):
    # each c passes the sign check; a NaN c gave a NaN spectrum, a str or None a bare ValueError or TypeError
    with pytest.raises(UnsupportedFamily):
        scaled_curvature_spectrum(family, 0.3, c)


ZERO = QuarticPoly(0, 0, 0, 0, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: count_real_roots(build_quartic(A1, 3), 1, 0),
        lambda: isolate_and_refine(build_quartic(A1, 3), 0.5, 0.5, 1e-10),
        lambda: isolate_and_refine(build_quartic(A1, 3), 0, float("nan"), 1e-10),
        lambda: count_real_roots(build_quartic(A1, 3), 0, float("inf")),
        lambda: count_real_roots(build_quartic(A1, 3), None, 1),
        lambda: count_real_roots(ZERO, 0, 1),
        lambda: isolate_and_refine(ZERO, 0, 1, 1e-10),
        lambda: QuarticPoly(),
        lambda: QuarticPoly(1, float("nan")),
        lambda: QuarticPoly(1, float("inf")),
        lambda: QuarticPoly(1, None),
        lambda: QuarticPoly(1, "0.5"),
        # a string end went through mp.mpf: a binary number near 1/10 that depends on mp.dps
        lambda: count_real_roots(QuarticPoly(10, -1), "0.1", 1),
        lambda: QuarticPoly(1, 0).evaluate(float("nan")),
        # a non-polynomial raised a bare AttributeError
        lambda: count_real_roots("x", 0, 1),
        lambda: isolate_and_refine([1, 2], 0, 1, 1e-3),
        # mpmath reads a 2-tuple as (mantissa, exponent): the coefficient was 1/4, the end 0
        lambda: QuarticPoly(1, (1, -2)),
        lambda: count_real_roots(QuarticPoly(1, 0, -1), (0, 1), 1),
    ],
    ids=["lo-above-hi", "empty", "nan-end", "inf-end", "none-end", "zero-count", "zero-isolate", "no-coefficients",
         "nan-coefficient", "inf-coefficient", "none-coefficient", "str-coefficient", "str-end", "nan-evaluate",
         "str-poly-count", "list-poly-isolate", "tuple-coefficient", "tuple-end"],
)
def test_exact_layer_rejects_interval_and_polynomial(call):
    with pytest.raises(InvalidRootSearch):
        call()


# Every entry point that takes a family, with valid other arguments.
FAMILY_ENTRY_POINTS = {
    "build_quartic": lambda f: build_quartic(f, 3),
    "count_solutions": lambda f: count_solutions(f, 3),
    "certify_radii": lambda f: certify_radii(f, 3, 1e-10),
    "probe_values": lambda f: probe_values(f, 3),
    "guaranteed_thresholds": guaranteed_thresholds,
    "curvature_spectrum": lambda f: curvature_spectrum(f, 0.3),
    "residual": lambda f: residual(f, 0.3, 3),
    "spectrum_arrays": lambda f: spectrum_arrays(f, [0.3]),
    "residual_grid": lambda f: residual_grid(f, 2, [0.3]),
    "chn_scan": lambda f: chn_scan(f, 2, [0.3]),
    "chn_sweep": lambda f: chn_sweep(f, [2], [0.3]),
    "tail_residual": lambda f: tail_residual(f, 2),
    "minimal_x": minimal_x,
    "r_independent_x": r_independent_x,
    "radius_from_x": lambda f: radius_from_x(f, 0.25),
    "root_to_radius": lambda f: root_to_radius(f, 0.25),
    "x_from_radius": lambda f: x_from_radius(f, 0.3),
    "scaled_curvature_spectrum": lambda f: scaled_curvature_spectrum(f, 0.3, 4),
}


@pytest.mark.parametrize("family", ["CP_A1", None, 3], ids=repr)
@pytest.mark.parametrize("entry", FAMILY_ENTRY_POINTS)
def test_a_non_family_raises_invalid_family(entry, family):
    # each raised a bare AttributeError at its first read of a family attribute
    with pytest.raises(InvalidFamily):
        FAMILY_ENTRY_POINTS[entry](family)


def test_input_errors_are_hopf_and_value_errors():
    for error in (InvalidFamily, InvalidTolerance, InvalidRootSearch):
        assert issubclass(error, HopfError) and issubclass(error, ValueError)
    assert issubclass(InvalidOrder, HopfError)


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_numpy_floats_enter_the_exact_and_mp_lanes_at_their_exact_value(dtype):
    # mp.mpf and Fraction refused them, while the float64 lane took them
    value = dtype(0.3)
    assert residual(A1, value, 3) == residual(A1, float(value), 3)
    poly = build_quartic(A1, 3)
    assert count_real_roots(poly, value, 1) == count_real_roots(poly, float(value), 1)
    with pytest.raises(RadiusOutOfDomain):
        residual(A1, dtype("nan"), 3)


@pytest.mark.parametrize("p, q", [(1, 3), (1, 5), (3, 11)])
def test_an_mpf_enters_the_exact_lane_at_its_own_precision(p, q):
    # a 60-digit p/q is wider than the package context (40 digits in these tests); rounded
    # to it, x can cross p/q, and (x, 1) would gain or lose the root p/q
    for ctx in (mpmath.mp, hopfharmonic.mp):
        with ctx.workdps(60):
            x = ctx.mpf(p) / q
        exact = Fraction(*to_rational(x._mpf_))
        assert to_fraction(x) == exact
        assert count_real_roots(QuarticPoly(q, -p), x, 1) == (exact < Fraction(p, q))


# One input per exported error class that raises exactly that class; a class
# nothing can raise has no entry, and the key check below fails for it.
ERROR_TRIGGERS = {
    ExcludedRadius: lambda: residual(F(CP.CH_B, 3), F(CP.CH_B, 3).excluded_radius),
    InvalidFamily: lambda: F(CP.CP_A1, 0),
    InvalidOrder: lambda: residual(A1, 0.3, 1),
    InvalidRootSearch: lambda: count_real_roots(ZERO, 0, 1),
    InvalidTolerance: lambda: isolate_and_refine(build_quartic(A1, 3), 0, 1, 0),
    NoExactCountGuarantee: lambda: probe_values(F(CP.CP_A2, 10, 4), 100),
    NotApplicable: lambda: a2_closed_form(4, 3),
    ProbesCollide: lambda: probe_values(F(CP.CP_B, 2), 2),
    RadiusOutOfDomain: lambda: spectrum_arrays(A1, [2.0]),
    RootOutOfRange: lambda: radius_from_x(A1, 2),
    ToleranceNotReached: lambda: isolate_and_refine(QuarticPoly(0, 0, 1, 0, -2), 1, 2, Fraction(1, 2**4100)),
    UnsupportedFamily: lambda: chn_scan(A1, 2, [0.3]),
}
EXPORTED_ERRORS = {
    obj for obj in vars(hopfharmonic).values()
    if isinstance(obj, type) and issubclass(obj, HopfError) and obj is not HopfError
}


@pytest.mark.parametrize("error", sorted(EXPORTED_ERRORS, key=lambda cls: cls.__name__), ids=lambda cls: cls.__name__)
def test_every_exported_error_has_a_trigger(error):
    assert set(ERROR_TRIGGERS) == EXPORTED_ERRORS
    with pytest.raises(error) as info:
        ERROR_TRIGGERS[error]()
    assert info.type is error


# -- closure: whatever the arguments, a call returns a value or raises a HopfError --

# Families of every tag, up to n = 16 (CP_E exists only at 15), and some at n = 60.
FAMILIES = [f for tag in CP for f in admissible_families(tag, 16)] + [
    F(CP.CP_A1, 60), F(CP.CP_A2, 60, 30), F(CP.CP_B, 60), F(CP.CP_C, 59), F(CP.CH_A2, 60, 1), F(CP.CH_B, 60)
]
HOSTILE = st.one_of(
    st.none(),
    st.text(max_size=4),
    st.sampled_from(["0.3", "3", "nan", "CP_A1"]),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([np.float64(0.3), np.float32(0.5), np.float32(0.3), np.int64(3), np.int8(-2), np.bool_(True),
                     np.str_("0.3")]),
    st.lists(st.floats(-3, 3), max_size=3),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),  # mpmath's (mantissa, exponent)
    st.fractions(min_value=-4, max_value=4, max_denominator=64),
    st.sampled_from(FAMILIES),
)
# The well-typed values of each kind of argument, huge ints among the real
# numbers.  Sizes stay bounded so that no call runs long: n, p, k <= 60,
# r <= 10^6 and tol >= 2^-200.
DIM = st.integers(-2, 60)
# a tube's n also at sizes where cos^2 t_+ rounds to 1 at 30 digits
TUBE_N = st.one_of(DIM, st.sampled_from([10**16, 10**40, 10**300]))
ORDER = st.one_of(st.integers(2, 60), st.sampled_from([1000, 10**6]))
REAL = st.one_of(
    st.floats(0, 1),
    st.floats(-3, 3),
    st.floats(),
    st.fractions(max_denominator=10**6),
    st.sampled_from([2**64, 10**400, -(10**400)]),
)
TOL = st.one_of(st.sampled_from([1e-3, 1e-12, Fraction(1, 2**200)]), st.floats(2**-200, 1))
RADII = st.one_of(st.lists(REAL, max_size=4), st.just(np.linspace(0.05, 1.5, 7)))
FAMILY = st.sampled_from(FAMILIES)
COEFFS = st.lists(st.one_of(st.integers(-20, 20), st.fractions(-5, 5, max_denominator=16)), min_size=1, max_size=5)
POLY = st.one_of(
    st.builds(lambda c: QuarticPoly(*c), COEFFS),
    st.builds(build_quartic, st.sampled_from([f for f in FAMILIES if f.is_projective]), ORDER),
)

# name -> (callable, one well-typed strategy per argument)
CLOSED = {
    "build_quartic": (build_quartic, (FAMILY, ORDER)),
    "count_solutions": (count_solutions, (FAMILY, ORDER)),
    "certify_radii": (certify_radii, (FAMILY, ORDER, TOL)),
    "probe_values": (probe_values, (FAMILY, ORDER)),
    "guaranteed_thresholds": (guaranteed_thresholds, (FAMILY,)),
    "curvature_spectrum": (curvature_spectrum, (FAMILY, REAL)),
    "residual": (residual, (FAMILY, REAL, ORDER)),
    "spectrum_arrays": (spectrum_arrays, (FAMILY, RADII)),
    "residual_grid": (residual_grid, (FAMILY, ORDER, RADII)),
    "chn_scan": (chn_scan, (FAMILY, ORDER, RADII)),
    "chn_sweep": (chn_sweep, (FAMILY, st.lists(ORDER, max_size=4), RADII)),
    "tail_residual": (tail_residual, (FAMILY, ORDER)),
    "minimal_x": (minimal_x, (FAMILY,)),
    "r_independent_x": (r_independent_x, (FAMILY,)),
    "radius_from_x": (radius_from_x, (FAMILY, REAL)),
    "root_to_radius": (root_to_radius, (FAMILY, REAL)),
    "x_from_radius": (x_from_radius, (FAMILY, REAL)),
    "scaled_curvature_spectrum": (scaled_curvature_spectrum, (FAMILY, REAL, REAL)),
    "count_real_roots": (count_real_roots, (POLY, REAL, REAL)),
    "isolate_and_refine": (isolate_and_refine, (POLY, REAL, REAL, TOL)),
    "QuarticPoly": (QuarticPoly, (REAL, REAL, REAL)),
    "HypersurfaceFamily": (F, (st.sampled_from([*CP, *(tag.value for tag in CP)]), DIM, st.none() | DIM)),
    "stability_condition": (stability_condition, (TUBE_N, DIM, st.sampled_from(["plus", "minus"]))),
    "biharmonic_radii": (biharmonic_radii, (TUBE_N, DIM)),
    "tube_family": (tube_family, (TUBE_N, DIM)),
    "asymptotic_check": (asymptotic_check, (DIM, TUBE_N)),
    "a2_closed_form": (a2_closed_form, (DIM, ORDER)),
    "k_below_k1": (k_below_k1, (DIM, DIM)),
    "k_above_k2": (k_above_k2, (DIM, DIM)),
    "eta1": (eta1, (DIM, DIM)),
    "a1_offset_probe_poly": (a1_offset_probe_poly, (DIM,)),
    "admissible_families": (lambda tag, n_max: list(admissible_families(tag, n_max)),
                            (st.sampled_from([*CP, *(tag.value for tag in CP)]), DIM)),
}


@pytest.mark.parametrize("name", CLOSED)
@settings(max_examples=30)  # keeps the 32 entries near 4 s together
@given(data=st.data())
def test_every_call_returns_or_raises_a_hopf_error(name, data):
    # one argument hostile and the rest well-typed, so the bad one meets the
    # check at whatever depth it is read; or all well-typed (twice as often); or any mix
    call, strategies = CLOSED[name]
    hostile = data.draw(st.sampled_from([-1, -1, -2, *range(len(strategies))]), label="hostile argument (-1 none, -2 any)")
    args = []
    for i, strategy in enumerate(strategies):
        if hostile == -2:
            strategy |= HOSTILE
        elif hostile == i:
            strategy = HOSTILE
        args.append(data.draw(strategy, label=f"argument {i}"))
    try:
        call(*args)
    except HopfError:
        pass


# One fixed list of hostile values, and one well-typed base call per CLOSED
# entry that returns; the grid puts each hostile value at each argument
# position of each entry, so every single fault is tried on every run,
# whichever modules are loaded.  Sizes stay bounded: the largest int is 3.
HOSTILE_VALUES = [
    None, "", "x", "0.3", "nan", "CP_A1", True, False, math.nan, math.inf, -math.inf,
    np.float64(0.3), np.float32(0.5), np.int64(3), np.int8(-2), np.bool_(True), np.str_("0.3"),
    [0.3], [], (1, -2), 1 / 3, -7 / 2, -1, 0, F(CP.CH_B, 3), F(CP.CP_A1, 1),
]
CH = F(CP.CH_B, 3)
BASE_ARGS = {
    "build_quartic": (A1, 3),
    "count_solutions": (A1, 3),
    "certify_radii": (A1, 3, 1e-12),
    "probe_values": (A1, 3),
    "guaranteed_thresholds": (A1,),
    "curvature_spectrum": (A1, 0.3),
    "residual": (A1, 0.3, 3),
    "spectrum_arrays": (A1, [0.3, 0.6]),
    "residual_grid": (A1, 3, [0.3, 0.6]),
    "chn_scan": (CH, 3, [0.3, 0.6]),
    "chn_sweep": (CH, [2, 3], [0.3, 0.6]),
    "tail_residual": (CH, 3),
    "minimal_x": (A1,),
    "r_independent_x": (A1,),
    "radius_from_x": (A1, 0.3),
    "root_to_radius": (A1, 0.3),
    "x_from_radius": (A1, 0.3),
    "scaled_curvature_spectrum": (A1, 0.3, 0.5),
    "count_real_roots": (build_quartic(A1, 3), 0, 1),
    "isolate_and_refine": (build_quartic(A1, 3), 0, 1, 1e-12),
    "QuarticPoly": (1, -3, 2),
    "HypersurfaceFamily": (CP.CP_A2, 5, 2),
    "stability_condition": (3, 1, "plus"),
    "biharmonic_radii": (3, 1),
    "tube_family": (3, 1),
    "asymptotic_check": (1, 3),
    "a2_closed_form": (3, 2),
    "k_below_k1": (5, 1),
    "k_above_k2": (5, 1),
    "eta1": (5, 1),
    "a1_offset_probe_poly": (3,),
    "admissible_families": (CP.CP_A2, 6),
}


@pytest.mark.parametrize("name", CLOSED)
def test_every_single_fault_returns_or_raises_a_hopf_error(name):
    call, strategies = CLOSED[name]
    base = BASE_ARGS[name]
    assert len(base) == len(strategies)
    call(*base)
    for position in range(len(base)):
        for value in HOSTILE_VALUES:
            try:
                call(*base[:position], value, *base[position + 1:])
            except HopfError:
                pass


# Public functions the closure property leaves out: formulas of a spectrum or
# a trace the package made, which check nothing, and index_threshold_scan,
# whose n_max alone sets its running time.
PURE_HELPERS = {
    "trace_shape", "trace_shape_squared", "lambda_min_squared", "first_eigenvalue_bound", "index_threshold_scan",
}


def test_every_public_function_is_placed():
    # a new public function fails here until it joins CLOSED or PURE_HELPERS, and
    # a helper entry whose function was removed or renamed fails here too;
    # the public classes are error types, enums, records and the two constructors in CLOSED
    public = {
        name for name, obj in vars(hopfharmonic).items()
        if not name.startswith("_") and callable(obj) and not isinstance(obj, type)
    }
    assert not CLOSED.keys() & PURE_HELPERS
    assert PURE_HELPERS <= public
    assert public - PURE_HELPERS <= CLOSED.keys()


def test_every_name_the_benchmark_looks_up_exists():
    # bench/tracing.py wraps its TARGETS by name and bench/workloads.py reads
    # RootCertificate.residual_at_radius; a removed name showed only as a failed benchmark run
    spec = importlib.util.spec_from_file_location("tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # the standard library only; it stays out of sys.modules
    for short, names in tracing.TARGETS.items():
        module = importlib.import_module(f"{tracing.PACKAGE}.{short}")
        assert [name for name in names if not hasattr(module, name)] == [], short
    assert hasattr(hopfharmonic.RootCertificate, "residual_at_radius")
