"""Rejected inputs: every library entry point raises a HopfError for them."""

from fractions import Fraction

import numpy as np
import pytest

import hopfharmonic
from hopfharmonic import (
    DegenerateLeadingCoefficient,
    DegenerateTube,
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
    a2_closed_form,
    a2_k_thresholds,
    build_quartic,
    cauchy_bound,
    certify_radii,
    chn_scan,
    count_real_roots,
    count_solutions,
    index_threshold_scan,
    is_proper_r_harmonic,
    isolate_and_refine,
    probe_values,
    radius_from_x,
    residual,
    residual_grid,
    scaled_curvature_spectrum,
    spectrum_arrays,
    stability_condition,
    tail_residual,
    tube_family,
    x_from_radius,
)

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
        lambda: a2_k_thresholds(2),
        lambda: a2_k_thresholds(3.5),
        lambda: a2_closed_form(5.0, 3),
        lambda: a2_closed_form("5", 3),
        lambda: tube_family(None, 1),
        lambda: stability_condition(5, 1.0, "plus"),
        lambda: tube_family(3, True),
        lambda: F(CP.CP_A1, True),
        lambda: index_threshold_scan(True, 50),
    ],
    ids=[
        "scan-p-float", "scan-n_max-float", "scan-p-str", "branch", "k-thresholds-n2",
        "k-thresholds-n-float", "closed-form-n-float", "closed-form-n-str", "tube-n-none", "stability-p-float",
        "tube-p-true", "family-n-true", "scan-p-true",
    ],
)
def test_biharmonic_and_window_inputs_raise_invalid_family(call):
    with pytest.raises(InvalidFamily):
        call()


BAD_TOLERANCES = [0, -1e-10, float("nan"), float("inf"), "1e-10", None]


@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=repr)
def test_isolate_and_refine_rejects_tolerance(tol):
    with pytest.raises(InvalidTolerance):
        isolate_and_refine(build_quartic(A1, 3), 0, 1, tol)


@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=repr)
def test_is_proper_r_harmonic_rejects_tolerance(tol):
    with pytest.raises(InvalidTolerance):
        is_proper_r_harmonic(A1, 0.3, 3, tol)


@pytest.mark.parametrize("x", [2, 0, 1, -0.5, float("nan")], ids=repr)
def test_x_outside_the_unit_interval_gives_no_radius(x):
    # without the check, radius_from_x(A1, 2) is the complex asin(sqrt(2))
    with pytest.raises(RootOutOfRange):
        radius_from_x(A1, x)


@pytest.mark.parametrize(
    "family,t",
    [(A1, 5), (A1, 0), (A1, -0.3), (A1, float("nan")), (F(CP.CP_D, 9), 1.0), (A1, 2.0), (A1, float("inf"))],
    ids=["A1-5", "A1-0", "A1-negative", "A1-nan", "D-beyond-quarter-turn", "A1-2", "A1-inf"],
)
def test_radius_outside_the_domain_gives_no_x(family, t):
    # the float lane rejects the same radii, also next to a valid one
    with pytest.raises(RadiusOutOfDomain):
        x_from_radius(family, t)
    with pytest.raises(RadiusOutOfDomain):
        residual_grid(family, 2, [0.3, t])


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


def test_grid_at_the_excluded_radius_is_rejected():
    ch_b = F(CP.CH_B, 3)
    with pytest.raises(ExcludedRadius):
        residual_grid(ch_b, 2, [0.3, float(ch_b.excluded_radius)])


@pytest.mark.parametrize(
    "family,c",
    [(F(CP.CH_A0, 3), float("nan")), (F(CP.CH_B, 3), float("-inf")), (A1, float("inf"))],
    ids=["CH_A0-nan", "CH_B-minus-inf", "CP_A1-inf"],
)
def test_non_finite_curvature_is_rejected(family, c):
    # each c passes the sign check; a NaN c gave a NaN spectrum
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
    ],
    ids=["lo-above-hi", "empty", "nan-end", "inf-end", "none-end", "zero-count", "zero-isolate", "no-coefficients",
         "nan-coefficient", "inf-coefficient", "none-coefficient", "str-coefficient", "str-end", "nan-evaluate"],
)
def test_exact_layer_rejects_interval_and_polynomial(call):
    with pytest.raises(InvalidRootSearch):
        call()


def test_input_errors_are_hopf_and_value_errors():
    for error in (InvalidFamily, InvalidTolerance, InvalidRootSearch):
        assert issubclass(error, HopfError) and issubclass(error, ValueError)
    assert issubclass(InvalidOrder, HopfError)


# One input per exported error class that raises exactly that class; a class
# nothing can raise has no entry, and the key check below fails for it.
ERROR_TRIGGERS = {
    DegenerateLeadingCoefficient: lambda: cauchy_bound(QuarticPoly(0, 1, 1, 1, 1)),
    DegenerateTube: lambda: stability_condition(10**60, 1, "plus"),  # cos^2 t rounds to 1
    ExcludedRadius: lambda: residual(F(CP.CH_B, 3), F(CP.CH_B, 3).excluded_radius),
    InvalidFamily: lambda: F(CP.CP_A1, 0),
    InvalidOrder: lambda: residual(A1, 0.3, 1),
    InvalidRootSearch: lambda: count_real_roots(ZERO, 0, 1),
    InvalidTolerance: lambda: is_proper_r_harmonic(A1, 0.3, 3, 0),
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
