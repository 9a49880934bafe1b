"""Rejected inputs: every library entry point raises a HopfError for them."""

from fractions import Fraction

import numpy as np
import pytest

from hopfharmonic import (
    FamilyTag,
    HopfError,
    HypersurfaceFamily,
    InvalidFamily,
    InvalidOrder,
    InvalidRootSearch,
    InvalidTolerance,
    QuarticPoly,
    RadiusOutOfDomain,
    RootOutOfRange,
    a2_closed_form,
    a2_k_thresholds,
    build_quartic,
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
    stability_condition,
    tail_residual,
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
    ],
    ids=[
        "scan-p-float", "scan-n_max-float", "scan-p-str", "branch", "k-thresholds-n2",
        "k-thresholds-n-float", "closed-form-n-float", "closed-form-n-str",
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
    [(A1, 5), (A1, 0), (A1, -0.3), (A1, float("nan")), (F(CP.CP_D, 9), 1.0)],
    ids=["A1-5", "A1-0", "A1-negative", "A1-nan", "D-beyond-quarter-turn"],
)
def test_radius_outside_the_domain_gives_no_x(family, t):
    with pytest.raises(RadiusOutOfDomain):
        x_from_radius(family, t)


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
    ],
    ids=["lo-above-hi", "empty", "nan-end", "inf-end", "none-end", "zero-count", "zero-isolate"],
)
def test_exact_layer_rejects_interval_and_polynomial(call):
    with pytest.raises(InvalidRootSearch):
        call()


def test_input_errors_are_hopf_and_value_errors():
    for error in (InvalidFamily, InvalidTolerance, InvalidRootSearch):
        assert issubclass(error, HopfError) and issubclass(error, ValueError)
    assert issubclass(InvalidOrder, HopfError)
