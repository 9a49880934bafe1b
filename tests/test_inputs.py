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
    InvalidTolerance,
    a2_closed_form,
    a2_k_thresholds,
    build_quartic,
    certify_radii,
    chn_scan,
    count_solutions,
    index_threshold_scan,
    is_proper_r_harmonic,
    isolate_and_refine,
    probe_values,
    residual,
    residual_grid,
    stability_condition,
    tail_residual,
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
    ],
    ids=["scan-p-float", "scan-n_max-float", "scan-p-str", "branch", "k-thresholds-n2"],
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


def test_input_errors_are_hopf_and_value_errors():
    for error in (InvalidFamily, InvalidTolerance):
        assert issubclass(error, HopfError) and issubclass(error, ValueError)
    assert issubclass(InvalidOrder, HopfError)
