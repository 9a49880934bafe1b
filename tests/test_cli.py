import contextlib
import dataclasses
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hopfharmonic import mp
from hopfharmonic import (
    CurvatureSpectrum,
    FamilyTag,
    HypersurfaceFamily,
    QuarticPoly,
    a1_offset_probe_poly,
    a2_closed_form,
    admissible_families,
    build_quartic,
    certify_radii,
    count_solutions,
    residual_grid,
    spectrum_arrays,
    x_from_radius,
)
from hopfharmonic.errors import to_fraction
from hopfharmonic.cli import _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestSolve:
    def test_a2_two_rows(self, capsys):
        code, doc = run_json(capsys, "solve", "--type", "A2", "--n", "3", "--k", "1", "--r", "2")
        assert code == 0
        xs = [float(row["x"]) for row in doc["rows"]]
        assert xs == pytest.approx([0.25, 0.75], abs=1e-15)
        assert doc["version"] == "0.1.0"
        assert doc["config"]["command"] == "solve"

    def test_d_threshold_gives_four_rows(self, capsys):
        code, doc = run_json(capsys, "solve", "--type", "D", "--r", "89")
        assert code == 0
        assert len(doc["rows"]) == 4
        assert [row["x"] for row in doc["rows"]] == sorted(row["x"] for row in doc["rows"])
        for row in doc["rows"]:
            assert abs(float(row["residual"])) < 1e-9

    @pytest.mark.parametrize("r", [2, 3, 4, 9, 17, 40])
    def test_curve_one_row_with_closed_form(self, capsys, r):
        code, doc = run_json(capsys, "solve", "--type", "A1", "--n", "1", "--r", str(r))
        assert code == 0
        low, high = doc["rows"]
        # x(1 - x) = 1/(4r) on the low row; the high row is its mirror x <-> 1 - x
        x = (1 - mp.sqrt(1 - mp.mpf(1) / r)) / 2
        lo, hi = Fraction(low["interval_lo"]), Fraction(low["interval_hi"])
        assert hi < Fraction(1, 2)
        assert (Fraction(high["interval_lo"]), Fraction(high["interval_hi"])) == (1 - hi, 1 - lo)
        assert mp.mpf(lo.numerator) / lo.denominator < x < mp.mpf(hi.numerator) / hi.denominator
        assert hi - lo < Fraction(1, 10**20)
        assert abs(mp.mpf(low["x"]) - x) <= 1e-16 * x
        for row in (low, high):
            assert math.sin(2 * float(row["t"])) ** 2 == pytest.approx(1 / r, abs=1e-12)

    @pytest.mark.parametrize("family", [HypersurfaceFamily(FamilyTag.CP_A1, 1)] + [
        HypersurfaceFamily(FamilyTag.CP_A2, 2 * k + 1, k) for k in (1, 2, 3, 4)
    ], ids=lambda f: f"{f.tag.value}-{f.n}-{f.k}")
    def test_self_dual_rows_are_the_counted_mirror_pairs(self, capsys, family):
        flags = ["--type", family.tag.value[3:], "--n", str(family.n)]
        flags += [] if family.k is None else ["--k", str(family.k)]
        for r in range(2, 41):
            code, doc = run_json(capsys, "solve", *flags, "--r", str(r))
            assert code == 0
            intervals = {(Fraction(row["interval_lo"]), Fraction(row["interval_hi"])) for row in doc["rows"]}
            assert len(doc["rows"]) == count_solutions(family, r)
            assert {(1 - hi, 1 - lo) for lo, hi in intervals} == intervals

    def test_minimal_root_not_reported_as_proper(self, capsys):
        _, doc = run_json(capsys, "solve", "--type", "A1", "--n", "1", "--r", "9")
        assert all(abs(float(row["x"]) - 0.5) > 1e-6 for row in doc["rows"])
        assert all(abs(float(row["trace"])) > 1e-6 for row in doc["rows"])

    def test_tol_gates_the_residuals(self, capsys):
        argv = ("solve", "--type", "A2", "--n", "3", "--k", "1", "--r", "2")
        code, default = run(capsys, *argv)
        assert code == 0
        code, strict = run(capsys, *argv, "--tol", "1e-40")
        assert code == 1
        assert json.loads(strict)["rows"] == json.loads(default)["rows"]

    def test_one_spectrum_per_row(self, capsys, monkeypatch):
        residual_module = importlib.import_module("hopfharmonic.residual")
        spectrum = residual_module.curvature_spectrum
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return spectrum(*args, **kwargs)

        monkeypatch.setattr(residual_module, "curvature_spectrum", counted)
        code, doc = run_json(capsys, "solve", "--type", "D", "--r", "89")
        assert code == 0
        assert len(doc["rows"]) == 4
        assert len(calls) == 4


class TestScan:
    def test_a1_counts_and_flags(self, capsys):
        code, doc = run_json(capsys, "scan", "--type", "A1", "--n", "2", "--r-range", "2..30")
        assert code == 0
        by_r = {row["r"]: row for row in doc["rows"]}
        assert by_r[2]["count"] == 2
        for r in range(17, 31):
            assert by_r[r]["count"] == 4
            assert by_r[r]["exactly_four_guaranteed"]
            assert by_r[r]["pattern"] == "+-+-+"
        for r in range(2, 31):
            assert by_r[r]["count"] >= 2
            assert by_r[r]["ge_two_guaranteed"]

    def test_e_windows(self, capsys):
        _, doc = run_json(capsys, "scan", "--type", "E", "--r-range", "27..36")
        assert all(row["count"] >= 2 for row in doc["rows"])
        _, doc = run_json(capsys, "scan", "--type", "E", "--r-range", "100..112")
        assert all(row["count"] == 4 and row["exactly_four_guaranteed"] for row in doc["rows"])

    def test_inside_the_a2_k_window(self, capsys):
        # the paper gives no threshold for (6, 2), and scan exited 2; the counts are certified all the same
        code, doc = run_json(capsys, "scan", "--type", "A2", "--n", "6", "--k", "2", "--r-range", "2..4")
        assert code == 0
        assert [row["r"] for row in doc["rows"]] == [2, 3, 4]
        for row in doc["rows"]:
            assert row["count"] == count_solutions(HypersurfaceFamily(FamilyTag.CP_A2, 6, 2), row["r"])
            assert row["ge_two_guaranteed"] is False
            assert row["exactly_four_guaranteed"] is False

    def test_csv_shape(self, capsys):
        code, out = run(capsys, "scan", "--type", "B", "--n", "2", "--r-range", "2..6", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,count,pattern,ge_two_guaranteed,exactly_four_guaranteed"
        assert len(lines) == 6


class TestProbes:
    def test_d_probe_table(self, capsys):
        code, doc = run_json(capsys, "probes", "--type", "D", "--r", "89")
        assert code == 0
        assert doc["pattern"] == "+-+-+"
        assert doc["rows"][0] == {"probe": "0", "x": "0", "value": "16", "sign": 1}
        assert doc["rows"][4] == {"probe": "1", "x": "1", "value": "25", "sign": 1}


class TestBiharmonic:
    def test_tubes_flagged_unstable(self, capsys):
        code, doc = run_json(capsys, "biharmonic", "--n", "2", "--p", "1")
        assert code == 0
        assert len(doc["rows"]) == 2
        for row in doc["rows"]:
            assert not row["degenerate"]
            assert float(row["constant_witness"]) > 0
            assert row["index_claim"] in ("unstable_index_ge_1", "index_exactly_1")

    def test_n3_p2_has_two_interior_tubes(self, capsys):
        _, doc = run_json(capsys, "biharmonic", "--n", "3", "--p", "2")
        values = sorted(float(row["cos_sq_t"]) for row in doc["rows"])
        assert values == pytest.approx([0.25, 0.75], abs=1e-15)

    def test_large_n_plus_branch_is_certified(self, capsys):
        # at 30 digits without the digits of n this read witness -28.33 and exited 1
        code, doc = run_json(capsys, "biharmonic", "--n", str(10**16), "--p", "1")
        assert code == 0
        plus = doc["rows"][0]
        assert not plus["degenerate"]
        assert float(plus["constant_witness"]) == pytest.approx(12, rel=1e-15)
        assert float(plus["trace"]) == pytest.approx(2 * math.sqrt(2) / 10**8, rel=1e-15)

    def test_threshold_scan(self, capsys):
        code, doc = run_json(capsys, "biharmonic", "--scan-threshold", "--p", "1", "--n-max", "60")
        assert code == 0
        row = doc["rows"][0]
        assert isinstance(row["threshold"], int)
        assert row["holds_for_all_larger"]


def _moved_quartic(*tags):
    """build_quartic with the x coefficient moved by 1 for the families of these tags."""
    def build(family, r):
        poly = build_quartic(family, r)
        if family.tag not in tags:
            return poly
        a4, a3, a2, a1, a0 = poly.coefficients()
        return QuarticPoly(a4, a3, a2, a1 + 1, a0)
    return build


def _offset_probe_poly_moved(n):
    *high, b0 = a1_offset_probe_poly(n)
    return (*high, b0 + 1)


def _closed_form_moved(n, r):
    roots = a2_closed_form(n, r)
    return dataclasses.replace(roots, x_plus=roots.x_plus + mp.mpf("1e-6"))


def _residuals_moved(family, r, tol):
    return [
        dataclasses.replace(cert, residual_at_radius=Fraction(1, 10**6))
        for cert in certify_radii(family, r, tol)
    ]


def _radii_moved(family, r, tol):
    return [dataclasses.replace(cert, radius=cert.radius + mp.mpf("1e-6")) for cert in certify_radii(family, r, tol)]


def _moved_spectrum(move):
    """spectrum_arrays whose alpha and list of lambdas at the radii ts are replaced by move(ts, alpha, lambdas)."""
    def spectrum(family, ts):
        alpha, branches = spectrum_arrays(family, ts)
        alpha, lams = move(ts, alpha, [lam for lam, _ in branches])
        return CurvatureSpectrum(alpha, tuple((lam, m) for lam, (_, m) in zip(lams, branches)))
    return spectrum


CLI = "hopfharmonic.cli."
# (suite, check, patched call, wrong version of it, detail of the failed row): one per failure branch
WRONG_INPUTS = [
    ("exact", "boundary-values", CLI + "build_quartic", _moved_quartic(*FamilyTag), "boundary mismatch"),
    ("exact", "probe-identities", CLI + "build_quartic", _moved_quartic(FamilyTag.CP_A1), "A1 order-free probe"),
    ("exact", "probe-identities", CLI + "build_quartic", _moved_quartic(FamilyTag.CP_B), "B minimal probe"),
    ("exact", "probe-identities", CLI + "build_quartic", _moved_quartic(FamilyTag.CP_A2), "CP_A2 minimal probe"),
    ("exact", "probe-identities", CLI + "build_quartic", _moved_quartic(FamilyTag.CP_C), "C minimal probe"),
    ("exact", "biquadratic-relation", CLI + "build_quartic", _moved_quartic(FamilyTag.CP_A2), "relation failed"),
    ("exact", "biquadratic-relation", CLI + "a2_closed_form", _closed_form_moved, "closed-form root misses"),
    ("exact", "offset-probe-poly", CLI + "a1_offset_probe_poly", _offset_probe_poly_moved, "offset-probe polynomial"),
    ("trig", "quarter-turn-identities", CLI + "spectrum_arrays",
     _moved_spectrum(lambda ts, alpha, lams: (2 / np.tan(2 * (ts + 1e-6)), lams)), "cotangent identity"),
    ("ch-nonexistence", "hyperbolic-negativity", CLI + "chn_sweep", lambda family, orders, grid: np.zeros(len(orders)),
     "not negative"),
    ("roundtrip", "root-residual-roundtrip", CLI + "certify_radii", _residuals_moved, "too large"),
    ("roundtrip", "root-residual-roundtrip", CLI + "certify_radii", _radii_moved, "too large for CP_A1 r=2"),
    ("roundtrip", "root-residual-roundtrip", CLI + "certify_radii", lambda *args: certify_radii(*args)[1:],
     "outside certificates"),
]


class TestVerify:
    @pytest.mark.parametrize("suite", ["exact", "trig", "roundtrip"])
    def test_suites_pass(self, capsys, suite):
        code, doc = run_json(capsys, "verify", "--suite", suite)
        assert code == 0
        assert doc["checks"]
        assert all(check["passed"] for check in doc["checks"])

    def test_ch_nonexistence(self, capsys):
        code, doc = run_json(capsys, "verify", "--suite", "ch-nonexistence", "--r-max", "6")
        assert code == 0
        assert all(check["passed"] for check in doc["checks"])

    def test_exact_suite_walks_the_projective_types_in_order(self, capsys, monkeypatch):
        cli = importlib.import_module("hopfharmonic.cli")
        walked = []
        enumerate_families = cli.admissible_families

        def recording(tag, n_max):
            walked.append(tag.value)
            return enumerate_families(tag, n_max)

        monkeypatch.setattr(cli, "admissible_families", recording)
        code, _ = run_json(capsys, "verify", "--suite", "exact")
        assert code == 0
        # the boundary-value check runs first and walks every projective type
        assert walked[:6] == ["CP_A1", "CP_A2", "CP_B", "CP_C", "CP_D", "CP_E"]

    def test_text_format_lists_checks(self, capsys):
        code, out = run(capsys, "verify", "--suite", "exact", "--format", "text")
        assert code == 0
        assert out.count("[PASS]") == 4

    @pytest.mark.parametrize("suite,name,target,wrong,detail", WRONG_INPUTS, ids=[case[4] for case in WRONG_INPUTS])
    def test_every_check_can_fail(self, capsys, monkeypatch, suite, name, target, wrong, detail):
        # one library call the check reads gives a wrong value, and the check's row says so
        monkeypatch.setattr(target, wrong)
        code, out = run(capsys, "verify", "--suite", suite, "--r-max", "2", "--format", "text")
        assert code == 1
        (row,) = [line for line in out.splitlines() if line.startswith(f"[FAIL] {name}: ")]
        assert detail in row

    @pytest.mark.parametrize("value,line", [
        (Fraction(123456, 10**11), "[FAIL] root-residual-roundtrip: residual 1.235e-6 too large for CP_A1 r=2"),
        (Fraction(1e-9), "[PASS] root-residual-roundtrip"),  # the bound itself, exactly
    ], ids=["shown-to-four-digits", "equal-to-the-bound"])
    def test_the_roundtrip_bound_reads_the_exact_residual(self, capsys, monkeypatch, value, line):
        def moved(family, r, tol):
            return [dataclasses.replace(cert, residual_at_radius=value) for cert in certify_radii(family, r, tol)]

        monkeypatch.setattr(CLI + "certify_radii", moved)
        code, out = run(capsys, "verify", "--suite", "roundtrip", "--format", "text")
        assert code == ("FAIL" in line)
        assert line in out

    def test_the_roundtrip_check_certifies_its_cases_to_1e_18(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(CLI + "certify_radii", lambda *args: calls.append(args) or certify_radii(*args))
        code, _ = run(capsys, "verify", "--suite", "roundtrip")
        cases = [(FamilyTag.CP_A1, 2, None, (2, 7, 17)), (FamilyTag.CP_A1, 5, None, (2, 17)),
                 (FamilyTag.CP_A2, 4, 1, (2, 17)), (FamilyTag.CP_A2, 5, 2, (2, 17)), (FamilyTag.CP_B, 2, None, (2, 17)),
                 (FamilyTag.CP_C, 5, None, (2, 17)), (FamilyTag.CP_D, 9, None, (2, 89)), (FamilyTag.CP_E, 15, None, (2, 100))]
        assert code == 0
        assert calls == [(HypersurfaceFamily(tag, n, k), r, Fraction(1, 10**18)) for tag, n, k, orders in cases for r in orders]



def _flip_cells(family, r):
    """(xlo, xhi) of each grid cell where the roundtrip check sees the residual change sign, computed as it does."""
    hi = float(family.radius_domain()[1])
    ts = np.linspace(hi / 301, hi * 300 / 301, 300)
    values = residual_grid(family, r, ts)
    xs = [to_fraction(float(x_from_radius(family, t))) for t in ts]
    return [(min(xs[i], xs[i + 1]), max(xs[i], xs[i + 1])) for i in np.flatnonzero(values[:-1] * values[1:] < 0)]


# each certificate's interval moved relative to the cell (lo, hi) that holds its root, and the row the check prints
COVER_MOVES = {
    "wider-than-the-cell": (lambda lo, hi: (2 * lo - hi, 2 * hi - lo), "[PASS] root-residual-roundtrip"),
    "starting-at-the-cell's-upper-x": (lambda lo, hi: (hi, 2 * hi - lo), "[PASS] root-residual-roundtrip"),
    "ending-at-the-cell's-lower-x": (lambda lo, hi: (2 * lo - hi, lo), "[PASS] root-residual-roundtrip"),
    "starting-just-past-the-cell": (lambda lo, hi: (hi + (hi - lo) / 2**20, 2 * hi - lo), "outside certificates"),
}


@pytest.mark.parametrize("move,line", COVER_MOVES.values(), ids=COVER_MOVES)
def test_the_roundtrip_check_covers_a_cell_by_any_overlap(capsys, monkeypatch, move, line):
    # a sign change is covered by a certificate that meets its cell, even at a single grid x or with neither
    # endpoint inside it
    def moved(family, r, tol):
        cells, certs = _flip_cells(family, r), certify_radii(family, r, tol)
        shifted = [
            dataclasses.replace(cert, isolating_interval=move(*cell))
            for cert in certs
            for cell in cells
            if cell[0] < sum(cert.isolating_interval) / 2 < cell[1]
        ]
        assert len(shifted) == len(certs) == len(cells)
        return shifted

    monkeypatch.setattr(CLI + "certify_radii", moved)
    code, out = run(capsys, "verify", "--suite", "roundtrip", "--format", "text")
    assert code == ("FAIL" in out)
    assert line in out


class TestContract:
    def test_byte_identical_reruns(self, capsys):
        _, first = run(capsys, "solve", "--type", "B", "--n", "3", "--r", "7000")
        _, second = run(capsys, "solve", "--type", "B", "--n", "3", "--r", "7000")
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run(capsys, "solve", "--type", "A1", "--n", "2", "--r", "2", "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert len(doc["rows"]) == 2

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, where):
        # an OSError from open() once left main as a traceback with exit status 1
        target = tmp_path / "no" / "such" / "x.json" if where == "missing-dir" else tmp_path
        with pytest.raises(SystemExit) as err:
            main(["solve", "--type", "A1", "--n", "2", "--r", "2", "--out", str(target)])
        assert err.value.code == 2
        out, err_text = capsys.readouterr()
        assert out == ""
        assert err_text.startswith("error: cannot write --out") and "Traceback" not in err_text

    def test_env_var_does_not_change_the_report(self, capsys, monkeypatch):
        argv = ("solve", "--type", "A1", "--n", "2", "--r", "2")
        monkeypatch.delenv("HOPF_PRECISION", raising=False)
        _, plain = run(capsys, *argv)
        monkeypatch.setenv("HOPF_PRECISION", "42")
        _, with_env = run(capsys, *argv)
        assert with_env == plain

    def test_unknown_type_lists_the_projective_types(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--type", "Z", "--n", "2", "--r", "2"])
        assert err.value.code == 2
        assert "(choose from ['A1', 'A2', 'B', 'C', 'D', 'E'])" in capsys.readouterr().err

    def test_precision_flag_is_echoed(self, capsys):
        _, doc = run_json(capsys, "solve", "--type", "A1", "--n", "2", "--r", "2", "--precision", "35")
        assert doc["config"]["precision"] == 35

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--type", "Z", "--n", "2", "--r", "2"),
            ("solve", "--type", "A1", "--r", "2"),
            ("solve", "--type", "A2", "--n", "3", "--r", "2"),
            ("solve", "--type", "A1", "--n", "2", "--r", "2", "--precision", "20"),
            ("solve", "--type", "A1", "--n", "2", "--r", "2", "--tol", "0.001"),
            ("solve", "--type", "D", "--n", "8", "--r", "2"),
            ("scan", "--type", "A1", "--n", "2", "--r-range", "9..3"),
            ("solve", "--type", "A1", "--n", "2", "--r", "2", "--k", "1"),
            ("biharmonic", "--n", "2", "--p", "5"),
            ("biharmonic", "--scan-threshold", "--p", "0"),
            ("biharmonic", "--scan-threshold", "--p", "3", "--n-max", "4"),
            ("verify", "--suite", "ch-nonexistence", "--r-max", "1"),
            ("verify", "--suite", "ch-nonexistence", "--r-max", "0"),
            ("verify", "--r-max", "-3"),
            ("solve", "--type", "A1", "--n", "2"),
            ("probes", "--type", "D"),
            ("scan", "--type", "A1", "--n", "2"),
            ("solve", "--n", "2", "--r", "2"),
            ("verify", "--suite", "nope"),
            ("biharmonic", "--scan-threshold"),
            ("scan", "--type", "A1", "--n", "2", "--r-range", "3"),
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 2
        out, err_text = capsys.readouterr()
        assert out == ""
        assert err_text.count("error:") == 1


# -- closure: whatever the argv, main returns 0 or 1 or exits 2, with no traceback --

# Sizes stay bounded so that no call runs long: n <= 12, r <= 40, range
# spans <= 5, --precision <= 50 and --n-max <= 40.
CP_FAMILIES = st.sampled_from([f for tag in FamilyTag if tag.value.startswith("CP_")
                               for f in admissible_families(tag, 12)])
FAMILY_WORDS = CP_FAMILIES.map(
    lambda f: ["--type", f.tag.value[3:], "--n", str(f.n), *(["--k", str(f.k)] if f.k else [])]
)
ORDER = st.integers(2, 40).map(str)
COMMON_WORDS = st.tuples(
    st.sampled_from([[], ["--tol", "1e-6"], ["--tol", "1e-30"]]),
    st.sampled_from([[], ["--precision", "30"], ["--precision", "50"]]),
    st.sampled_from([[], ["--format", "csv"], ["--format", "text"]]),
).map(lambda parts: [word for part in parts for word in part])
VALID_ARGV = st.one_of(
    st.tuples(st.just(["solve"]), FAMILY_WORDS, ORDER.map(lambda r: ["--r", r]), COMMON_WORDS),
    st.tuples(st.just(["probes"]), FAMILY_WORDS, ORDER.map(lambda r: ["--r", r]), COMMON_WORDS),
    st.tuples(
        st.just(["scan"]), FAMILY_WORDS,
        st.integers(2, 40).flatmap(lambda lo: st.integers(lo, lo + 5).map(lambda hi: ["--r-range", f"{lo}..{hi}"])),
        COMMON_WORDS,
    ),
    st.tuples(
        st.just(["biharmonic"]),
        st.integers(2, 12).flatmap(lambda n: st.integers(1, n - 1).map(lambda p: ["--n", str(n), "--p", str(p)])),
        st.just([]), COMMON_WORDS,
    ),
    st.tuples(
        st.just(["biharmonic", "--scan-threshold"]),
        st.integers(1, 3).map(lambda p: ["--p", str(p)]),
        st.integers(2, 40).map(lambda n_max: ["--n-max", str(n_max)]),
        COMMON_WORDS,
    ),
).map(lambda parts: [word for part in parts for word in part])
JUNK_WORD = st.one_of(
    st.none(),  # the word is dropped
    st.sampled_from(["", "x", "1.5", "nan", "inf", "-1", "0", "1", "7", "1e3", "1e-3", "25", "Z", "CH_B", "9..3",
                     "0..4", "a..b", "--k", "--n", "--r", "xml"]),
)


@settings(max_examples=120)  # about 1 s
@given(data=st.data())
def test_every_argv_exits_0_1_or_2(data):
    # a valid argv with one word replaced by junk or dropped, or unchanged (twice as often)
    argv = data.draw(VALID_ARGV, label="valid argv")
    spot = data.draw(st.sampled_from([None, None, *range(1, len(argv))]), label="junk position")
    if spot is not None:
        word = data.draw(JUNK_WORD, label="junk word")
        argv[spot:spot + 1] = [] if word is None else [word]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
        else:
            assert code in (0, 1), argv
    assert "Traceback" not in err.getvalue()


# The README's commands and the SHA-256 of their stdout reports at the default precision.
README_REPORTS = [
    ("solve --type A2 --n 3 --k 1 --r 2", "ab85e27f8703477961b22ce251094e1755eeb6ee10cf380ffc009f4b37939e60"),
    ("solve --type D --r 89", "049872b9fc95c537e80dc1e870744d5500b496e1ef398d4c8640a6b7c0fde9ee"),
    ("scan --type A1 --n 2 --r-range 2..30 --format csv",
     "4647d338f91384a6f40fdb0b926850808253e6f443c1ea07eaea441d7fbe31b0"),
    ("probes --type D --r 89 --format text", "3c7fff42155116609da882df7d7c8e8f45c4f57e53ddc868bf0a1b954333ac24"),
    ("verify --suite all", "59dc751d470c5fb21ec44610c48f40e850d0b93f16b1057fb88ad3d1785b6580"),
    ("verify --suite ch-nonexistence --r-max 20", "0288a262321a62345e7928279b57845575d7aca7eac7e7a4a9bf06a25cd9fe9a"),
    ("biharmonic --n 2 --p 1", "a6adc19a430ab955ee6075d613074b7a7c8040587fdd616d80d23c373e3fff7e"),
    ("biharmonic --scan-threshold --p 1 --n-max 500",
     "729b0f639371567e6a23cc9f0d8e3093559c3c47c78faed00263d3267a8ea1fd"),
]


@pytest.mark.parametrize("command,digest", README_REPORTS, ids=[c for c, _ in README_REPORTS])
def test_readme_reports_keep_their_digests(capsys, command, digest):
    code, out = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_the_module_runs_as_a_script():
    # python -m hopfharmonic.cli, in a fresh interpreter at the package's own precision
    command = "probes --type D --r 89 --format text"
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hopfharmonic.cli", *command.split()],
                          env={**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8"}, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == dict(README_REPORTS)[command]


def test_the_hyperbolic_check_builds_one_spectrum_per_family(capsys, monkeypatch):
    # the spectrum does not depend on r: one float64 spectrum serves every order of a family
    residual_module = importlib.import_module("hopfharmonic.residual")
    built, build = [], residual_module.spectrum_arrays
    monkeypatch.setattr(residual_module, "spectrum_arrays", lambda family, ts: built.append(family) or build(family, ts))
    command = "verify --suite ch-nonexistence --r-max 20"
    code, out = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == dict(README_REPORTS)[command]
    assert len(built) == len(set(built)) == 22


def test_the_hyperbolic_check_names_the_first_failing_order(capsys, monkeypatch):
    # each family is swept at r = 2..r_max, and the check stops at the first (family, r) not below -1e-6
    cli = importlib.import_module("hopfharmonic.cli")
    swept = []

    def sweep(family, orders, grid):
        swept.append((family, list(orders)))
        return np.array([0.0 if (len(swept), r) == (3, 5) else -1.0 for r in orders])

    monkeypatch.setattr(cli, "chn_sweep", sweep)
    code, out = run(capsys, "verify", "--suite", "ch-nonexistence", "--r-max", "6", "--format", "text")
    assert code == 1
    assert [orders for _, orders in swept] == [[2, 3, 4, 5, 6]] * 3
    family = swept[2][0]
    assert f"residual not negative for {family.tag.value} n={family.n} r=5" in out


def test_the_trig_check_samples_1000_radii_across_the_quarter_turn(monkeypatch):
    # one float64 spectrum of the C row (n = 5) at 1000 radii, which reach past pi/5
    cli = importlib.import_module("hopfharmonic.cli")
    calls = []
    monkeypatch.setattr(cli, "spectrum_arrays", lambda family, ts: calls.append((family, ts)) or spectrum_arrays(family, ts))
    assert cli._check_trig_identities()[0]
    ((family, ts),) = calls
    assert family == HypersurfaceFamily(FamilyTag.CP_C, 5) and ts.shape == (1000,)
    assert 1e-3 < ts.min() and math.pi / 5 < ts.max() < math.pi / 4 - 1e-3


@pytest.mark.parametrize("dps", [30, 60, 100])
def test_the_trig_check_does_not_depend_on_the_precision(monkeypatch, dps):
    # the passing path makes no mp operation of its own
    cli = importlib.import_module("hopfharmonic.cli")

    class Refused:
        def __getattr__(self, name):
            raise AssertionError(f"mp.{name} used")

    monkeypatch.setattr(cli, "mp", Refused())
    with mp.workdps(dps):
        assert cli._check_trig_identities() == (True, "quarter-turn cotangent identities hold at 1000 random radii")


def test_the_trig_check_fails_where_4_cot_4t_is_small(monkeypatch):
    # every lambda moves by 3.75e-11, so sum lambda - 4 cot 4t is off by 1.5e-10 at every radius: past the first
    # tolerance, 1e-10 max(1, |4 cot 4t|), where |4 cot 4t| < 1.5, while sum lambda^2 moves by
    # 8 cot 4t 3.75e-11 + 4 (3.75e-11)^2 < 1e-10 (12 + 16 cot^2 4t) at every radius
    cli = importlib.import_module("hopfharmonic.cli")
    radii = []
    monkeypatch.setattr(cli, "spectrum_arrays", _moved_spectrum(
        lambda ts, alpha, lams: radii.extend(ts.tolist()) or (alpha, [lam + 3.75e-11 for lam in lams])))
    passed, detail = cli._check_trig_identities()
    t = next(mp.mpf(t) for t in radii if abs(4 * mp.cot(4 * mp.mpf(t))) < 1.5)
    assert not passed and detail == f"quarter-turn cotangent identity failed at t={mp.nstr(t, 12)}"


def test_the_trig_check_prints_the_failing_radius_to_12_digits(monkeypatch):
    # the third radius, t = 0.1546022825484..., which 13 digits would print in full, has its cot(t - pi/4) moved by 1
    cli = importlib.import_module("hopfharmonic.cli")
    radii = []

    def move(ts, alpha, lams):
        radii.extend(ts.tolist())
        return alpha, [lams[0] + (np.arange(ts.size) == 2), *lams[1:]]

    monkeypatch.setattr(cli, "spectrum_arrays", _moved_spectrum(move))
    assert cli._check_trig_identities() == (False, "quarter-turn cotangent identity failed at t=0.154602282548")
    assert mp.nstr(mp.mpf(radii[2]), 13) == "0.1546022825484"


@pytest.mark.parametrize("residuals", [(1e-10, 0.0), (0.0, 1e-10 * 12)], ids=["sum", "sum-of-squares"])
def test_the_trig_check_passes_a_residual_equal_to_its_tolerance(monkeypatch, residuals):
    # alpha = 2 and every lambda 0 make cot 4t = 0 and the tolerances 1e-10 max(1, 0) and 1e-10 * 12; one residual
    # sits at its tolerance
    cli = importlib.import_module("hopfharmonic.cli")
    sums = itertools.cycle(residuals)
    monkeypatch.setattr(cli, "spectrum_arrays", _moved_spectrum(
        lambda ts, alpha, lams: (np.full_like(ts, 2.0), [np.zeros_like(ts)] * 4)))
    monkeypatch.setattr(cli.math, "fsum", lambda terms: next(sums))
    assert cli._check_trig_identities() == (True, "quarter-turn cotangent identities hold at 1000 random radii")


@pytest.mark.parametrize("target,wrong", [
    ("hopfharmonic.families._FLOAT64.pi", np.pi * (1 + 1e-9)),  # the shifts j pi/4
    ("hopfharmonic.families._FLOAT64.cot", lambda x: (1 + 1e-9) / np.tan(x)),
    (CLI + "spectrum_arrays", _moved_spectrum(lambda ts, alpha, lams: (alpha * (1 + 1e-9), lams))),
    (CLI + "spectrum_arrays", _moved_spectrum(lambda ts, alpha, lams: (alpha, [lams[0] * (1 + 1e-9), *lams[1:]]))),
    (CLI + "spectrum_arrays", _moved_spectrum(lambda ts, alpha, lams: (2 * np.tan(2 * ts), lams))),
], ids=["pi", "cot", "alpha", "one-lambda", "alpha-from-tan"])
def test_the_trig_check_fails_on_a_perturbed_row(monkeypatch, target, wrong):
    # a relative 1e-9 in pi, cot, alpha or one lambda, or alpha = 2 tan 2t, breaks an identity at some radius
    cli = importlib.import_module("hopfharmonic.cli")
    monkeypatch.setattr(target, wrong)
    passed, detail = cli._check_trig_identities()
    assert not passed and detail.startswith("quarter-turn cotangent identity failed at t=")


def test_readme_command_list_is_the_pinned_list():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```sh\n(.*?)```", readme.split("## Command line", 1)[1], re.S).group(1)
    commands = [line.removeprefix("hopfharmonic ") for line in block.splitlines() if line and not line.startswith("#")]
    assert commands == [command for command, _ in README_REPORTS]


# SHA-256 of every `biharmonic --n N --p P` report for 2 <= N <= 30 and all P,
# concatenated in (N, P) order, and of the threshold scans up to n = 500.
BIHARMONIC_SWEEP_DIGEST = "35eb95b28a5f7284135f3d01577ae8ff10f4869bf973942a9eecbcd3c7f2210d"
THRESHOLD_SCAN_DIGESTS = {
    1: "729b0f639371567e6a23cc9f0d8e3093559c3c47c78faed00263d3267a8ea1fd",
    2: "49142d0257853cac85ceb0cb7ec3863fc4ccfa8738811a4f8b3ece567a1d766a",
    3: "71fca76e6f5b7e62248f7982f16226ee96d9d5d67a8ff590480964b10f79d094",
}


def test_biharmonic_reports_keep_their_digest(capsys):
    digest = hashlib.sha256()
    for n in range(2, 31):
        for p in range(1, n):
            code, out = run(capsys, "biharmonic", "--n", str(n), "--p", str(p))
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == BIHARMONIC_SWEEP_DIGEST


@pytest.mark.parametrize("p", sorted(THRESHOLD_SCAN_DIGESTS))
def test_threshold_scans_keep_their_digests(capsys, p):
    code, out = run(capsys, "biharmonic", "--scan-threshold", "--p", str(p), "--n-max", "500")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == THRESHOLD_SCAN_DIGESTS[p]


def test_one_parser_serves_every_main_call(capsys):
    _build_parser.cache_clear()
    for command in ("biharmonic --n 2 --p 1", "probes --type D --r 89 --format text"):
        code, out = run(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == dict(README_REPORTS)[command]
    assert (_build_parser.cache_info().misses, _build_parser.cache_info().hits) == (1, 1)


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # one line per certified radius, then the certified count
    assert int(lines[-1]) == len(lines) - 1 >= 1
