import hashlib
import json
import math

import pytest

from hopfharmonic.cli import main


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

    def test_curve_one_row_with_closed_form(self, capsys):
        code, doc = run_json(capsys, "solve", "--type", "A1", "--n", "1", "--r", "4")
        assert code == 0
        assert len(doc["rows"]) == 1
        t = float(doc["rows"][0]["t"])
        assert math.sin(2 * t) ** 2 == pytest.approx(0.25, abs=1e-12)

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

    def test_threshold_scan(self, capsys):
        code, doc = run_json(capsys, "biharmonic", "--scan-threshold", "--p", "1", "--n-max", "60")
        assert code == 0
        row = doc["rows"][0]
        assert isinstance(row["threshold"], int)
        assert row["holds_for_all_larger"]


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

    def test_text_format_lists_checks(self, capsys):
        code, out = run(capsys, "verify", "--suite", "exact", "--format", "text")
        assert code == 0
        assert out.count("[PASS]") == 4


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

    def test_env_var_sets_default_precision(self, capsys, monkeypatch):
        monkeypatch.setenv("HOPF_PRECISION", "42")
        _, doc = run_json(capsys, "solve", "--type", "A1", "--n", "2", "--r", "2")
        assert doc["config"]["precision"] == 42

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HOPF_PRECISION", "42")
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
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 2


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
def test_readme_reports_keep_their_digests(capsys, monkeypatch, command, digest):
    monkeypatch.delenv("HOPF_PRECISION", raising=False)
    code, out = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
