"""The pair runner's summary and its refusal of checkouts whose paths differ in length."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _result(**values):
    return {"correct": True, "metrics": {name: {"value": value, "unit": "1"} for name, value in values.items()}}


# four pairs of (parent, change) runs: the change is faster in three and leaner in none
CANNED = [
    (_result(items_per_s=100.0, peak_rss_mb=50.0, other=1.0), _result(items_per_s=120.0, peak_rss_mb=50.0, other=2.0)),
    (_result(items_per_s=104.0, peak_rss_mb=51.0, other=1.0), _result(items_per_s=118.0, peak_rss_mb=52.0, other=2.0)),
    (_result(items_per_s=96.0, peak_rss_mb=50.0, other=1.0), _result(items_per_s=95.0, peak_rss_mb=51.0, other=2.0)),
    (_result(items_per_s=102.0, peak_rss_mb=52.0, other=1.0), _result(items_per_s=122.0, peak_rss_mb=52.0, other=2.0)),
]


def test_summary_gives_quartiles_relative_change_and_wins():
    rows = pairs.summarize(CANNED, {"items_per_s": "higher", "peak_rss_mb": "lower"})
    assert [row[0] for row in rows] == ["items_per_s", "peak_rss_mb", "other"]
    (_, old, new, relative, beyond, wins), rss, other = rows
    assert old == (99.0, 101.0, 102.5) and new == (112.25, 119.0, 120.5)  # inclusive quartiles
    assert relative == pytest.approx(18 / 101)
    assert beyond and wins == 3  # the medians differ by 18, the parent's IQR is 3.5
    assert rss[3] == pytest.approx(1 / 50.5) and rss[4] is False and rss[5] == 0  # the IQR is 1.25; ties are no win
    assert other[5] is None  # a metric without a direction has no win count


def test_one_pair_is_its_own_quartiles():
    ((_, old, new, relative, beyond, wins),) = pairs.summarize([(_result(x=2.0), _result(x=3.0))], {"x": "lower"})
    assert old == (2.0,) * 3 and new == (3.0,) * 3
    assert relative == 0.5 and beyond and wins == 0


def test_refuses_checkout_paths_of_different_lengths(tmp_path, capsys):
    (tmp_path / "par").mkdir()
    (tmp_path / "change").mkdir()
    with pytest.raises(SystemExit) as exc:
        pairs.main([str(tmp_path / "par"), str(tmp_path / "change"), "--workload", "certify"])
    assert exc.value.code == 2
    assert "differ in length" in capsys.readouterr().err
