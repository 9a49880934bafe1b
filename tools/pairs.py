"""Interleaved benchmark pairs of two checkouts, summarised per metric.

    python tools/pairs.py PARENT CHANGE --workload certify --pairs 10 --seconds 20 --seed 3

Each pair runs ``bench/run.py`` once in each checkout, one child process at
a time, under the rules every performance claim follows:

- the two checkout paths must have the same length (the heap layout, and
  with it the timings, moves with the length of the paths a run touches);
- each child gets MALLOC_TRIM_THRESHOLD_ and MALLOC_MMAP_THRESHOLD_ set to
  256 MiB, and no PYTHONPATH, so it imports the package of its own checkout;
- the side that runs first alternates from pair to pair, parent first in
  the first pair.

The last stdout line of each run is its JSON result.  After every pair one
line gives both sides' end-to-end values; at the end each metric gets the
median and quartiles of each side, the median change relative to the
parent, whether that change exceeds the parent's interquartile range, and
the number of pairs in which the change is better, taking "better" from the
change's BENCHMARK.json.  Exit status: 0 if every run succeeded and was
correct, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

MALLOC = {"MALLOC_TRIM_THRESHOLD_": "268435456", "MALLOC_MMAP_THRESHOLD_": "268435456"}


def quartiles(values) -> tuple:
    """(q1, median, q3) of the values, inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs, better) -> list:
    """One row per metric of the (parent, change) result pairs, in the parent's metric order.

    A row is (metric, parent quartiles, change quartiles, relative change of
    the medians, beyond, wins): beyond says whether the medians differ by
    more than the parent's interquartile range, and wins counts the pairs in
    which the change's value is better by the metric's ``better`` ("higher"
    or "lower"), None for a metric without a direction.
    """
    rows = []
    for name in pairs[0][0]["metrics"]:
        old = [parent["metrics"][name]["value"] for parent, _ in pairs]
        new = [change["metrics"][name]["value"] for _, change in pairs]
        q_old, q_new = quartiles(old), quartiles(new)
        relative = (q_new[1] - q_old[1]) / q_old[1] if q_old[1] else None
        sign = {"higher": 1, "lower": -1}.get(better.get(name))
        wins = None if sign is None else sum(sign * (b - a) > 0 for a, b in zip(old, new))
        beyond = abs(q_new[1] - q_old[1]) > q_old[2] - q_old[0]
        rows.append((name, q_old, q_new, relative, beyond, wins))
    return rows


def run_bench(checkout: Path, args) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds)],
        cwd=checkout, env={**env, **MALLOC}, capture_output=True, text=True, timeout=600 + 10 * args.seconds,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: {checkout}: no output, exit status {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["status"] = proc.returncode
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if len(str(parent)) != len(str(change)):
        parser.error(f"checkout paths differ in length: {parent} ({len(str(parent))}), {change} ({len(str(change))})")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    manifest = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {spec["name"]: spec["better"] for spec in manifest["end_to_end"] + manifest["per_layer"]}

    pairs, ok = [], True
    for i in range(args.pairs):
        sides = (parent, change) if i % 2 == 0 else (change, parent)
        results = dict(zip(sides, (run_bench(side, args) for side in sides)))
        pair = results[parent], results[change]
        ok &= all(r["status"] == 0 and r["correct"] for r in pair)
        pairs.append(pair)
        shown = "  ".join(
            f"{name} {pair[0]['metrics'][name]['value']:.6g}/{pair[1]['metrics'][name]['value']:.6g}"
            for name in pair[0]["metrics"]
        )
        first = "parent" if sides[0] == parent else "change"
        print(f"pair {i + 1} ({first} first, parent/change): {shown}  correct {pair[0]['correct']}/{pair[1]['correct']}",
              flush=True)

    print(f"{'metric':<28} {'parent q1/median/q3':>30} {'change q1/median/q3':>30} {'change':>8} {'>IQR':>4} wins")
    for name, q_old, q_new, relative, beyond, wins in summarize(pairs, better):
        shown = ["/".join(f"{v:.4g}" for v in q) for q in (q_old, q_new)]
        rel = "-" if relative is None else f"{relative:+.1%}"
        won = "-" if wins is None else f"{wins}/{len(pairs)}"
        print(f"{name:<28} {shown[0]:>30} {shown[1]:>30} {rel:>8} {'yes' if beyond else 'no':>4} {won}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
