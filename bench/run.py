"""hopfharmonic benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout; the package is imported from its ``src/``,
so nothing needs installing:

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10
    python3 bench/run.py --write-manifest

``--trace 0`` times single items with nothing wrapped, in a closed loop that
stops at the first block boundary after ``--seconds``, and reports the
end-to-end metrics; set-up time (import, input generation, one warm-up item,
counted from the first line of this script) is the median over fresh
interpreters started after the timed phase.  ``--trace 1`` alternates
untraced and traced passes over a fixed prefix of the item stream and
reports the per-layer metrics (self time, calls, work counts) and the
tracing overhead.  All times are scaled to
a nominal machine speed (see speed.py); unscaled values are in the notes
line.  Outputs are checked after timing; any failed check makes the exit
status 1.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the environment
stamp, notes (sample counts, failed_frac) and the metrics as a table.

``--workload all`` runs every workload in both modes, one child process at a
time, and prints one table.  ``--write-manifest`` regenerates the root
``BENCHMARK.json`` from ``bench/spec.json``, which also holds each layer
metric's predicted effect (end-to-end metrics and workload).
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# One process, one thread: numpy must see these before it is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HOPF_PRECISION", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
SETUP_RUNS = 17
MIN_ITEMS = 100
MAX_REPORTED_FAILURES = 5
MODULES = ("errors", "families", "residual", "quartic", "existence", "biharmonic", "cli")


def load_program(with_cli: bool) -> SimpleNamespace:
    """Import hopfharmonic from this checkout's src/ and return its modules."""
    init = SRC / "hopfharmonic" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import hopfharmonic

    if Path(hopfharmonic.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported hopfharmonic from {hopfharmonic.__file__}, not from {SRC}")
    if with_cli:
        importlib.import_module("hopfharmonic.cli")
    return SimpleNamespace(**{
        name: sys.modules[f"hopfharmonic.{name}"] for name in MODULES if f"hopfharmonic.{name}" in sys.modules
    })


def set_up(workload, seed: int):
    """Import, input generation and one warm-up item.

    Returns the modules, the item stream and the wall time in seconds since
    the interpreter started this script.
    """
    m = load_program(with_cli=workload.name == "cli")
    stream = workload.items(seed)
    workload.run(m, workload.warmup_item)
    return m, stream, time.perf_counter() - T0


def environment(m) -> dict:
    import mpmath
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "hopfharmonic").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "mp_dps": mpmath.mp.dps,
        "git": git_revision(),
        "src_sha256": digest.hexdigest()[:16],
        "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_revision() -> str:
    """HEAD commit read from .git without running git; "none" outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            commit, _, name = line.partition(" ")
            if name == ref[5:]:
                return commit
    return ref[5:]


class Failures:
    """Counts failed items and keeps the first few reasons for stderr."""

    def __init__(self):
        self.count = 0
        self.reasons = []

    def add(self, item, reason: str):
        self.count += 1
        if len(self.reasons) < MAX_REPORTED_FAILURES:
            self.reasons.append(f"{item!r}: {reason}")


def run_item(workload, m, item, failures):
    """Run one item; an unexpected exception is a failure, never an abort."""
    try:
        return True, workload.run(m, item)
    except Exception:
        failures.add(item, traceback.format_exc(limit=3).strip().splitlines()[-1])
        return False, None


def check(workload, m, pairs, failures):
    for item, result in pairs:
        try:
            reason = workload.check(m, item, result)
        except Exception:
            reason = "check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        if reason is not None:
            failures.add(item, reason)


# ---------------------------------------------------------------------------
# end-to-end run (tracing off)
# ---------------------------------------------------------------------------

def setup_probe(workload, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured by the child itself.

    The time is scaled by calibrations made here, in a warm process, just
    before and after the child runs.
    """
    ref_before = speed.calibration_ms()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    factor = speed.REFERENCE_MS / ((ref_before + speed.calibration_ms()) / 2)
    return float(proc.stdout.strip().splitlines()[-1]) * factor


def end_to_end(workload, seed: int, seconds: float):
    m, stream, _ = set_up(workload, seed)
    failures = Failures()
    kept = []
    completed = 0
    timer = speed.Calibrated()
    clock = time.perf_counter
    deadline = clock() + seconds
    # Stop on a block boundary so that every stratum keeps its share of the run.
    while clock() < deadline or len(timer.raw) < MIN_ITEMS or len(timer.raw) % workload.block_size:
        item = next(stream)
        t = clock()
        ok, result = run_item(workload, m, item, failures)
        timer.add(clock() - t)
        if ok:
            completed += 1
            if len(kept) < workload.checked_items:
                kept.append((item, result))
    timer.flush()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = timer.scaled

    # The probes run after the timed phase: started before it, they slowed the
    # spectrum workload's items by about 6 %.
    setups = [setup_probe(workload, seed) for _ in range(SETUP_RUNS)]
    check(workload, m, kept, failures)
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    raw = statistics.quantiles(timer.raw, n=10, method="inclusive")
    metrics = {
        "items_per_s": completed / sum(times),
        "item_ms_p50": deciles[4] * 1e3,
        "item_ms_p90": deciles[8] * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    notes = {
        "samples": len(times),
        "beyond_p90": sum(1 for t in times if t > deciles[8]),
        "checked": len(kept),
        "failed_frac": failures.count / len(times),
        "setup_runs_s": [round(s, 4) for s in setups],
        "unscaled": {
            "items_per_s": round(completed / sum(timer.raw), 3),
            "item_ms_p50": round(raw[4] * 1e3, 4),
            "item_ms_p90": round(raw[8] * 1e3, 4),
        },
    }
    return m, len(times), failures, metrics, notes


# ---------------------------------------------------------------------------
# traced run (per-layer metrics)
# ---------------------------------------------------------------------------

def layer_metrics(workload, passes, results) -> dict:
    """Per-layer values: median self time over traced passes, counts of one pass."""
    counts = passes[0]["counts"]

    def self_ms(*names):
        return statistics.median(sum(p["self_ms"].get(name, 0.0) for name in names) for p in passes)

    values = {}
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        if name == "families.traces.self_ms":
            values[name] = self_ms("families.trace_shape", "families.trace_shape_squared")
        elif name.endswith(".self_ms"):
            values[name] = self_ms(name[: -len(".self_ms")])
        elif name == "cli.report_bytes":
            values[name] = sum(r[2] for ok, r in results if ok) if workload.name == "cli" else 0
        elif name != "trace.overhead_frac":
            values[name] = counts.get(name, 0)
    return values


def traced(workload, seed: int, seconds: float):
    from tracing import Tracer

    m, _, _ = set_up(workload, seed)
    items = list(itertools.islice(workload.items(seed), workload.trace_pass_items))
    tracer = Tracer()
    failures = Failures()
    walls = {False: [], True: []}
    outputs = None
    passes = []
    clock = time.perf_counter
    deadline = clock() + seconds
    for round_no in itertools.count():
        for tracing in (False, True) if round_no % 2 == 0 else (True, False):
            if tracing:
                tracer.reset()
                tracer.install()
            ref_before = speed.calibration_ms()
            t = clock()
            results = []
            for index, item in enumerate(items):
                tracer.item = index
                results.append(run_item(workload, m, item, failures))
            wall = clock() - t
            factor = speed.REFERENCE_MS / ((ref_before + speed.calibration_ms()) / 2)
            walls[tracing].append(wall * factor)
            if tracing:
                tracer.uninstall()
                summary = tracer.summary()
                summary["self_ms"] = {name: ms * factor for name, ms in summary["self_ms"].items()}
                passes.append(summary)
            if outputs is None:
                outputs = results
            elif results != outputs:
                failures.add(workload.name, "a repeated or traced pass gave different outputs")
        if clock() >= deadline:
            break
    check(workload, m, [(item, r) for item, (ok, r) in zip(items, outputs) if ok], failures)
    if any(p["counts"] != passes[0]["counts"] for p in passes):
        failures.add(workload.name, "work counts differ between identical passes")

    spans_path = ROOT / ".bench_out" / f"spans-{workload.name}-seed{seed}.json"
    tracer.write_spans(spans_path)
    metrics = layer_metrics(workload, passes, outputs)
    untraced = statistics.median(walls[False])
    metrics["trace.overhead_frac"] = (statistics.median(walls[True]) - untraced) / untraced
    attempted = len(items) * (len(walls[False]) + len(walls[True]))
    notes = {
        "items_per_pass": len(items),
        "passes": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "failed_frac": failures.count / attempted,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return m, attempted, failures, metrics, notes


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    m, attempted, failures, values, notes = (traced if trace else end_to_end)(workload, seed, seconds)
    units = {spec["name"]: spec["unit"] for spec in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    notes["known_defects"] = getattr(workload, "known_defects", 0)

    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("env " + json.dumps(environment(m), sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    for key, entry in metrics.items():
        print(f"  {key:<40} {entry['value']:>16.6g} {entry['unit']}")
    for reason in failures.reasons:
        print("FAILED " + reason, file=sys.stderr)
    result = {"correct": failures.count == 0, "attempted": attempted, "failed": failures.count, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failures.count == 0 else 1


def measure_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each in its own child process, in turn."""
    rows, status = [], 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit status {proc.returncode}")
                status = 1
            if lines:
                print("\n".join(line for line in lines[:-1] if not line.startswith("  ")))
                result = json.loads(lines[-1])
                for key, entry in result["metrics"].items():
                    rows.append((name, trace, key, entry["value"], entry["unit"]))
                rows.append((name, trace, "failed_frac", result["failed"] / result["attempted"], "1"))
    print(f"{'workload':<10} {'trace':<5} {'metric':<40} {'value':>16} unit")
    for name, trace, key, value, unit in rows:
        print(f"{name:<10} {trace:<5} {key:<40} {value:>16.6g} {unit}")
    return status


def write_manifest():
    manifest = {key: SPEC[key] for key in ("command", "paths", "run_seconds", "workloads", "end_to_end")}
    manifest["per_layer"] = [{key: spec[key] for key in ("name", "unit", "better")} for spec in SPEC["per_layer"]]
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-manifest", action="store_true", help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args()
    if args.write_manifest:
        write_manifest()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        print(set_up(WORKLOADS[args.workload], args.seed)[2])
        return 0
    if args.workload == "all":
        return measure_all(args.seed, args.seconds)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
