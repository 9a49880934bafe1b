"""Integer-literal mutants of one line range of a module, run against the test suite.

    python tools/mutants.py src/hopfharmonic/existence.py 89 110

Each mutant raises one integer literal on lines FIRST..LAST (inclusive) by 1;
a literal under a unary minus moves away from zero.  Every mutant runs
``python -m pytest -x -q`` in its own copy of the checkout, made in a
temporary directory, never in the checkout itself, with os.cpu_count()
mutants at a time.  A mutant the suite fails on is killed; one it passes
survives and is printed for a test, a removal or an equivalence note.  The
unmutated copy runs first: if it fails, no verdict means anything, and the
run stops.  A mutant still running at five times the unmutated time is
stopped and counted as killed (a hang).  Exit status: 0 if every mutant is
killed, 1 if one survives, 2 if the unmutated suite fails.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_out", ".bench_build")


def literals(source: str, first: int, last: int) -> list:
    """(line, start, end, value) of every int literal on lines first..last, columns in characters."""
    lines = source.splitlines(keepends=True)
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) is int and first <= node.lineno <= last:
            raw = lines[node.lineno - 1].encode()  # ast columns count UTF-8 bytes
            start, end = (len(raw[:col].decode()) for col in (node.col_offset, node.end_col_offset))
            found.append((node.lineno, start, end, node.value))
    return sorted(found)


def mutate(source: str, line: int, start: int, end: int, value: int) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    lines[line - 1] = text[:start] + str(value + 1) + text[end:]
    return "".join(lines)


def run_suite(module: Path, source: str, timeout=None):
    """(passed, seconds) of the test suite on a copy of the checkout whose module holds source."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        (copy / module).write_text(source, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))}
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q"], cwd=copy, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return False, time.perf_counter() - start
        return proc.returncode == 0, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("module", type=Path, help="module file in this checkout")
    parser.add_argument("first", type=int, help="first line of the range")
    parser.add_argument("last", type=int, help="last line of the range")
    args = parser.parse_args(argv)
    module = args.module.resolve().relative_to(ROOT)
    source = (ROOT / module).read_text(encoding="utf-8")

    passed, seconds = run_suite(module, source)
    if not passed:
        print(f"the unmutated suite fails on {module}; no mutant verdict would mean anything")
        return 2
    mutants = literals(source, args.first, args.last)
    print(f"{module}:{args.first}-{args.last}: {len(mutants)} mutants, unmutated suite {seconds:.1f} s", flush=True)

    def verdict(mutant):
        return run_suite(module, mutate(source, *mutant), timeout=5 * seconds)[0]

    survivors = 0
    with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        for (line, start, end, value), survived in zip(mutants, pool.map(verdict, mutants)):
            survivors += survived
            text = source.splitlines()[line - 1]
            print(f"{'SURVIVED' if survived else 'killed  '} {module}:{line}:{start + 1}  "
                  f"{text[start:end]} -> {value + 1}  | {text.strip()}", flush=True)
    print(f"{module}:{args.first}-{args.last}: {len(mutants) - survivors} killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
