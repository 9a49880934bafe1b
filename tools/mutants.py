"""Integer-literal or operator mutants of one line range of a module, run against the test suite.

    python tools/mutants.py src/hopfharmonic/existence.py 89 110
    python tools/mutants.py --operators src/hopfharmonic/quartic.py 44 404

Each mutant raises one integer literal on lines FIRST..LAST (inclusive) by 1;
a literal under a unary minus moves away from zero.  With --operators each
mutant instead flips one operator there: < and <=, > and >=, == and !=,
binary + and -, and and or; or it drops one `not`.  Every mutant runs
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
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
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


# each operator's token and the token that replaces it; a dropped `not` leaves its operand
_TOKENS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
           ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or", ast.Not: "not"}
_FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
          "+": "-", "-": "+", "and": "or", "or": "and", "not": ""}


def _gaps(node):
    """(after, before, op) for each operator of node: its token lies between those two (line, byte column) points."""
    def start(n):
        return n.lineno, n.col_offset

    def end(n):
        return n.end_lineno, n.end_col_offset

    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        return [(end(a), start(b), type(op)) for a, b, op in zip(operands, operands[1:], node.ops)]
    if isinstance(node, ast.BinOp):
        return [(end(node.left), start(node.right), type(node.op))]
    if isinstance(node, ast.BoolOp):
        return [(end(a), start(b), type(node.op)) for a, b in zip(node.values, node.values[1:])]
    if isinstance(node, ast.UnaryOp):
        return [(start(node), start(node.operand), type(node.op))]
    return []


def operators(source: str, first: int, last: int) -> list:
    """(line, start, end, replacement) of every operator flip on lines first..last, columns in characters."""
    lines = source.splitlines(keepends=True)

    def position(point):  # ast columns count UTF-8 bytes
        line, col = point
        return line, len(lines[line - 1].encode()[:col].decode())

    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline) if tok.string in _FLIPS]
    found = []
    for node in ast.walk(ast.parse(source)):
        for after, before, op in _gaps(node):
            if op not in _TOKENS:
                continue
            lo, hi, text = position(after), position(before), _TOKENS[op]
            # an operator inside an f-string is part of its string token and is skipped
            tok = next((tok for tok in tokens if lo <= tok.start and tok.end <= hi and tok.string == text), None)
            if tok and first <= tok.start[0] <= last:
                found.append((tok.start[0], tok.start[1], tok.end[1], _FLIPS[text]))
    return sorted(found)


def mutate(source: str, line: int, start: int, end: int, replacement) -> str:
    """source with characters start..end of line replaced: by replacement, or by an int literal's value + 1."""
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    lines[line - 1] = text[:start] + (str(replacement + 1) if isinstance(replacement, int) else replacement) + text[end:]
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
    parser.add_argument("--operators", action="store_true", help="flip operators instead of raising integer literals")
    args = parser.parse_args(argv)
    module = args.module.resolve().relative_to(ROOT)
    source = (ROOT / module).read_text(encoding="utf-8")

    passed, seconds = run_suite(module, source)
    if not passed:
        print(f"the unmutated suite fails on {module}; no mutant verdict would mean anything")
        return 2
    mutants = (operators if args.operators else literals)(source, args.first, args.last)
    print(f"{module}:{args.first}-{args.last}: {len(mutants)} mutants, unmutated suite {seconds:.1f} s", flush=True)

    def verdict(mutant):
        return run_suite(module, mutate(source, *mutant), timeout=5 * seconds)[0]

    survivors = 0
    with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        for (line, start, end, replacement), survived in zip(mutants, pool.map(verdict, mutants)):
            survivors += survived
            text = source.splitlines()[line - 1]
            new = replacement + 1 if isinstance(replacement, int) else replacement or "(dropped)"
            print(f"{'SURVIVED' if survived else 'killed  '} {module}:{line}:{start + 1}  "
                  f"{text[start:end]} -> {new}  | {text.strip()}", flush=True)
    print(f"{module}:{args.first}-{args.last}: {len(mutants) - survivors} killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
