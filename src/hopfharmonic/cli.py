"""Command-line surface: reproducible solve/scan/verify/biharmonic/probes reports.

Output is deterministic: floats are serialised as decimal strings with 17
significant digits, row order is fixed, and identical configurations produce
byte-identical JSON/CSV.  Exit status is 0 on success, 1 when a requested
check fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .biharmonic import BRANCHES, index_threshold_scan, stability_condition
from .errors import HopfError, NoExactCountGuarantee, ProbesCollide, mp, to_fraction, to_mpf
from .existence import (
    a1_offset_probe_poly,
    a2_closed_form,
    certify_radii,
    count_solutions,
    guaranteed_thresholds,
    probe_values,
)
from .families import FamilyTag, HypersurfaceFamily, admissible_families, fixed_dimension, spectrum_arrays, x_from_radius
from .quartic import build_quartic
from .residual import chn_sweep, residual, residual_grid

_CP_TYPES = {tag.value[3:]: tag for tag in FamilyTag if tag.value.startswith("CP_")}  # --type A1 is CP_A1
_CH_TAGS = [tag for tag in FamilyTag if tag not in _CP_TYPES.values()]
_TRIG_SEED = 0x5EED
_ROOT_TOL = Fraction(1, 10**24)


def fmt(x) -> str:
    """Decimal string with 17 significant digits (platform independent)."""
    return mp.nstr(mp.mpf(x), 17)


def _family_from_args(args) -> HypersurfaceFamily:
    tag = _CP_TYPES.get(args.type.upper())
    if tag is None:
        raise UsageError(f"unknown --type {args.type!r} (choose from {sorted(_CP_TYPES)})")
    n = fixed_dimension(tag) if args.n is None else args.n
    if n is None:
        raise UsageError("--n is required for this family type")
    return HypersurfaceFamily(tag, n, args.k)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _solve_rows(family: HypersurfaceFamily, r: int):
    rows = []
    for cert in certify_radii(family, r, _ROOT_TOL):
        lo, hi = cert.isolating_interval
        rep = residual(family, cert.radius, r)  # the mp residual; the certificate's exact one is not printed
        rows.append({
            "x": fmt(cert.refined_root),
            "interval_lo": str(lo),
            "interval_hi": str(hi),
            "t": fmt(cert.radius),
            "residual": fmt(rep.residual),
            "trace": fmt(rep.trace),
            "trace_sq": fmt(rep.trace_sq),
        })
    return rows


def cmd_solve(args):
    rows = _solve_rows(_family_from_args(args), args.r)
    return {"rows": rows}, all(abs(float(row["residual"])) <= args.tol for row in rows)


def cmd_scan(args):
    family = _family_from_args(args)
    lo, hi = args.r_range
    try:
        r_two, r_four = guaranteed_thresholds(family)
    except NoExactCountGuarantee:  # inside the A2 k-window the paper guarantees neither count
        r_two = r_four = None
    rows = []
    for r in range(lo, hi + 1):
        try:
            pattern = probe_values(family, r).pattern
        except (ProbesCollide, NoExactCountGuarantee):
            pattern = ""
        rows.append({
            "r": r,
            "count": count_solutions(family, r),
            "pattern": pattern,
            "ge_two_guaranteed": r_two is not None and r >= r_two,
            "exactly_four_guaranteed": r_four is not None and r >= r_four,
        })
    return {"rows": rows}, True


def cmd_probes(args):
    report = probe_values(_family_from_args(args), args.r)
    names = ("0", "x0", "x1", "x2", "1")
    rows = [
        {"probe": name, "x": str(pt), "value": str(val), "sign": sign}
        for name, pt, val, sign in zip(names, report.points, report.values, report.signs)
    ]
    return {"rows": rows, "pattern": report.pattern}, True


def cmd_biharmonic(args):
    if args.scan_threshold:
        if args.p is None:
            raise UsageError("--scan-threshold requires --p")
        scan = index_threshold_scan(args.p, args.n_max)
        rows = [{
            "p": scan.p,
            "n_max": scan.n_max,
            "threshold": scan.threshold,
            "holds_for_all_larger": scan.holds_for_all_larger,
        }]
        return {"rows": rows}, scan.threshold is not None
    if args.n is None or args.p is None:
        raise UsageError("biharmonic requires --n and --p (or --scan-threshold)")
    rows = []
    for branch in BRANCHES:
        rep = stability_condition(args.n, args.p, branch)
        rows.append({
            "branch": branch,
            "degenerate": False,
            "cos_sq_t": fmt(rep.cos_sq_t),
            "t": fmt(rep.t),
            "trace": fmt(rep.trace),
            "trace_sq": fmt(rep.trace_sq),
            "lambda_min_sq": fmt(rep.lambda_min_sq),
            "lhs": fmt(rep.lhs),
            "rhs": fmt(rep.rhs),
            "constant_witness": fmt(rep.constant_witness),
            "condition_holds": rep.condition_holds,
            "index_claim": rep.index_claim.value,
        })
    ok = all(float(row["constant_witness"]) > 0 for row in rows)
    return {"rows": rows}, ok


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _boundary_targets(family: HypersurfaceFamily):
    """The exact (P(0), P(1)) of the family quartic; A1 is the A2 pair at k = 0."""
    n, k, tag = family.n, family.k or 0, family.tag
    if tag in (FamilyTag.CP_A1, FamilyTag.CP_A2):
        return (2 * k + 1) ** 2, (2 * k - 2 * n + 1) ** 2
    if tag is FamilyTag.CP_B:
        return 4, 4 * (n - 1) ** 2
    if tag is FamilyTag.CP_C:
        return 16, 4 * (n - 2) ** 2
    return (16, 25) if tag is FamilyTag.CP_D else (72, 162)


def _check_boundary_values():
    for family in (f for tag in _CP_TYPES.values() for f in admissible_families(tag, 25)):
        p0, p1 = _boundary_targets(family)
        for r in (2, 17):
            poly = build_quartic(family, r)
            if poly.evaluate(0) != p0 or poly.evaluate(1) != p1:
                return False, f"boundary mismatch for {family.tag.value} n={family.n} k={family.k} r={r}"
    return True, "endpoint values exact for all families up to n=25"


def _check_probe_identities():
    for r in (2, 17):
        for family in admissible_families(FamilyTag.CP_A1, 25):
            n, pa1 = family.n, build_quartic(family, r)
            if (n + 3) ** 4 * pa1.evaluate(Fraction(2, n + 3)) != -(3 * n * n + 2 * n + 11) * (n + 7) * (n - 1):
                return False, f"A1 order-free probe failed at n={n}"
        for family in admissible_families(FamilyTag.CP_B, 25):
            n, pb = family.n, build_quartic(family, r)
            if n**4 * pb.evaluate(Fraction(1, n)) != 2 * (3 * n - 1) * (n - 1) ** 3:
                return False, f"B minimal probe failed at n={n}"
        a_types = (FamilyTag.CP_A1, FamilyTag.CP_A2)  # A1's trace-zero probe is A2's minimal probe at k = 0
        for family in (f for tag in a_types for f in admissible_families(tag, 25)):
            n, k, pa2 = family.n, family.k or 0, build_quartic(family, r)
            if 2 * n**4 * pa2.evaluate(Fraction(2 * k + 1, 2 * n)) != -(n - 1) * (2 * n - 2 * k - 1) ** 2 * (2 * k + 1) ** 2:
                return False, f"{family.tag.value} minimal probe failed at n={n}, k={family.k}"
        for family in admissible_families(FamilyTag.CP_C, 25):
            n, pc = family.n, build_quartic(family, r)
            if n**4 * pc.evaluate(Fraction(2, n)) != 8 * (3 * n - 1) * (n - 1) * (n - 2) ** 2:
                return False, f"C minimal probe failed at n={n}"
    return True, "rational probe identities exact up to n=25"


def _check_biquadratic():
    balanced = (f for f in admissible_families(FamilyTag.CP_A2, 15) if f.n == 2 * f.k + 1)
    for family in balanced:
        n = family.n
        for r in (2, 17, 40):
            poly = build_quartic(family, r)
            a4, a3, a2, a1, _ = poly.coefficients()
            if a3**3 - 4 * a4 * a3 * a2 + 8 * a4 * a4 * a1 != 0:
                return False, f"biquadratic relation failed at n={n}, r={r}"
            roots = a2_closed_form(n, r)
            for x in (roots.x_plus, roots.x_minus):
                if abs(poly.evaluate(to_fraction(x))) > Fraction(1, 10**18):
                    return False, f"closed-form root misses the quartic at n={n}, r={r}"
    return True, "balanced-family biquadratic branch exact up to n=15"


def _check_offset_probe_poly():
    for family in admissible_families(FamilyTag.CP_A1, 30):
        n = family.n
        b4, b3, b2, b1, b0 = a1_offset_probe_poly(n)
        for r in (2, 3, 17, 97):
            poly = build_quartic(family, r)
            lhs = 2 * n**4 * r**4 * poly.evaluate(Fraction(1, 2 * n) + Fraction(1, n * r))
            if lhs != b4 * r**4 + b3 * r**3 + b2 * r**2 + b1 * r + b0:
                return False, f"offset-probe polynomial mismatch at n={n}, r={r}"
    return True, "offset-probe coefficients exact up to n=30"


def _check_trig_identities():
    """Sum_j cot(t - j pi/4) = 4 cot 4t and sum_j cot^2(t - j pi/4) = 12 + 16 cot^2 4t on the package's float64 C row.

    The four branches of ``spectrum_arrays`` for C (n = 5) are cot(t - j pi/4), j = 1, 3, 2, 0, and its alpha is
    2 cot 2t, so cot 4t = (alpha^2 - 4) / (4 alpha).  The row computes alpha and the four lambda apart, each from
    its own argument, so the identities are not a tautology of it: a wrong pi, cot, shift or alpha breaks them.
    sum lambda^2 = 12 + rhs1^2 = rhs2 bounds each lambda^2 by rhs2 and |lambda| by 4 max(1, |rhs1|), so each
    float64 residual errs by a few 1e-15 of its tolerance's scale, far below 1e-10.
    """
    rng = random.Random(_TRIG_SEED)
    ts = np.array([rng.uniform(1e-3, math.pi / 4 - 1e-3) for _ in range(1000)])
    alpha, branches = spectrum_arrays(HypersurfaceFamily(FamilyTag.CP_C, 5), ts)
    for t, a, *lams in zip(ts.tolist(), alpha.tolist(), *(lam.tolist() for lam, _ in branches)):
        cot4 = (a * a - 4) / (4 * a)
        rhs1, rhs2 = 4 * cot4, 12 + 16 * cot4**2
        res1, res2 = math.fsum([*lams, -rhs1]), math.fsum([*(l * l for l in lams), -rhs2])
        if abs(res1) > 1e-10 * max(1, abs(rhs1)) or abs(res2) > 1e-10 * abs(rhs2):
            return False, f"quarter-turn cotangent identity failed at t={mp.nstr(mp.mpf(t), 12)}"
    return True, "quarter-turn cotangent identities hold at 1000 random radii"


def _check_ch_negativity(r_max):
    grid, orders = np.linspace(0.01, 12.0, 2000), range(2, r_max + 1)
    worst = -np.inf
    for family in (f for tag in _CH_TAGS for f in admissible_families(tag, 5)):
        for r, value in zip(orders, chn_sweep(family, orders, grid).tolist()):
            worst = max(worst, value)
            if worst >= -1e-6:
                return False, f"residual not negative for {family.tag.value} n={family.n} r={r}"
    return True, f"hyperbolic residuals stay below -1e-6 (worst {worst:.6g}) for r <= {r_max}"


def _check_roundtrip():
    cases = [
        (HypersurfaceFamily(FamilyTag.CP_A1, 2), (2, 7, 17)),
        (HypersurfaceFamily(FamilyTag.CP_A1, 5), (2, 17)),
        (HypersurfaceFamily(FamilyTag.CP_A2, 4, 1), (2, 17)),
        (HypersurfaceFamily(FamilyTag.CP_A2, 5, 2), (2, 17)),
        (HypersurfaceFamily(FamilyTag.CP_B, 2), (2, 17)),
        (HypersurfaceFamily(FamilyTag.CP_C, 5), (2, 17)),
        (HypersurfaceFamily(FamilyTag.CP_D, 9), (2, 89)),
        (HypersurfaceFamily(FamilyTag.CP_E, 15), (2, 100)),
    ]
    for family, orders in cases:
        lo, hi = family.radius_domain()
        ts = np.linspace(float(hi) / 301, float(hi) * 300 / 301, 300)
        for r in orders:
            certs = certify_radii(family, r, Fraction(1, 10**18))
            for cert in certs:  # the exact residual at the root, and the mp one at its radius, as Criterion 03 reads it
                for res in (cert.residual_at_radius, residual(family, cert.radius, r).residual):
                    if abs(res) > 1e-9:
                        shown = mp.nstr(to_mpf(res, HopfError), 4)  # mp.nstr and mp.mpf take no Fraction
                        return False, f"residual {shown} too large for {family.tag.value} r={r}"
            values = residual_grid(family, r, ts)
            intervals = [cert.isolating_interval for cert in certs]
            for i in np.flatnonzero(values[:-1] * values[1:] < 0):
                xa = to_fraction(float(x_from_radius(family, ts[i])))
                xb = to_fraction(float(x_from_radius(family, ts[i + 1])))
                xlo, xhi = min(xa, xb), max(xa, xb)
                if not any(a <= xhi and xlo <= b for a, b in intervals):  # [a, b] meets [xlo, xhi]
                    return False, f"sign change near t={ts[i]:.6f} outside certificates for {family.tag.value} r={r}"
    return True, "certified roots and residual sign changes agree"


# (suite, name, check) in report order; suite "all" runs every row.
_CHECKS = (
    ("exact", "boundary-values", _check_boundary_values),
    ("exact", "probe-identities", _check_probe_identities),
    ("exact", "biquadratic-relation", _check_biquadratic),
    ("exact", "offset-probe-poly", _check_offset_probe_poly),
    ("trig", "quarter-turn-identities", _check_trig_identities),
    ("ch-nonexistence", "hyperbolic-negativity", _check_ch_negativity),
    ("roundtrip", "root-residual-roundtrip", _check_roundtrip),
)
_SUITES = (*dict.fromkeys(suite for suite, _, _ in _CHECKS), "all")


def cmd_verify(args):
    if args.r_max < 2:
        raise UsageError(f"--r-max must be at least 2, got {args.r_max}")
    rows = []
    all_passed = True
    for suite, name, check in _CHECKS:
        if args.suite not in (suite, "all"):
            continue
        passed, detail = check(r_max=args.r_max) if check is _check_ch_negativity else check()
        all_passed &= passed
        rows.append({"name": name, "passed": passed, "detail": detail})
    return {"checks": rows}, all_passed


# ---------------------------------------------------------------------------
# rendering and entry point
# ---------------------------------------------------------------------------

def _render_json(result) -> str:
    return json.dumps(result, indent=2) + "\n"


def _render_csv(result) -> str:
    rows = result.get("rows") or result.get("checks") or []
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return buf.getvalue()


def _render_text(result) -> str:
    lines = []
    for row in result.get("rows", []):
        lines.append("  ".join(f"{key}={value}" for key, value in row.items()))
    for row in result.get("checks", []):
        status = "PASS" if row["passed"] else "FAIL"
        lines.append(f"[{status}] {row['name']}: {row['detail']}")
    if "pattern" in result:
        lines.append(f"pattern: {result['pattern']}")
    return "\n".join(lines) + "\n"


@functools.cache  # parse_args leaves the parser as it found it, so one serves every main()
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hopfharmonic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--precision", type=int, default=30, help="working precision in significant digits (>= 30)")
        p.add_argument("--tol", type=float, default=1e-10, help="solve exits 1 if a residual exceeds this, in (0, 1e-6]")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", default=None, help="write the report to this path instead of stdout")

    def add_family(p):
        p.add_argument("--type", required=True, help="projective family type: A1, A2, B, C, D or E")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--k", type=int, default=None)

    p_solve = sub.add_parser("solve", help="certified proper r-harmonic radii of one family")
    add_family(p_solve)
    p_solve.add_argument("--r", type=int, required=True)
    add_common(p_solve)

    p_scan = sub.add_parser("scan", help="solution counts across a range of orders")
    add_family(p_scan)
    p_scan.add_argument("--r-range", dest="r_range", type=_parse_range, required=True, metavar="LO..HI")
    add_common(p_scan)

    p_probes = sub.add_parser("probes", help="exact probe values of the family quartic")
    add_family(p_probes)
    p_probes.add_argument("--r", type=int, required=True)
    add_common(p_probes)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("--suite", choices=_SUITES, default="all")
    p_verify.add_argument("--r-max", dest="r_max", type=int, default=20)
    add_common(p_verify)

    p_bih = sub.add_parser("biharmonic", help="biharmonic tubes and their stability")
    p_bih.add_argument("--n", type=int, default=None)
    p_bih.add_argument("--p", type=int, default=None)
    p_bih.add_argument("--scan-threshold", dest="scan_threshold", action="store_true")
    p_bih.add_argument("--n-max", dest="n_max", type=int, default=500)
    add_common(p_bih)

    return parser


def _parse_range(text: str):
    lo, sep, hi = text.partition("..")
    if not sep or not lo.isdigit() or not hi.isdigit():
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


_HANDLERS = {
    "solve": cmd_solve,
    "scan": cmd_scan,
    "probes": cmd_probes,
    "verify": cmd_verify,
    "biharmonic": cmd_biharmonic,
}


def _config_dict(args) -> dict:
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in vars(args).items() if key != "out"}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.precision < 30:
        parser.exit(2, "error: --precision must be at least 30\n")
    if not 0 < args.tol <= 1e-6:
        parser.exit(2, "error: --tol must lie in (0, 1e-6]\n")

    with mp.workdps(args.precision):
        try:
            payload, ok = _HANDLERS[args.command](args)
        except (UsageError, HopfError) as exc:
            parser.exit(2, f"error: {exc}\n")

    result = {"config": _config_dict(args), **payload, "version": __version__}
    result.setdefault("rows", [])
    result.setdefault("checks", [])
    render = {"json": _render_json, "csv": _render_csv, "text": _render_text}[args.format]
    text = render(result)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            parser.exit(2, f"error: cannot write --out {args.out}: {exc.strerror}\n")
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
