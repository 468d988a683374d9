"""Command-line front end.

Subcommands:

    table    homology rank tables per Hodge degree; --mode picks the engine
             (bruteforce: exact matrices; closedform: stored formulas;
             crosscheck: both, compared cell by cell)
    series   coefficients of a stored generating function (h0, h1, or chi)
    signs    verification grid, first-principles symmetry signs against the
             algebra's mirror and S3 sign rules, over all hair triples up to
             a bound
    basis    JSON dump of one (case, t) slice: bases and matrices

Case names are two letters, the parities of m and N in that order: oo, ee,
eo, oe ("eo" means m even, N odd); `table` and `series` also accept "all".
Numeric arguments are capped: --max-hodge and --hodge at 200, --terms at
10000, --max-exponent at 12.  Exit codes: 0 success, 1 a comparison failed,
2 usage error or unwritable output, 3 internal consistency violation.
Output goes to stdout, or to --out PATH; a relative --out lands in
$THETA_HOMOLOGY_OUTDIR when that is set.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
from pathlib import Path

from .cases import ALL_CASES, case_from_key
from .complexes import ComplexConsistencyError, build_slice, slice_as_dict
from .genfun import rank_formula, series
from .homology import homology_ranks
from .signs import (
    edge_swap_sign,
    edge_swap_sign_formula,
    vertical_reflection_sign,
    vertical_reflection_sign_formula,
)

CSV_COLUMNS = ("t", "a", "b", "chi", "dim_c2", "dim_c1", "dim_c0", "rank_d2", "rank_d1")

# Upper bounds on the numeric arguments, so that no request runs for hours.
# The sign grid has 44 (k+1)^3 cells; 200 is the Hodge range the exact
# engine aims at.
MAX_EXPONENT_CAP = 12
HODGE_CAP = 200
TERMS_CAP = 10000


def _int_in(low, high):
    """argparse type: an integer in [low, high]; anything else exits 2."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be in {low}..{high}, got {value}")
        return value

    return parse


def _cases_argument(value):
    if value == "all":
        return list(ALL_CASES)
    return [case_from_key(value)]


def _resolve_out(path):
    if path is None:
        return None
    path = Path(path)
    if not path.is_absolute():
        base = os.environ.get("THETA_HOMOLOGY_OUTDIR")
        if base:
            path = Path(base) / path
    return path


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text)


def run_table(args):
    cases = _cases_argument(args.case)
    degrees = range(1, args.max_hodge + 1)
    sections = []
    mismatches = []
    for case in cases:
        if args.mode != "bruteforce":
            chi_series = series(case, "chi", args.max_hodge)
            closed = [
                {
                    "t": t,
                    "a": rank_formula(case, "a", t),
                    "b": rank_formula(case, "b", t),
                    "chi": chi_series[t],
                }
                for t in degrees
            ]
        if args.mode == "closedform":
            rows = closed
        else:
            brute = [homology_ranks(build_slice(case, t)) for t in degrees]
            rows = [{c: getattr(r, c) for c in CSV_COLUMNS} for r in brute]
            if args.mode == "crosscheck":
                for got, want in zip(rows, closed):
                    for column in ("a", "b", "chi"):
                        if got[column] != want[column]:
                            mismatches.append(
                                f"{case.key} t={got['t']} {column}: "
                                f"bruteforce {got[column]}, closedform {want[column]}"
                            )
        sections.append((case, rows))

    text = _format_table(sections, args.format)
    _emit(text, _resolve_out(args.out))
    if mismatches:
        for line in mismatches:
            print("MISMATCH", line, file=sys.stderr)
        return 1
    return 0


def _format_table(sections, fmt):
    if fmt == "json":
        payload = [
            {"case": case.key, "rows": rows} for case, rows in sections
        ]
        if len(payload) == 1:
            payload = payload[0]
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        for case, rows in sections:
            if len(sections) > 1:
                buffer.write(f"# case: {case.key}\n")
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow([row.get(column, "") for column in CSV_COLUMNS])
            if len(sections) > 1:
                buffer.write("\n")
        return buffer.getvalue()
    lines = []
    for case, rows in sections:
        lines.append(f"case {case.key}")
        have_dims = rows and "dim_c2" in rows[0]
        columns = CSV_COLUMNS if have_dims else CSV_COLUMNS[:4]
        widths = {c: max(len(c), 4) for c in columns}
        lines.append("  ".join(c.rjust(widths[c]) for c in columns))
        for row in rows:
            lines.append(
                "  ".join(str(row.get(c, "")).rjust(widths[c]) for c in columns)
            )
        lines.append("")
    return "\n".join(lines)


def run_series(args):
    cases = _cases_argument(args.case)
    sections = []
    for case in cases:
        coefficients = series(case, args.which, args.terms)
        sections.append((case, coefficients))
    if args.format == "json":
        payload = [
            {"case": case.key, "which": args.which, "coefficients": coefficients}
            for case, coefficients in sections
        ]
        if len(payload) == 1:
            payload = payload[0]
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(("case", "which", "k", "coefficient"))
        for case, coefficients in sections:
            for k, c in enumerate(coefficients):
                writer.writerow((case.key, args.which, k, c))
        text = buffer.getvalue()
    else:
        lines = []
        for case, coefficients in sections:
            lines.append(f"case {case.key} {args.which}")
            for k, c in enumerate(coefficients):
                lines.append(f"{k:4d}  {c}")
            lines.append("")
        text = "\n".join(lines)
    _emit(text, _resolve_out(args.out))
    return 0


def _sign_grid(max_exponent):
    """Yield (case, symmetry, defect, hairs, engine sign, formula sign) over the grid."""
    triples = list(itertools.product(range(max_exponent + 1), repeat=3))
    for case in ALL_CASES:
        for defect in (0, 2):
            for hairs in triples:
                engine = vertical_reflection_sign(defect, hairs, case)
                formula = vertical_reflection_sign_formula(defect, hairs, case)
                yield case, "reflect", defect, hairs, engine, formula
        for p, q in ((1, 2), (2, 3), (1, 3)):
            symmetry = f"swap({p},{q})"
            for defect in (0, 1, 2):
                for hairs in triples:
                    engine = edge_swap_sign(defect, hairs, case, p, q)
                    formula = edge_swap_sign_formula(hairs, case, p, q)
                    yield case, symmetry, defect, hairs, engine, formula


def run_signs(args):
    total = 0
    failures = []
    for case, symmetry, defect, hairs, engine, formula in _sign_grid(args.max_exponent):
        total += 1
        if engine != formula:
            failures.append(
                f"FAIL {case.key} {symmetry} defect={defect} hairs={hairs}: "
                f"engine {engine:+d}, formula {formula:+d}"
            )
    lines = failures + [
        f"{total - len(failures)}/{total} cells PASS (k_i <= {args.max_exponent})"
    ]
    _emit("\n".join(lines) + "\n", _resolve_out(args.out))
    return 1 if failures else 0


def run_basis(args):
    case = case_from_key(args.case)
    payload = slice_as_dict(build_slice(case, args.hodge))
    _emit(json.dumps(payload, indent=2) + "\n", _resolve_out(args.out))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="theta-homology",
        description="Exact homology of the two-loop hairy graph complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    keys = [case.key for case in ALL_CASES]

    table = sub.add_parser("table", help="homology rank table per Hodge degree")
    table.add_argument("--case", default="all", choices=keys + ["all"])
    table.add_argument(
        "--max-hodge",
        type=_int_in(1, HODGE_CAP),
        default=23,
        help=f"largest Hodge degree t, 1..{HODGE_CAP} (default %(default)s)",
    )
    table.add_argument(
        "--mode", default="crosscheck", choices=["bruteforce", "closedform", "crosscheck"]
    )
    table.add_argument("--format", default="text", choices=["text", "csv", "json"])

    ser = sub.add_parser("series", help="generating function coefficients")
    ser.add_argument("--case", default="all", choices=keys + ["all"])
    ser.add_argument("--which", default="h0", choices=["h0", "h1", "chi"])
    ser.add_argument(
        "--terms",
        type=_int_in(0, TERMS_CAP),
        default=23,
        help=f"highest coefficient index, 0..{TERMS_CAP} (default %(default)s)",
    )
    ser.add_argument("--format", default="text", choices=["text", "csv", "json"])

    sig = sub.add_parser("signs", help="symmetry sign verification grid")
    sig.add_argument(
        "--max-exponent",
        type=_int_in(0, MAX_EXPONENT_CAP),
        default=6,
        help=f"largest hair count k_i, 0..{MAX_EXPONENT_CAP} (default %(default)s)",
    )

    basis = sub.add_parser("basis", help="JSON dump of one (case, t) slice")
    basis.add_argument("--case", required=True, choices=keys)
    basis.add_argument(
        "--hodge",
        type=_int_in(1, HODGE_CAP),
        required=True,
        help=f"Hodge degree t, 1..{HODGE_CAP}",
    )

    for subparser in (table, ser, sig, basis):
        subparser.add_argument("--out")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "table": run_table,
        "series": run_series,
        "signs": run_signs,
        "basis": run_basis,
    }[args.command]
    try:
        return handler(args)
    except ComplexConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
