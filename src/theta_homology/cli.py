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
Numeric arguments are ASCII integers in a range, which each subcommand's
--help names.  Exit codes: 0 success, 1 a comparison failed, 2 usage error
or unwritable output, 3 internal consistency violation.

Each subcommand handler returns (text, exit status, stderr lines) and writes
nothing; main alone writes the text to stdout, or to --out PATH (a relative
--out lands in $THETA_HOMOLOGY_OUTDIR when that is set), and then prints the
stderr lines.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import re
import sys
from pathlib import Path

from .cases import ALL_CASES, case_from_key
from .complexes import ComplexConsistencyError, build_slice, slice_as_dict
from .genfun import SERIES_NAMES, rank_formula, series
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


def _cases_argument(value):
    if value == "all":
        return list(ALL_CASES)
    return [case_from_key(value)]


def _json(sections):
    """The JSON layout of every subcommand: one section bare, several as a list."""
    payload = sections[0] if len(sections) == 1 else sections
    return json.dumps(payload, indent=2) + "\n"


def _csv(rows):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


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
                                f"MISMATCH {case.key} t={got['t']} {column}: "
                                f"bruteforce {got[column]}, closedform {want[column]}"
                            )
        sections.append((case, rows))

    return _format_table(sections, args.format), 1 if mismatches else 0, mismatches


def _format_table(sections, fmt):
    if fmt == "json":
        return _json([{"case": case.key, "rows": rows} for case, rows in sections])
    if fmt == "csv":
        text = ""
        for case, rows in sections:
            cells = ([row.get(c, "") for c in CSV_COLUMNS] for row in rows)
            block = _csv([CSV_COLUMNS, *cells])
            text += block if len(sections) == 1 else f"# case: {case.key}\n{block}\n"
        return text
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
    sections = [(case, series(case, args.which, args.terms)) for case in cases]
    if args.format == "json":
        text = _json(
            [
                {"case": case.key, "which": args.which, "coefficients": coefficients}
                for case, coefficients in sections
            ]
        )
    elif args.format == "csv":
        rows = [
            (case.key, args.which, k, c)
            for case, coefficients in sections
            for k, c in enumerate(coefficients)
        ]
        text = _csv([("case", "which", "k", "coefficient"), *rows])
    else:
        lines = []
        for case, coefficients in sections:
            lines.append(f"case {case.key} {args.which}")
            for k, c in enumerate(coefficients):
                lines.append(f"{k:4d}  {c}")
            lines.append("")
        text = "\n".join(lines)
    return text, 0, []


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
            # the formula does not read the defect
            formulas = [edge_swap_sign_formula(hairs, case, p, q) for hairs in triples]
            for defect in (0, 1, 2):
                for hairs, formula in zip(triples, formulas):
                    engine = edge_swap_sign(defect, hairs, case, p, q)
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
    return "\n".join(lines) + "\n", 1 if failures else 0, []


def run_basis(args):
    case = case_from_key(args.case)
    return _json([slice_as_dict(build_slice(case, args.hodge))]), 0, []


def _bounded(parser, flag, low, high, what, **kwargs):
    """Add an ASCII integer option in low..high; its help line names the
    range, and any other value exits 2."""

    def parse(text):
        match = re.fullmatch(r"([+-]?)0*([0-9]+)", text)
        if not match:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        # more digits than both bounds is out of range; int() would refuse
        # a string past the interpreter's digit limit, so it is not converted
        sign, digits = match.groups()
        fits = len(digits) <= len(str(max(abs(low), abs(high))))
        value = int(sign + digits) if fits else None
        if value is None or not low <= value <= high:
            shown = sign.lstrip("+") + digits if value is None else value
            raise argparse.ArgumentTypeError(f"must be in {low}..{high}, got {shown}")
        return value

    default = " (default %(default)s)" if "default" in kwargs else ""
    parser.add_argument(flag, type=parse, help=f"{what}, {low}..{high}{default}", **kwargs)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="theta-homology",
        description="Exact homology of the two-loop hairy graph complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    keys = [case.key for case in ALL_CASES]
    any_case = {"default": "all", "choices": keys + ["all"]}
    formats = {"default": "text", "choices": ["text", "csv", "json"]}

    table = sub.add_parser("table", help="homology rank table per Hodge degree")
    table.set_defaults(handler=run_table)
    table.add_argument("--case", **any_case)
    _bounded(table, "--max-hodge", 1, HODGE_CAP, "largest Hodge degree t", default=23)
    table.add_argument(
        "--mode", default="crosscheck", choices=["bruteforce", "closedform", "crosscheck"]
    )
    table.add_argument("--format", **formats)

    ser = sub.add_parser("series", help="generating function coefficients")
    ser.set_defaults(handler=run_series)
    ser.add_argument("--case", **any_case)
    ser.add_argument("--which", default="h0", choices=SERIES_NAMES)
    _bounded(ser, "--terms", 0, TERMS_CAP, "highest coefficient index", default=23)
    ser.add_argument("--format", **formats)

    sig = sub.add_parser("signs", help="symmetry sign verification grid")
    sig.set_defaults(handler=run_signs)
    _bounded(sig, "--max-exponent", 0, MAX_EXPONENT_CAP, "largest hair count k_i", default=6)

    basis = sub.add_parser("basis", help="JSON dump of one (case, t) slice")
    basis.set_defaults(handler=run_basis)
    basis.add_argument("--case", required=True, choices=keys)
    _bounded(basis, "--hodge", 1, HODGE_CAP, "Hodge degree t", required=True)

    for subparser in (table, ser, sig, basis):
        subparser.add_argument("--out")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        result = args.handler(args)
        if isinstance(result, int):  # perfbench/tests stand-ins write their own text
            return result
        text, status, errors = result
        if args.out is None:
            sys.stdout.write(text)
        else:
            path = Path(os.environ.get("THETA_HOMOLOGY_OUTDIR", ""), args.out)
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text)
            except ValueError as exc:  # a NUL byte in the path
                raise OSError(str(exc)) from None
    except ComplexConsistencyError as exc:
        where = ""
        if exc.case is not None and exc.t is not None:
            where = f" (case {exc.case.key}, t={exc.t})"
        print(f"internal consistency error: {exc}{where}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    for line in errors:
        print(line, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
