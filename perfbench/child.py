"""One round of a workload in a fresh interpreter: run, time, check, report.

    python3 perfbench/child.py WORKLOAD SEED TRACE

runs every operation of the workload once, with the package imported from
the checkout's `src/`, and prints one JSON object as its last stdout line:
wall and CPU time of the operations, peak RSS, and how many operations were
attempted and failed.  With TRACE=1 the public functions of each layer are
wrapped (see spans.py) and the per-span and counter totals are added.

An operation fails when it raises, exits nonzero, or its output differs from
the recorded expected output (`expected.json`, written by record.py) or from
the documented expected result in workloads.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from theta_homology import algebra, cli, complexes, genfun, homology, linalg  # noqa: E402
from theta_homology.cases import case_from_key  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def no_span(name):
    return contextlib.nullcontext()


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"code": code, "text": out.getvalue()}


def run_deep(op, span):
    key, t = op
    slice_ = complexes.build_slice(case_from_key(key), t)
    row = homology.homology_ranks(slice_)
    payload = complexes.slice_as_dict(slice_)
    with span("cli.dump"):
        text = json.dumps(payload, indent=2)
    return {"a": row.a, "b": row.b, "h2": row.h2, "text": text}


def run_verify(op, span):
    key, t = op
    return {"verified": homology.verify_homology_basis(case_from_key(key), t)}


RUNNERS = {
    "table_crosscheck": lambda op, span: run_cli(op),
    "deep_slices": run_deep,
    "verify_bases": run_verify,
    "signs_grid": lambda op, span: run_cli(op),
}


def check(workload, op, output, expected):
    """None if the operation's output is the expected one, else the problem."""
    if workload in ("table_crosscheck", "signs_grid") and output["code"] != 0:
        return f"exit code {output['code']}"
    if workload == "table_crosscheck":
        if digest(output["text"]) != expected["table_crosscheck"]:
            return "CSV digest differs from the recorded one"
    elif workload == "signs_grid":
        if output["text"] != workloads.SIGNS_EXPECTED_OUTPUT:
            return f"output {output['text'][-80:]!r}"
    elif workload == "deep_slices":
        key, t = op
        case = case_from_key(key)
        want = (genfun.rank_formula(case, "a", t), genfun.rank_formula(case, "b", t))
        if (output["a"], output["b"]) != want:
            return f"(a, b) = {(output['a'], output['b'])}, rank_formula gives {want}"
        if output["h2"] != 0:
            return f"h2 = {output['h2']}"
        recorded = expected["deep_slices"].get(key, {}).get(str(t))
        if recorded is None:
            return "no recorded slice digest"
        if digest(output["text"]) != recorded:
            return "slice JSON digest differs from the recorded one"
    elif workload == "verify_bases":
        want = tuple(op) not in workloads.VERIFY_EXPECTED_FALSE
        if output["verified"] is not want:
            return f"verify_homology_basis gave {output['verified']}, expected {want}"
    return None


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_round(workload, ops, expected, span=no_span):
    """Run and check every operation; returns the round's measurements."""
    outputs = []
    cpu_start = _cpu_s()
    wall_start = time.perf_counter()
    for op in ops:
        try:
            outputs.append(RUNNERS[workload](op, span))
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            outputs.append(exc)
    wall_s = time.perf_counter() - wall_start
    cpu_s = _cpu_s() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    output_bytes = 0
    for op, output in zip(ops, outputs):
        if isinstance(output, Exception):
            problem = f"raised {output!r}"
        else:
            output_bytes += len(output.get("text", "").encode())
            problem = check(workload, op, output, expected)
        if problem:
            problems.append(f"{op}: {problem}")
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": len(problems),
        "problems": problems,
        "output_bytes": output_bytes,
    }


def _add(name, amount_of):
    def counter(counts, args, result):
        counts[name] = counts.get(name, 0) + amount_of(args, result)

    return counter


def layer_targets():
    """(span, owner, attribute, counter) for every binding the tracer wraps.

    Each function is wrapped on the name its caller looks up, so a call from
    cli, homology or complexes is caught wherever it comes from.
    """
    columns = _add("complexes.columns", lambda args, s: s.d2.cols + s.d1.cols)
    basis_dim = _add("complexes.basis_dim", lambda args, basis: len(basis))
    nnz = _add("linalg.nnz", lambda args, rank: len(args[0].entries))
    problems = _add("homology.verify_problems", lambda args, ok: 0 if ok else 1)
    cells = _add("signs.cells", lambda args, sign: 1)
    return [
        ("cli.main", cli, "main", None),
        ("complexes.build_slice", cli, "build_slice", columns),
        ("complexes.build_slice", homology, "build_slice", columns),
        ("complexes.build_slice", complexes, "build_slice", columns),
        ("complexes.basis", complexes, "defect2_basis", basis_dim),
        ("complexes.basis", complexes, "defect1_basis", basis_dim),
        ("complexes.basis", complexes, "defect0_basis", basis_dim),
        ("complexes.apply_defect2", complexes, "apply_defect2", None),
        ("complexes.apply_defect1", complexes, "apply_defect1", None),
        ("complexes.apply_defect1", homology, "apply_defect1", None),
        ("complexes.slice_as_dict", complexes, "slice_as_dict", None),
        ("complexes.slice_as_dict", cli, "slice_as_dict", None),
        ("algebra.symmetrize", complexes, "symmetrize", None),
        ("algebra.symmetrize", homology, "symmetrize", None),
        ("algebra.symmetrize", algebra, "symmetrize", None),
        ("algebra.basis_coordinates", complexes, "basis_coordinates", None),
        ("algebra.basis_coordinates", homology, "basis_coordinates", None),
        ("algebra.mul_e1", complexes, "mul_e1", None),
        ("algebra.mirror", complexes, "mirror", None),
        ("algebra.mirror", complexes, "mirror_even_part", None),
        ("linalg.rank", linalg.RationalMatrix, "rank", nnz),
        ("linalg.compose_check", homology, "is_zero_composition", None),
        ("homology.ranks", cli, "homology_ranks", None),
        ("homology.ranks", homology, "homology_ranks", None),
        ("homology.generators", homology, "homology_generators", None),
        ("homology.verify", homology, "verify_homology_basis", problems),
        ("genfun.series", cli, "series", None),
        ("genfun.rank_formula", cli, "rank_formula", None),
        ("signs.engine", cli, "vertical_reflection_sign", cells),
        ("signs.engine", cli, "edge_swap_sign", cells),
        ("signs.formula", cli, "vertical_reflection_sign_formula", None),
        ("signs.formula", cli, "edge_swap_sign_formula", None),
    ]


def main(argv):
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    if Path(complexes.__file__).resolve().parent != SRC / "theta_homology":
        sys.exit(f"theta_homology was imported from {complexes.__file__}, not {SRC}")
    expected = json.loads(EXPECTED_PATH.read_text())
    ops = workloads.operations(workload, seed)
    if not trace:
        result = run_round(workload, ops, expected)
    else:
        with Tracer(layer_targets()) as tracer:
            result = run_round(workload, ops, expected, tracer.span)
        result["spans"] = tracer.summary()
        result["counts"] = dict(tracer.counts, **{"cli.output_bytes": result["output_bytes"]})
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
