"""Tests of the benchmark itself: output gate, tracer, operation counts, config."""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

EXPECTED = json.loads(child.EXPECTED_PATH.read_text())


def _fake_command(text, code=0):
    def handler(args):
        sys.stdout.write(text)
        return code

    return handler


def test_corrupted_table_output_counts_as_failed(monkeypatch):
    monkeypatch.setattr(child.cli, "run_table", _fake_command("t,a,b\n1,0,0\n"))
    result = child.run_round("table_crosscheck", workloads.operations("table_crosscheck"), EXPECTED)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "digest" in result["problems"][0]


def test_nonzero_exit_counts_as_failed(monkeypatch):
    fake = _fake_command(workloads.SIGNS_EXPECTED_OUTPUT, code=1)
    monkeypatch.setattr(child.cli, "run_signs", fake)
    result = child.run_round("signs_grid", workloads.operations("signs_grid"), EXPECTED)
    assert result["failed"] == 1
    assert "exit code 1" in result["problems"][0]


def test_corrupted_signs_summary_counts_as_failed(monkeypatch):
    corrupted = workloads.SIGNS_EXPECTED_OUTPUT.replace("32076/", "32075/")
    monkeypatch.setattr(child.cli, "run_signs", _fake_command(corrupted))
    result = child.run_round("signs_grid", workloads.operations("signs_grid"), EXPECTED)
    assert result["failed"] == 1


def test_corrupted_slice_json_fails_the_gate():
    key, t = "eo", workloads.DEEP_T
    case = child.case_from_key(key)
    output = {
        "a": child.genfun.rank_formula(case, "a", t),
        "b": child.genfun.rank_formula(case, "b", t),
        "h2": 0,
        "text": '{"case": "eo"}',
    }
    assert "digest" in child.check("deep_slices", [key, t], output, EXPECTED)
    output["b"] += 1
    assert "rank_formula" in child.check("deep_slices", [key, t], output, EXPECTED)


def test_verify_gate_expects_the_documented_failures(monkeypatch):
    ops = workloads.operations("verify_bases")
    monkeypatch.setattr(child.homology, "verify_homology_basis", lambda case, t: True)
    assert child.run_round("verify_bases", ops, EXPECTED)["failed"] == 5

    def broken(case, t):
        raise RuntimeError("boom")

    monkeypatch.setattr(child.homology, "verify_homology_basis", broken)
    result = child.run_round("verify_bases", ops, EXPECTED)
    assert result["failed"] == len(ops)
    assert "raised" in result["problems"][0]


def _bindings():
    return [(owner, attribute, getattr(owner, attribute)) for _, owner, attribute, _ in child.layer_targets()]


def test_traced_run_restores_every_binding():
    before = _bindings()
    out = io.StringIO()
    with Tracer(child.layer_targets()) as tracer, redirect_stdout(out):
        code = child.cli.main(["table", "--case", "all", "--max-hodge", "4", "--format", "csv"])
    assert code == 0
    for owner, attribute, original in before:
        assert getattr(owner, attribute) is original, (owner, attribute)
    stats = tracer.summary()
    assert stats["complexes.build_slice"]["calls"] == 16
    assert stats["linalg.rank"]["calls"] == 32
    assert tracer.counts["complexes.columns"] > 0


def test_tracer_restores_after_an_exception():
    module = types.SimpleNamespace(f=lambda: 1 / 0)
    original = module.f
    with pytest.raises(ZeroDivisionError):
        with Tracer([("f", module, "f", None)]):
            module.f()
    assert module.f is original


def test_self_time_excludes_children():
    module = types.SimpleNamespace()
    module.inner = lambda: sum(range(20000))
    module.outer = lambda: [module.inner() for _ in range(3)]
    with Tracer([("outer", module, "outer", None), ("inner", module, "inner", None)]) as tracer:
        module.outer()
    stats = tracer.summary()
    assert stats["outer"]["calls"] == 1 and stats["inner"]["calls"] == 3
    outer, inner = stats["outer"], stats["inner"]
    assert inner["self_s"] == pytest.approx(inner["total_s"])
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"])


def test_traced_spans_match_the_declared_ones():
    wrapped = {span for span, _, _, _ in child.layer_targets()}
    assert wrapped | {"cli.dump"} == set(workloads.SPANS)


def test_table_round_builds_160_slices():
    (argv,) = workloads.operations("table_crosscheck")
    args = child.cli.build_parser().parse_args(argv)
    assert (args.case, args.mode, args.format) == ("all", "crosscheck", "csv")
    assert len(workloads.CASE_KEYS) * args.max_hodge == 160


def test_signs_round_covers_32076_cells():
    (argv,) = workloads.operations("signs_grid")
    k = child.cli.build_parser().parse_args(argv).max_exponent
    assert workloads.SIGNS_CELLS == 4 * 11 * (k + 1) ** 3 == 32076
    # the cell-count formula, against the grid itself at a small bound
    assert sum(1 for _ in child.cli._sign_grid(1)) == 4 * 11 * 2**3


def test_deep_and_verify_operation_counts():
    assert workloads.operations("deep_slices") == [[key, 128] for key in workloads.CASE_KEYS]
    verify = workloads.operations("verify_bases")
    assert len(verify) == 120 and len(set(map(tuple, verify))) == 120


def test_other_seeds_stay_near_128_with_recorded_digests():
    moved = 0
    for seed in range(1, 100):
        ops = workloads.operations("deep_slices", seed)
        assert ops == workloads.operations("deep_slices", seed)
        assert [key for key, _ in ops] == list(workloads.CASE_KEYS)
        assert sum(t for _, t in ops) == 4 * workloads.DEEP_T
        for key, t in ops:
            assert abs(t - workloads.DEEP_T) <= workloads.DEEP_WINDOW
            assert str(t) in EXPECTED["deep_slices"][key]
        moved += any(t != workloads.DEEP_T for _, t in ops)
    assert moved > 50


def test_benchmark_json_matches_what_the_runner_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "signs_grid", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
