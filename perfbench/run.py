"""Benchmark of theta_homology, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds 25] [--trace 0|1]

Run from the root of a checkout.  Workloads are listed in workloads.py and
described in perfbench/README.md.  The loop is closed, with one client and
one operation at a time: each round runs the workload's whole operation list
in a fresh child interpreter (child.py), and rounds repeat, at least twice,
while the next one is expected to end within S seconds.  Set-up (fresh
interpreter, `import theta_homology.cli`, `build_parser()`) is timed before
every round, and at least five times in all.

With --trace 0 the result carries the end-to-end metrics, from untraced
rounds only.  With --trace 1 untraced and traced rounds alternate, and the
result carries the per-layer metrics of the traced rounds plus the tracing
overhead (traced minus untraced wall time).

Every metric is printed by name with its unit, then a run record (revision,
Python, CPUs, load average at start and end), then one JSON line with
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when every
operation gave its expected output, 1 when any did not, and 2 when the
package cannot be found or run at all.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "theta_homology"

SETUP_PROBES = 5
# A median of one round is no median; two is the least the budget allows.
MIN_ROUNDS = 2
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); "
    "import theta_homology.cli as cli; cli.build_parser()"
)
# Every run must end within 180 s; a round gets what is left of that.
RUN_LIMIT_S = 170

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    units = {}
    for span in workloads.SPANS:
        units[f"{span}_s"] = "s"
        units[f"{span}_total_s"] = "s"
        units[f"{span}_calls"] = "count"
    for counter in workloads.COUNTERS:
        units[counter] = "count"
    units["trace.wall_s"] = "s"
    units["trace.untraced_wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class RoundFailed(Exception):
    """A child process did not produce a result."""


def run_record(started):
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        revision = None
    return {
        "revision": revision,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": started,
        "loadavg_end": list(os.getloadavg()),
    }


def time_setup():
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - start


def run_child(workload, seed, trace, timeout):
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(seed), "1" if trace else "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"child exited {proc.returncode}")
    return json.loads(lines[-1])


def run_rounds(workload, seed, seconds, trace, deadline):
    """Closed loop of rounds; returns (rounds, set-up times).

    With trace, untraced and traced rounds alternate in pairs.  Another round
    (or pair) starts only when the last one suggests it will end within
    `seconds`, after at least MIN_ROUNDS untraced rounds or one pair, so a
    run lasts about `seconds` whatever the round length.  Set-up is timed
    before every round or pair and, if that gives fewer than SETUP_PROBES
    times, after the last: spread over the run, its median does not hinge
    on one moment of a shared machine.
    """
    plan = [False, True] if trace else [False]
    min_steps = 1 if trace else MIN_ROUNDS
    rounds, setup = [], []
    start = time.perf_counter()
    for step in itertools.count(1):
        step_start = time.perf_counter()
        setup.append(time_setup())
        for traced in plan:
            timeout = deadline - time.perf_counter()
            if timeout <= 0:
                raise RoundFailed("out of time")
            result = run_child(workload, seed, traced, timeout)
            result["traced"] = traced
            rounds.append(result)
        now = time.perf_counter()
        if step >= min_steps and now - start + (now - step_start) > seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(time_setup())
    return rounds, setup


def per_layer(traced, untraced):
    """Median over traced rounds of every per-layer metric."""
    samples = {}
    for result in traced:
        for span in workloads.SPANS:
            stats = result["spans"].get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            samples.setdefault(f"{span}_s", []).append(stats["self_s"])
            samples.setdefault(f"{span}_total_s", []).append(stats["total_s"])
            samples.setdefault(f"{span}_calls", []).append(stats["calls"])
        for counter in workloads.COUNTERS:
            samples.setdefault(counter, []).append(result["counts"].get(counter, 0))
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    values["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in untraced)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return values


def report_layers(values, traced_rounds):
    wall = values["trace.wall_s"]
    print(f"per-layer metrics, median of {traced_rounds} traced round(s):")
    print(f"  {'span':28s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s} {'self/wall':>9s}")
    for span in workloads.SPANS:
        calls = values[f"{span}_calls"]
        if calls:
            self_s = values[f"{span}_s"]
            print(
                f"  {span:28s} {calls:9.0f} {values[f'{span}_total_s']:9.4f} "
                f"{self_s:9.4f} {self_s / wall:9.1%}"
            )
    for counter in workloads.COUNTERS:
        print(f"  {counter:28s} {values[counter]:9.0f} count")
    print(
        f"  traced wall {wall:.4f} s, untraced wall {values['trace.untraced_wall_s']:.4f} s, "
        f"tracing overhead {values['trace.overhead_s']:.4f} s"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"no theta_homology package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.perf_counter() + RUN_LIMIT_S
    loadavg_start = list(os.getloadavg())
    try:
        rounds, setup = run_rounds(args.workload, args.seed, args.seconds, args.trace, deadline)
    except (RoundFailed, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for r in rounds:
        for problem in r["problems"]:
            print(f"FAILED {problem}")

    print(f"workload {args.workload}, seed {args.seed}, {len(untraced)} untraced round(s)")
    print("  round wall_s " + " ".join(f"{r['wall_s']:.4f}" for r in untraced))
    e2e = {
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    for name, value in e2e.items():
        n = len(setup) if name == "setup_s" else len(untraced)
        print(f"  {name:12s} {value:10.4f} {END_TO_END[name]:3s} (median of {n})")
    print(f"  {'error_rate':12s} {failed / attempted:10.4f} {'':3s} ({failed}/{attempted} operations)")

    if args.trace:
        layers = per_layer(traced, untraced)
        report_layers(layers, len(traced))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in per_layer_units().items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    print("run " + json.dumps(run_record(loadavg_start)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
