"""Record the expected outputs the benchmark checks against.

    python3 perfbench/record.py

rewrites perfbench/expected.json from the package in the checkout's `src/`:
the SHA-256 of the table_crosscheck CSV, and of the `basis`-style slice JSON
for every case and every t that a seed can give deep_slices.  Run it only
when a change is meant to alter those outputs; a speed change must leave the
file as it is.
"""

from __future__ import annotations

import json

import child
import workloads


def main():
    table = child.run_cli(workloads.TABLE_ARGV)
    if table["code"] != 0:
        raise SystemExit(f"the table command exited {table['code']}")
    deep = {}
    window = range(workloads.DEEP_T - workloads.DEEP_WINDOW, workloads.DEEP_T + workloads.DEEP_WINDOW + 1)
    for key in workloads.CASE_KEYS:
        deep[key] = {}
        for t in window:
            output = child.run_deep([key, t], child.no_span)
            deep[key][str(t)] = child.digest(output["text"])
    expected = {"table_crosscheck": child.digest(table["text"]), "deep_slices": deep}
    child.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
