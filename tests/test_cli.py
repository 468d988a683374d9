"""Tests for the command-line front end: output formats, exit codes, the
--out/outdir plumbing, and determinism of repeated runs."""

import csv
import io
import json

import pytest

from theta_homology import cli
from theta_homology.cli import CSV_COLUMNS, main
from theta_homology.complexes import ComplexConsistencyError


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_table_crosscheck_csv(capsys):
    rc, out, err = run(capsys, ["table", "--case", "oo", "--max-hodge", "8", "--format", "csv"])
    assert rc == 0
    assert err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 9
    by_t = {int(r[0]): r for r in rows[1:]}
    assert by_t[6][1:4] == ["2", "0", "2"]
    assert by_t[1][1:4] == ["0", "1", "-1"]


def test_table_all_csv_blocks(capsys):
    rc, out, _ = run(capsys, ["table", "--case", "all", "--max-hodge", "3", "--format", "csv"])
    assert rc == 0
    for key in ("oo", "ee", "eo", "oe"):
        assert f"# case: {key}\n" in out
    assert out.count(",".join(CSV_COLUMNS)) == 4


def test_table_closedform_text(capsys):
    rc, out, _ = run(
        capsys,
        ["table", "--case", "ee", "--max-hodge", "7", "--mode", "closedform"],
    )
    assert rc == 0
    assert out.startswith("case ee\n")
    assert "chi" in out
    assert "dim_c2" not in out  # closed forms carry no matrix data


def test_table_json(capsys):
    rc, out, _ = run(
        capsys,
        ["table", "--case", "eo", "--max-hodge", "5", "--format", "json", "--mode", "bruteforce"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["case"] == "eo"
    assert [row["t"] for row in payload["rows"]] == [1, 2, 3, 4, 5]
    assert payload["rows"][0]["b"] == 1
    assert set(payload["rows"][0]) == set(CSV_COLUMNS)


def test_series_json(capsys):
    rc, out, _ = run(
        capsys,
        ["series", "--case", "oo", "--which", "h0", "--terms", "6", "--format", "json"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload == {"case": "oo", "which": "h0", "coefficients": [0, 0, 1, 0, 1, 0, 2]}


def test_series_all_csv(capsys):
    rc, out, _ = run(
        capsys,
        ["series", "--which", "h1", "--terms", "4", "--format", "csv"],
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["case", "which", "k", "coefficient"]
    assert len(rows) == 1 + 4 * 5
    assert rows[1] == ["oo", "h1", "0", "0"]


def test_basis_json(capsys):
    rc, out, _ = run(capsys, ["basis", "--case", "eo", "--hodge", "1"])
    assert rc == 0
    payload = json.loads(out)
    assert payload == {
        "case": "eo",
        "t": 1,
        "c2": [],
        "c1": [[0, 0, 0]],
        "c0": [],
        "d2": [],
        "d1": [],
    }


def test_signs_small_grid(capsys):
    rc, out, _ = run(capsys, ["signs", "--max-exponent", "2"])
    assert rc == 0
    # 4 cases x (2 reflection defects + 3 swaps x 3 defects) x 27 triples
    assert out == "1188/1188 cells PASS (k_i <= 2)\n"


def test_usage_errors_exit_2(capsys):
    for argv in (
        [],
        ["table", "--case", "xx"],
        ["table", "--max-hodge", "0"],
        ["basis", "--case", "oo"],
        ["basis", "--case", "oo", "--hodge", "0"],
        ["series", "--terms", "-1"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        capsys.readouterr()


@pytest.mark.parametrize(
    "argv, dest, cap",
    [
        (["table", "--max-hodge"], "max_hodge", cli.HODGE_CAP),
        (["basis", "--case", "oo", "--hodge"], "hodge", cli.HODGE_CAP),
        (["series", "--terms"], "terms", cli.TERMS_CAP),
        (["signs", "--max-exponent"], "max_exponent", cli.MAX_EXPONENT_CAP),
    ],
)
def test_numeric_caps(capsys, argv, dest, cap):
    # parse only, never main(): a grid or table at or past the cap runs for minutes
    parser = cli.build_parser()
    assert getattr(parser.parse_args(argv + [str(cap)]), dest) == cap
    with pytest.raises(SystemExit) as info:
        parser.parse_args(argv + [str(cap + 1)])
    assert info.value.code == 2
    assert f"got {cap + 1}" in capsys.readouterr().err


def test_unwritable_out_exits_2(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    target = tmp_path / "afile" / "x.txt"
    rc, out, err = run(capsys, ["signs", "--max-exponent", "0", "--out", str(target)])
    assert rc == 2
    assert out == ""
    assert err.startswith("cannot write output:") and err.count("\n") == 1


def test_crosscheck_mismatch_exit_1(capsys, monkeypatch):
    real = cli.rank_formula
    monkeypatch.setattr(
        cli, "rank_formula", lambda case, which, k: real(case, which, k) + (k == 2)
    )
    rc, _, err = run(capsys, ["table", "--case", "oo", "--max-hodge", "3"])
    assert rc == 1
    assert "MISMATCH" in err and "t=2" in err


def test_consistency_error_exit_3(capsys, monkeypatch):
    def broken(case, t):
        raise ComplexConsistencyError("boom")

    monkeypatch.setattr(cli, "build_slice", broken)
    rc, _, err = run(capsys, ["table", "--case", "oo", "--max-hodge", "2"])
    assert rc == 3
    assert "internal consistency error" in err


def test_out_file_and_outdir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("THETA_HOMOLOGY_OUTDIR", str(tmp_path))
    rc, out, _ = run(
        capsys,
        ["table", "--case", "oe", "--max-hodge", "4", "--format", "csv", "--out", "sub/t.csv"],
    )
    assert rc == 0
    assert out == ""
    written = (tmp_path / "sub" / "t.csv").read_text()
    assert written.startswith(",".join(CSV_COLUMNS))

    absolute = tmp_path / "direct.json"
    rc, out, _ = run(
        capsys,
        ["series", "--case", "ee", "--terms", "3", "--format", "json", "--out", str(absolute)],
    )
    assert rc == 0
    assert json.loads(absolute.read_text())["case"] == "ee"


def test_repeated_runs_identical(capsys):
    argv = ["table", "--case", "all", "--max-hodge", "6", "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
