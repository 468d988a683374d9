"""Tests for the command-line front end: output formats, exit codes, the
--out/outdir plumbing, determinism of repeated runs, recorded SHA-256
digests of stdout for a fixed set of runs, and that importing the CLI loads
no fractions module."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_homology import algebra, cli, signs
from theta_homology.algebra import Flavor
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


def test_signs_small_grid(capsys, monkeypatch):
    # the grid calls the engines through cli's names once per cell and the
    # formulas once per (case, symmetry, hairs), since they read no defect:
    # the names the benchmark's sign spans and cell counter wrap
    calls = {}
    for name in (
        "vertical_reflection_sign",
        "vertical_reflection_sign_formula",
        "edge_swap_sign",
        "edge_swap_sign_formula",
    ):

        def counted(*args, _name=name, _f=getattr(cli, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args)

        monkeypatch.setattr(cli, name, counted)
    rc, out, _ = run(capsys, ["signs", "--max-exponent", "2"])
    assert rc == 0
    # 4 cases x (2 reflection defects + 3 swaps x 3 defects) x 27 triples:
    # 216 reflection cells and 972 swap cells, 324 swap formulas
    assert out == "1188/1188 cells PASS (k_i <= 2)\n"
    assert calls == {
        "vertical_reflection_sign": 216,
        "vertical_reflection_sign_formula": 216,
        "edge_swap_sign": 972,
        "edge_swap_sign_formula": 324,
    }


def assert_mutants_fail_the_grid(capsys, monkeypatch, mutants):
    """Each (name in signs, mutant, cells passed, first FAIL line) makes
    `signs --max-exponent 3` exit 1 with one FAIL line per failed cell.
    _layout's memo is emptied around each mutant, so a layout derived
    through a mutant is neither kept nor one derived before it read."""
    layout = signs._layout
    for name, mutant, passed, first_failure in mutants:
        with monkeypatch.context() as patch:
            patch.setattr(signs, name, mutant)
            layout.cache_clear()
            rc, out, _ = run(capsys, ["signs", "--max-exponent", "3"])
        layout.cache_clear()
        lines = out.splitlines()
        assert rc == 1
        assert lines[0] == first_failure
        assert lines[-1] == f"{passed}/2816 cells PASS (k_i <= 3)"
        assert len(lines) == 2816 - passed + 1
        assert all(line.startswith("FAIL ") for line in lines[:-1])


def test_signs_grid_checks_the_algebra_rules(capsys, monkeypatch):
    # the formula side of the grid is algebra._act and algebra.mirror_sign
    # themselves, so dropping their odd-flavor term must fail cells
    def commuting(flavor):
        return Flavor(False, flavor.antisymmetric)

    mutants = (
        (
            "_act",
            lambda flavor, perm, mono: algebra._act(commuting(flavor), perm, mono),
            2432,
            "FAIL eo swap(1,2) defect=0 hairs=(1, 1, 0): engine -1, formula +1",
        ),
        (
            "mirror_sign",
            lambda flavor, mono: algebra.mirror_sign(commuting(flavor), mono),
            2688,
            "FAIL eo reflect defect=0 hairs=(0, 0, 2): engine -1, formula +1",
        ),
    )
    assert_mutants_fail_the_grid(capsys, monkeypatch, mutants)


def test_signs_grid_catches_engine_faults(capsys, monkeypatch):
    # the engine side of the grid: segments wrongly taken as even when
    # _layout reads the parities, a reflection head sign that ignores the
    # junction pair, the swap's sign without its range-pair term, or the
    # reflection's without its per-edge exchanges, must fail cells
    token_parity, layout = signs.token_parity, signs._layout

    def junction_pair_ignored(defect, case):
        found = layout(defect, case)
        if token_parity(("junction",), case):
            return found._replace(reflect=-found.reflect)
        return found

    mutants = (
        (
            "token_parity",
            lambda token, case: 0 if token[0] == "seg" else token_parity(token, case),
            1920,
            "FAIL ee reflect defect=0 hairs=(0, 0, 1): engine +1, formula -1",
        ),
        (
            "_layout",
            junction_pair_ignored,
            2560,
            "FAIL oo reflect defect=0 hairs=(0, 0, 0): engine -1, formula +1",
        ),
        (
            "_block_permutation_sign",
            lambda sign, ranges: sign,
            2432,
            "FAIL eo swap(1,2) defect=0 hairs=(1, 1, 0): engine +1, formula -1",
        ),
        (
            "_involution_sign",
            lambda sign, b, seg, hairs: sign,
            2624,
            "FAIL ee reflect defect=0 hairs=(0, 0, 1): engine +1, formula -1",
        ),
    )
    assert_mutants_fail_the_grid(capsys, monkeypatch, mutants)


def test_warm_signs_grid_walks_no_permutation(capsys):
    # every head sign is counted once per (defect, parity case), inside
    # _layout's memo, and no permutation is walked: a cold grid derives the
    # 12 layouts and a warm one none, whatever the hair counts
    signs._layout.cache_clear()
    for misses in (12, 0):
        before = signs._layout.cache_info().misses
        assert run(capsys, ["signs", "--max-exponent", "3"]) == (
            0,
            "2816/2816 cells PASS (k_i <= 3)\n",
            "",
        )
        assert signs._layout.cache_info().misses - before == misses
    assert signs._layout.cache_info().currsize == 12


def test_usage_errors_exit_2(capsys):
    for argv in (
        [],
        ["table", "--case", "xx"],
        ["table", "--max-hodge", "0"],
        ["basis", "--case", "oo"],
        ["basis", "--case", "oo", "--hodge", "0"],
        ["series", "--terms", "-1"],
        # integers are ASCII: int() would take these as 10, 3 and 7
        ["table", "--max-hodge", "1_0"],
        ["table", "--max-hodge", "\u0663"],
        ["basis", "--case", "oo", "--hodge", " 7"],
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
    # parse only, never main(): a grid or table at or past the cap runs for
    # minutes.  A Hodge degree is at least 1, a count at least 0; both ends
    # parse, one past either exits 2, and the subcommand's --help names both
    low = 1 if "hodge" in dest else 0
    parser = cli.build_parser()
    for value in (low, cap):
        assert getattr(parser.parse_args(argv + [str(value)]), dest) == value
    for value in (low - 1, cap + 1):
        with pytest.raises(SystemExit) as info:
            parser.parse_args(argv + [str(value)])
        assert info.value.code == 2
        assert f"must be in {low}..{cap}, got {value}\n" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        parser.parse_args([argv[0], "--help"])
    assert info.value.code == 0
    assert f"{low}..{cap}" in capsys.readouterr().out


# argument lists for the robustness test: a subcommand, then up to four
# options, each one of its own with one of its values, or any option with
# any token, or a loose token.  Numbers are small valid ones, or one past a
# cap, or far past them all: 13 is still a valid Hodge degree and 201 a
# valid --terms, so no slice above t = 13 runs.  Junk has no "/", so every
# --out stays in its directory, and no control character or surrogate, which
# a shell cannot pass; a NUL byte, which only a caller of main can pass, is
# one of the --out values
SMALL_NUMBERS = st.integers(-2, 6).map(str)
CAP_NUMBERS = st.sampled_from(
    (cli.MAX_EXPONENT_CAP + 1, cli.HODGE_CAP + 1, cli.TERMS_CAP + 1, 10**30)
).map(str)
JUNK = st.text(
    st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="/"), max_size=6
)
VALUES = {
    "--case": st.sampled_from(("all", "oo", "ee", "eo", "oe")),
    "--mode": st.sampled_from(("bruteforce", "closedform", "crosscheck")),
    "--format": st.sampled_from(("text", "csv", "json")),
    "--which": st.sampled_from(("h0", "h1", "chi")),
    "--max-hodge": SMALL_NUMBERS,
    "--hodge": SMALL_NUMBERS,
    "--terms": SMALL_NUMBERS,
    "--max-exponent": SMALL_NUMBERS,
    "--out": st.sampled_from(("out.txt", "sub/out.json", "nul\x00.txt")),
}
OPTIONS_OF = {
    "table": ("--case", "--max-hodge", "--mode", "--format", "--out"),
    "series": ("--case", "--which", "--terms", "--format", "--out"),
    "signs": ("--max-exponent", "--out"),
    "basis": ("--case", "--hodge", "--out"),
}
TOKENS = st.one_of(
    st.sampled_from((*OPTIONS_OF, *VALUES, "--help")), *VALUES.values(), CAP_NUMBERS, JUNK
)


def argument_lists(command):
    own = st.one_of(
        *(st.tuples(st.just(option), VALUES[option]) for option in OPTIONS_OF[command])
    )
    other = st.one_of(
        st.tuples(st.sampled_from(tuple(VALUES)), TOKENS), TOKENS.map(lambda token: (token,))
    )
    # four in five options are the subcommand's own, so that runs get past the parser
    options = st.integers(0, 4).flatmap(lambda n: other if n == 0 else own)
    return st.lists(options, max_size=4).map(
        lambda chosen: [command, *(token for option in chosen for token in option)]
    )


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(argv=st.sampled_from(tuple(OPTIONS_OF)).flatmap(argument_lists))
def test_any_argument_list_ends_in_an_exit_status(argv):
    # whatever the argument list, main ends in 0, 1 or 2 with no traceback;
    # a relative --out lands in a fresh temporary directory
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as outdir:
        with mock.patch.dict(os.environ, {"THETA_HOMOLOGY_OUTDIR": outdir}):
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


def test_long_integer_options_are_read_by_value(capsys):
    # past int()'s 4300-digit limit: leading zeros still pad the value, and
    # a longer value is out of range by its length alone
    padded = "0" * 4300 + "3"
    assert run(capsys, ["table", "--max-hodge", padded]) == run(
        capsys, ["table", "--max-hodge", "3"]
    )
    huge = "9" * 5001
    for argv, message in (
        (["table", "--max-hodge", huge], f"must be in 1..{cli.HODGE_CAP}, got {huge}\n"),
        (["series", "--terms", "-" + huge], f"must be in 0..{cli.TERMS_CAP}, got -{huge}\n"),
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(message)


def test_unwritable_out_exits_2(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    target = tmp_path / "afile" / "x.txt"
    rc, out, err = run(capsys, ["signs", "--max-exponent", "0", "--out", str(target)])
    assert rc == 2
    assert out == ""
    assert err.startswith("cannot write output:") and err.count("\n") == 1


def test_out_with_a_nul_byte_exits_2(tmp_path, capsys, monkeypatch):
    # the path cannot be opened: a ValueError, reported as an unwritable --out
    monkeypatch.setenv("THETA_HOMOLOGY_OUTDIR", str(tmp_path))
    for out in ("a\x00b", "sub\x00dir/a.txt"):
        rc, stdout, err = run(capsys, ["series", "--terms", "1", "--out", out])
        assert (rc, stdout) == (2, "")
        assert err == "cannot write output: embedded null byte\n"
    assert list(tmp_path.iterdir()) == []


def test_crosscheck_mismatch_exit_1(capsys, monkeypatch):
    real = cli.rank_formula
    monkeypatch.setattr(
        cli, "rank_formula", lambda case, which, k: real(case, which, k) + (k == 2)
    )
    rc, _, err = run(capsys, ["table", "--case", "oo", "--max-hodge", "3"])
    assert rc == 1
    assert "MISMATCH" in err and "t=2" in err


def test_mismatch_lines_follow_the_written_output(tmp_path, capsys, monkeypatch):
    # main writes the text first and prints the MISMATCH lines after it; an
    # unwritable --out ends the run before any of them
    real = cli.rank_formula
    monkeypatch.setattr(
        cli, "rank_formula", lambda case, which, k: real(case, which, k) + (k == 2)
    )
    argv = ["table", "--case", "oo", "--max-hodge", "3"]
    _, table, _ = run(capsys, argv + ["--mode", "bruteforce"])
    target = tmp_path / "t.txt"
    rc, out, err = run(capsys, argv + ["--out", str(target)])
    assert (rc, out) == (1, "")
    assert target.read_text() == table
    assert err == (
        "MISMATCH oo t=2 a: bruteforce 1, closedform 2\n"
        "MISMATCH oo t=2 b: bruteforce 0, closedform 1\n"
    )

    (tmp_path / "afile").write_text("")
    unwritable = str(tmp_path / "afile" / "t.txt")
    rc, out, err = run(capsys, argv + ["--out", unwritable])
    assert (rc, out) == (2, "")
    assert err.startswith("cannot write output:") and err.count("\n") == 1


def test_signs_failures_go_to_the_out_file(tmp_path, capsys, monkeypatch):
    def commuting(flavor, perm, mono):
        return algebra._act(Flavor(False, flavor.antisymmetric), perm, mono)

    monkeypatch.setattr(signs, "_act", commuting)
    target = tmp_path / "signs.txt"
    rc, out, err = run(capsys, ["signs", "--max-exponent", "1", "--out", str(target)])
    assert (rc, out, err) == (1, "", "")
    lines = target.read_text().splitlines()
    passed = int(lines[-1].split("/")[0])
    assert lines[-1] == f"{passed}/352 cells PASS (k_i <= 1)"
    assert len(lines) == 352 - passed + 1 > 1
    assert all(line.startswith("FAIL ") for line in lines[:-1])


def test_module_run_exit_status(tmp_path):
    # `python -m theta_homology.cli` passes main's status to sys.exit
    (tmp_path / "afile").write_text("")
    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["signs", "--max-exponent", "0", "--out", str(tmp_path / "afile" / "x.txt")]
    result = subprocess.run(
        [sys.executable, "-m", "theta_homology.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("cannot write output:")


def test_bruteforce_table_reads_no_closed_forms(capsys, monkeypatch):
    def unused(*args):
        raise AssertionError("bruteforce mode read a closed form")

    monkeypatch.setattr(cli, "series", unused)
    monkeypatch.setattr(cli, "rank_formula", unused)
    argv = ["table", "--case", "all", "--max-hodge", "6", "--mode", "bruteforce"]
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (0, "")
    assert out.count("dim_c2") == 4


def test_consistency_error_exit_3(capsys, monkeypatch):
    def broken(case, t):
        raise ComplexConsistencyError("boom", case=case, t=t)

    monkeypatch.setattr(cli, "build_slice", broken)
    rc, out, err = run(capsys, ["table", "--case", "oo", "--max-hodge", "2"])
    assert (rc, out) == (3, "")
    assert err == "internal consistency error: boom (case oo, t=1)\n"

    # a check that is not tied to one slice, such as the equivariance check
    def unplaced(case, t):
        raise ComplexConsistencyError("boom")

    monkeypatch.setattr(cli, "build_slice", unplaced)
    rc, out, err = run(capsys, ["table", "--case", "oo", "--max-hodge", "2"])
    assert (rc, out, err) == (3, "", "internal consistency error: boom\n")


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


def loaded_by_import(*modules):
    """Which of the modules a fresh `python -S` import of the CLI loads; it
    imports every submodule of the package."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = f"import sys, theta_homology.cli; print(sorted(set(sys.modules) & {set(modules)}))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


def test_import_loads_no_fractions():
    # the package is integer-only
    assert loaded_by_import("fractions") == "[]\n"


def test_import_loads_no_dataclasses_inspect_or_typing():
    # the value types are plain classes and namedtuples: every CLI call is a
    # fresh interpreter, and these modules would be paid for in each
    assert loaded_by_import("dataclasses", "inspect", "typing") == "[]\n"


# exit code and SHA-256 of stdout per run, recorded from a tree whose output
# was checked by hand; byte-identical output is the behavioural contract
RECORDED_DIGESTS = [
    ("table --case all --max-hodge 16 --mode bruteforce --format text", 0, "739ca309db01b4735f15a8e76665220f733becf5b7a71540a435f4fc995db570"),
    ("table --case all --max-hodge 16 --mode bruteforce --format csv", 0, "9ddea23bb205f0aa015dbf3a4d32fcac0dc564da931a01ffe42549e0df147898"),
    ("table --case all --max-hodge 16 --mode bruteforce --format json", 0, "827d33bbdacdf338a03549d07aad6760293f6bce5e335fa0d6e0fe5e1e9b2c6c"),
    ("table --case all --max-hodge 16 --mode closedform --format text", 0, "111423bb5891f8bc06b7911caf988e94f29ddb5bc9fb9f61594303c70329897d"),
    ("table --case all --max-hodge 16 --mode closedform --format csv", 0, "59bd390fc2b865ad8812fb6ebc4830b4f5603b813a4720795f4b340c01fd2393"),
    ("table --case all --max-hodge 16 --mode closedform --format json", 0, "40055ad297b847492be774c9b52901d0f24d42f0e80bf2f0c8910d76e021afad"),
    ("table --case all --max-hodge 16 --mode crosscheck --format text", 0, "739ca309db01b4735f15a8e76665220f733becf5b7a71540a435f4fc995db570"),
    ("table --case all --max-hodge 16 --mode crosscheck --format csv", 0, "9ddea23bb205f0aa015dbf3a4d32fcac0dc564da931a01ffe42549e0df147898"),
    ("table --case all --max-hodge 16 --mode crosscheck --format json", 0, "827d33bbdacdf338a03549d07aad6760293f6bce5e335fa0d6e0fe5e1e9b2c6c"),
    ("series --case all --terms 30 --which h0 --format text", 0, "5a9629cad956b51958d8464d411a8fe34170af6a7d075483b0413e0102677a47"),
    ("series --case all --terms 30 --which h0 --format csv", 0, "d260c01b3d1fe5e8581ec30fc91fec5adac944fd3c1b0d15c04b0175404ffd2d"),
    ("series --case all --terms 30 --which h0 --format json", 0, "e19c35ba9959f5b39b3306f6477821478d0bbd0e47a7034b8a3080e054bc97f4"),
    ("series --case all --terms 30 --which h1 --format text", 0, "b3e1cdf778baf1540bc618aea9bacd17875f0980885f9b50612b791c842a9867"),
    ("series --case all --terms 30 --which h1 --format csv", 0, "a4429418fdf5b6425c3358668e0906f612c6958dd83e00917d0cee96c78b8c43"),
    ("series --case all --terms 30 --which h1 --format json", 0, "fe115f22549920dbe7056397ecf09a1c0e51c3d302cf7d40c4ec5f1228d08dc6"),
    ("series --case all --terms 30 --which chi --format text", 0, "60adf95239682403624ee2d6e1f5bf648ce76c1e72daa923e47ff8778bafe7c5"),
    ("series --case all --terms 30 --which chi --format csv", 0, "d6f1e738e06c53de1cd71908d2db1349a8f17f1a4cff9fef32d78b2a27bd75a2"),
    ("series --case all --terms 30 --which chi --format json", 0, "ec0c09c2fc4eb64083d9bec64729fd83db784243abc9f14d5a863945d02e55a1"),
    ("signs --max-exponent 4", 0, "247bf65a55c71126160c7caa9f9e6dafefa27f4f967a4ca0d36fb71e74e543a3"),
    ("basis --case oo --hodge 9", 0, "95d6c6da58059c525f457dc94f73aacc83d5839719ea27271bcc3337348e7bdf"),
    ("basis --case ee --hodge 9", 0, "4712f2b55989666a96d41267610177fe832c0ed69315966643e0f897cd73c73e"),
    ("basis --case eo --hodge 9", 0, "5b974f65c5b39fa6cb604f7d19cf7389827bb949ccf963b4376100fe48a3b974"),
    ("basis --case oe --hodge 9", 0, "aed90b69b529d5d7e4d39ee179546e480c8679d1a25b0da83274e515612445fa"),
]


def test_outputs_match_recorded_digests(capsys, monkeypatch):
    monkeypatch.delenv("THETA_HOMOLOGY_OUTDIR", raising=False)
    for command, want_rc, want_digest in RECORDED_DIGESTS:
        rc, out, _ = run(capsys, command.split())
        assert rc == want_rc, command
        assert hashlib.sha256(out.encode()).hexdigest() == want_digest, command


# SHA-256 of the usage text at 80 columns: stdout of each --help, stderr of
# each usage error; argparse builds both from the choice lists and options
RECORDED_USAGE_DIGESTS = [
    ("--help", "b7da6d378d09fa7c6f2fd8b4ec858e6a5045bc5de3ee39a0327cb4d71ddea95d"),
    ("table --help", "725d113fc3153c3a6deb192f682423d39388bdb86ad94c5bb102f70f9c9235c6"),
    ("series --help", "4b6a00af46e1578262a7be6874d21ac3cfc881acb25019b76583220a72d6a7d2"),
    ("signs --help", "21b7aa7fbdbe20f34c51a6af3eed79fc2a20f3c7f483817d9a38b00701da2570"),
    ("basis --help", "fdec16e899615e3adba569603116af0b8ad5b3f1468c0434f46d1a450fa2edf7"),
    ("", "78835e1dfea181601c55ffd70171bc25f02db3b0eddc0d94a7e14a71e1a5fd37"),
    ("table --case xx", "ee4c02ae32b363721d64f70fae53ca8ea2a4709d6d7662988428c5457e16b76c"),
    ("table --max-hodge 0", "a15c19dff95d8405d2beddff544e734b2efdcd6874fb40923f1a9e4bc2d01b0f"),
    ("basis --case oo", "f6d2a462dde3f28b314daa02d10b0e861cff8237de3d99f0a51af288946dc80e"),
    ("basis --case oo --hodge 0", "f6baa0d627e5758572bcf238b967de775a16f679030426be7cbcab21739eb355"),
    ("series --terms -1", "dfbdb5c033ad68ddc51d0180ff11bc51a9c8f24470131dab6fea4665a77cf7df"),
    ("basis --case all --hodge 3", "ca7fa0db0be23ae6bbc7ecdf62e09958961851758b3ff3861efbb8bc023be019"),
]


@pytest.mark.parametrize(
    "command, want_digest",
    RECORDED_USAGE_DIGESTS,
    ids=[command or "no-arguments" for command, _ in RECORDED_USAGE_DIGESTS],
)
def test_usage_text_matches_recorded_digests(capsys, monkeypatch, command, want_digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(command.split())
    out, err = capsys.readouterr()
    help_run = command.endswith("--help")
    assert info.value.code == (0 if help_run else 2)
    text, other = (out, err) if help_run else (err, out)
    assert other == ""
    assert hashlib.sha256(text.encode()).hexdigest() == want_digest
