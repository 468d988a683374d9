"""The README's library example, its command lines and the algebra, homology
and signs modules' doctests run."""

import doctest
import shlex
from pathlib import Path

from theta_homology import algebra, cli, homology, signs

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_and_algebra_doctests():
    for result in (
        doctest.testfile(str(README), module_relative=False),
        doctest.testmod(algebra),
        doctest.testmod(homology),
        doctest.testmod(signs),
    ):
        assert result.attempted > 0
        assert result.failed == 0


def test_readme_command_lines(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("THETA_HOMOLOGY_OUTDIR", str(tmp_path))
    section = README.read_text().split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = [line.strip() for line in section.splitlines() if line.startswith("    ")]
    assert len(lines) == 5 and all(line.startswith("theta-homology ") for line in lines)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()
    assert (tmp_path / "slice.json").is_file()
