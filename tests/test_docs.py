"""The README's library example and the algebra module's doctests run."""

import doctest
from pathlib import Path

from theta_homology import algebra

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_and_algebra_doctests():
    for result in (
        doctest.testfile(str(README), module_relative=False),
        doctest.testmod(algebra),
    ):
        assert result.attempted > 0
        assert result.failed == 0
