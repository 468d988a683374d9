"""Fixtures shared by the test modules."""

import pytest

from theta_homology import linalg


@pytest.fixture
def reductions(monkeypatch):
    """The column count of every linalg._reduce call the test makes."""
    counts, reduce = [], linalg._reduce

    def counted(columns):
        counts.append(len(columns))
        return reduce(columns)

    monkeypatch.setattr(linalg, "_reduce", counted)
    return counts
