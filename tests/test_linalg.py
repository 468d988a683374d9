import random
from fractions import Fraction
from itertools import combinations

import pytest

from theta_homology.cases import ALL_CASES
from theta_homology.complexes import build_slice
from theta_homology.linalg import RationalMatrix, is_zero_composition


def dense_rank(rows):
    """Oracle: textbook elimination on dense Fraction rows."""
    rows = [[Fraction(v) for v in row] for row in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    r = 0
    while r < len(rows) and col < ncols:
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col] / rows[r][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        rank += 1
        r += 1
        col += 1
    return rank


def minor_rank(rows):
    """Oracle: largest size of a square minor with nonzero determinant."""
    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        total = Fraction(0)
        for j, head in enumerate(mat[0]):
            if head:
                minor = [row[:j] + row[j + 1:] for row in mat[1:]]
                total += (-1) ** j * head * det(minor)
        return total

    n, m = len(rows), len(rows[0]) if rows else 0
    for size in range(min(n, m), 0, -1):
        for ri in combinations(range(n), size):
            for ci in combinations(range(m), size):
                sub = [[Fraction(rows[i][j]) for j in ci] for i in ri]
                if det(sub):
                    return size
    return 0


def from_rows(rows):
    """Dense list of rows -> RationalMatrix."""
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
    return RationalMatrix(len(rows), len(rows[0]) if rows else 0, entries)


def to_dense(mat):
    return [[mat.entry(i, j) for j in range((mat.cols))] for i in range(mat.rows)]


def test_rank_examples():
    assert from_rows([[1, 2], [2, 4], [3, 6]]).rank() == 1
    assert from_rows([[1, 0], [0, 1]]).rank() == 2
    assert RationalMatrix(3, 5).rank() == 0
    assert RationalMatrix(0, 0).rank() == 0


def test_entry_and_triplets():
    mat = RationalMatrix(2, 3, {(0, 1): 2, (1, 2): -3})
    assert mat.entry(0, 1) == 2
    assert mat.entry(0, 0) == 0
    assert mat.to_triplets() == [(0, 1, 2), (1, 2, -3)]
    with pytest.raises(IndexError):
        mat.entry(2, 0)


def test_zero_entries_dropped():
    mat = RationalMatrix(2, 2, {(0, 0): 0, (1, 1): 5})
    assert mat.to_triplets() == [(1, 1, 5)]


def test_out_of_range_entry_rejected():
    with pytest.raises(ValueError):
        RationalMatrix(2, 2, {(2, 0): 1})


def test_from_columns():
    mat = RationalMatrix.from_columns(3, [{0: 1, 2: 4}, {1: -6}])
    assert mat.rows == 3 and mat.cols == 2
    assert mat.entry(2, 0) == 4
    assert mat.entry(1, 1) == -6


def test_entries_are_integers():
    # entries are ints; an integral Fraction is stored as one
    for value in (Fraction(1, 2), 0.5):
        with pytest.raises(ValueError):
            RationalMatrix(1, 1, {(0, 0): value})
        with pytest.raises(ValueError):
            RationalMatrix.from_columns(1, [{0: value}])
    mat = RationalMatrix(2, 2, {(0, 0): Fraction(6, 3), (1, 0): 1, (1, 1): 3})
    assert mat.entries[0, 0] == 2
    assert type(mat.entry(0, 0)) is int
    assert type(mat.entry(0, 1)) is int
    assert all(type(v) is int for _, _, v in mat.to_triplets())
    assert all(type(v) is int for _, _, v in (mat @ mat).to_triplets())
    assert (mat @ mat).to_triplets() == [(0, 0, 4), (1, 0, 5), (1, 1, 9)]
    # the same rule for indices and dimensions: 0.5 is not truncated to 0
    with pytest.raises(ValueError):
        RationalMatrix(2, 2, {(0.5, 0): 1})
    with pytest.raises(ValueError):
        RationalMatrix(2, 2, {(0, Fraction(3, 2)): 1})
    with pytest.raises(ValueError):
        RationalMatrix.from_columns(2.5, [{0: 1}])
    with pytest.raises(ValueError):
        RationalMatrix(2, 1.5)
    mat = RationalMatrix(Fraction(4, 2), 2.0, {(Fraction(2, 2), 1.0): 7})
    assert (mat.rows, mat.cols) == (2, 2)
    assert type(mat.rows) is int and type(mat.cols) is int
    assert mat.to_triplets() == [(1, 1, 7)]
    assert all(type(x) is int for x in mat.to_triplets()[0])
    # a bool, an infinity, None or a string is no integer anywhere
    for bad in (True, float("inf"), None, "2"):
        for args in ((bad, 3), (3, bad), (3, 3, {(bad, 0): 1}), (3, 3, {(0, bad): 1})):
            with pytest.raises(ValueError):
                RationalMatrix(*args)
        with pytest.raises(ValueError):
            RationalMatrix(3, 3, {(0, 0): bad})
    for two in (2.0, Fraction(4, 2)):
        mat = RationalMatrix(3, two, {(two, 1): two})
        assert mat.cols == 2 and mat.to_triplets() == [(2, 1, 2)]
        assert mat.entry(two, 1) == mat.entry(2, Fraction(2, 2)) == 2
    # entry reads by the same rule: 1.5 is not truncated, True is not row 1
    for bad in (1.5, True, "1", None, float("inf")):
        for i, j in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError):
                mat.entry(i, j)


def test_matmul_and_zero_composition():
    a = from_rows([[1, 2], [3, 4]])
    b = from_rows([[0, 1], [1, 0]])
    assert to_dense(a @ b) == [[2, 1], [4, 3]]
    # columns of c span the kernel of a plus cancellation
    c = from_rows([[2], [-1]])
    d = from_rows([[1, 2]])
    assert is_zero_composition(d, c)
    assert not is_zero_composition(a, c)
    with pytest.raises(ValueError):
        a @ RationalMatrix(3, 1)


def test_augment():
    a = from_rows([[1, 2, 0], [0, 1, 5]])
    stacked = a.augment(from_rows([[7], [8]]))
    assert stacked.cols == 4
    assert stacked.entry(0, 3) == 7
    with pytest.raises(ValueError):
        a.augment(RationalMatrix(3, 1))


def test_rank_invariant_under_transpose_and_scaling():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        mat = RationalMatrix(
            rows,
            cols,
            {
                (i, j): rng.randrange(-3, 4)
                for i in range(rows)
                for j in range(cols)
                if rng.random() < 0.6
            },
        )
        r = mat.rank()
        transpose = {(j, i): v for (i, j), v in mat.entries.items()}
        assert RationalMatrix(cols, rows, transpose).rank() == r
        for factor in (-3, 7):
            scaled = {k: factor * v for k, v in mat.entries.items()}
            assert RationalMatrix(rows, cols, scaled).rank() == r
        zeroed = {k: 0 for k in mat.entries}
        assert RationalMatrix(rows, cols, zeroed).rank() == 0


def test_rank_against_dense_oracle():
    rng = random.Random(20240817)
    for _ in range(60):
        rows = rng.randrange(0, 8)
        cols = rng.randrange(0, 8)
        dense = [
            [rng.randrange(-12, 13) if rng.random() < 0.5 else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        mat = from_rows(dense) if rows else RationalMatrix(0, cols)
        assert mat.rank() == dense_rank(dense)
    # the real differentials; only there does d1 of eo/oe make rank reduce
    # columns, since two of them share a leading row (smallest row index)
    shared = set()
    for case in ALL_CASES:
        for t in range(1, 17):
            s = build_slice(case, t)
            for mat in (s.d1, s.d2):
                assert mat.rank() == dense_rank(to_dense(mat)), (case.key, t)
            leading = {}
            for i, j, _ in s.d1.to_triplets():
                leading.setdefault(j, i)
            if len(set(leading.values())) < len(leading):
                shared.add(case.key)
    assert {"eo", "oe"} <= shared


def test_rank_against_minor_oracle():
    rng = random.Random(99)
    for _ in range(20):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        dense = [
            [rng.randrange(-2, 3) for _ in range(cols)] for _ in range(rows)
        ]
        assert from_rows(dense).rank() == minor_rank(dense)


def test_rank_exactness_near_cancellation():
    # would report rank 1 in floating point
    big = 10**40
    assert from_rows([[big, big], [big, big + 1]]).rank() == 2
    assert from_rows([[7, 3], [14, 6]]).rank() == 1


def test_equality_and_hash():
    a = from_rows([[1, 2], [0, 0]])
    b = RationalMatrix(2, 2, {(0, 0): 1, (0, 1): 2})
    assert a == b
    assert hash(a) == hash(b)
    assert a != RationalMatrix(2, 2, {(0, 0): 1})
