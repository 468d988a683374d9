import random
from fractions import Fraction
from itertools import combinations

import pytest

from theta_homology import linalg
from theta_homology.cases import ALL_CASES
from theta_homology.complexes import build_slice
from theta_homology.linalg import (
    RationalMatrix,
    is_zero_composition,
    nonzero_product_columns,
    rank_modulo,
)


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
    """Dense list of rows -> RationalMatrix, built from its columns."""
    cols = len(rows[0]) if rows else 0
    columns = [{i: row[j] for i, row in enumerate(rows)} for j in range(cols)]
    return RationalMatrix(len(rows), columns)


def to_dense(mat):
    return [[mat.entry(i, j) for j in range((mat.cols))] for i in range(mat.rows)]


def triplets(mat):
    """Sorted (row, col, value) of the nonzero entries, read from entries."""
    return sorted((i, j, v) for (i, j), v in mat.entries.items())


def reduced_rank(mat):
    """The rank that column reduction gives on mat's columns."""
    return linalg._reduce(mat.columns)


def test_rank_examples():
    assert from_rows([[1, 2], [2, 4], [3, 6]]).rank() == 1
    assert from_rows([[1, 0], [0, 1]]).rank() == 2
    assert RationalMatrix(3, [{}] * 5).rank() == 0
    assert RationalMatrix(0, []).rank() == 0


def test_entry_and_triplets():
    mat = RationalMatrix(2, [{}, {0: 2}, {1: -3}])
    assert mat.entry(0, 1) == 2
    assert mat.entry(0, 0) == 0
    assert triplets(mat) == [(0, 1, 2), (1, 2, -3)]
    with pytest.raises(IndexError):
        mat.entry(2, 0)


def test_zero_entries_dropped():
    mat = RationalMatrix(2, [{0: 0}, {1: 5}])
    assert triplets(mat) == [(1, 1, 5)]


def test_out_of_range_entry_rejected():
    with pytest.raises(ValueError):
        RationalMatrix(2, [{2: 1}, {}])


def test_one_validating_pass():
    # each bad row count, row index or entry is named with its place
    for rows, columns, text in (
        (2, [{0: True}], "entry at (0, 0) must be an integer, got True"),
        (2, [{0: 0.5}], "entry at (0, 0) must be an integer, got 0.5"),
        (2, [{0: None}], "entry at (0, 0) must be an integer, got None"),
        (2, [{0.5: 1}], "row index must be an integer, got 0.5"),
        (
            2,
            [{}, {1: Fraction(3, 2)}],
            "entry at (1, 1) must be an integer, got Fraction(3, 2)",
        ),
        (2, [{2: 1}], "(2, 0) is no index of a 2x1 matrix"),
        (2, [{}, {-1: 1}], "(-1, 1) is no index of a 2x2 matrix"),
        (2, [{}, {2: 1}], "(2, 1) is no index of a 2x2 matrix"),
        (2.5, [{0: 1}], "row count must be an integer, got 2.5"),
        (-1, [{}], "row count must be at least 0, got -1"),
    ):
        with pytest.raises(ValueError) as caught:
            RationalMatrix(rows, columns)
        assert str(caught.value) == text, (rows, columns)


def test_entries_view_matches_the_columns():
    for case in ALL_CASES:
        for t in range(1, 21):
            s = build_slice(case, t)
            for mat in (s.d1, s.d2):
                rows = enumerate(to_dense(mat))
                rebuilt = {(i, j): v for i, r in rows for j, v in enumerate(r) if v}
                assert mat.entries == rebuilt, (case.key, t)
                assert len(mat.columns) == mat.cols
                assert all(0 not in col.values() for col in mat.columns)
    mat = RationalMatrix(2, [{}, {0: 3}])
    with pytest.raises(TypeError):
        mat.entries[0, 0] = 1
    assert mat.columns == ({}, {0: 3})


def test_constructor_reads_columns():
    mat = RationalMatrix(3, [{0: 1, 2: 4}, {1: -6}])
    assert mat.rows == 3 and mat.cols == 2
    assert mat.entry(2, 0) == 4
    assert mat.entry(1, 1) == -6


def test_entries_are_integers():
    # entries are ints; an integral Fraction is stored as one
    for value in (Fraction(1, 2), 0.5):
        with pytest.raises(ValueError):
            RationalMatrix(1, [{0: value}])
    mat = RationalMatrix(2, [{0: Fraction(6, 3), 1: 1}, {1: 3}])
    assert mat.entries[0, 0] == 2
    assert type(mat.entry(0, 0)) is int
    assert type(mat.entry(0, 1)) is int
    assert all(type(v) is int for _, _, v in triplets(mat))
    # mat times mat is [[4, 0], [5, 9]]; [1, -2] times mat is [0, -6], its
    # first column cancelling exactly
    assert nonzero_product_columns(mat, mat) == [0, 1]
    left = RationalMatrix(1, [{0: Fraction(2, 2)}, {0: -2}])
    assert nonzero_product_columns(left, mat) == [1]
    # the same rule for row indices and the row count: 0.5 is not truncated to 0
    with pytest.raises(ValueError):
        RationalMatrix(2, [{0.5: 1}, {}])
    with pytest.raises(ValueError):
        RationalMatrix(2.5, [{0: 1}])
    mat = RationalMatrix(Fraction(4, 2), [{}, {Fraction(2, 2): 7}])
    assert (mat.rows, mat.cols) == (2, 2)
    assert type(mat.rows) is int and type(mat.cols) is int
    assert triplets(mat) == [(1, 1, 7)]
    assert all(type(x) is int for x in triplets(mat)[0])
    # a bool, an infinity, None or a string is no integer anywhere
    for bad in (True, float("inf"), None, "2"):
        for args in ((bad, [{}] * 3), (3, [{bad: 1}, {}, {}]), (3, [{0: bad}, {}, {}])):
            with pytest.raises(ValueError):
                RationalMatrix(*args)
    for two in (2.0, Fraction(4, 2)):
        mat = RationalMatrix(3, [{}, {two: two}])
        assert mat.cols == 2 and triplets(mat) == [(2, 1, 2)]
        assert mat.entry(two, 1) == mat.entry(2, Fraction(2, 2)) == 2
    # entry reads by the same rule: 1.5 is not truncated, True is not row 1
    for bad in (1.5, True, "1", None, float("inf")):
        for i, j in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError):
                mat.entry(i, j)


def test_nonzero_product_columns_and_zero_composition():
    a = from_rows([[1, 2], [3, 4]])
    b = from_rows([[0, 1], [1, 0]])
    assert nonzero_product_columns(a, b) == [0, 1]
    # the column of c spans the kernel of d but not of a
    c = from_rows([[2], [-1]])
    d = from_rows([[1, 2]])
    assert nonzero_product_columns(d, c) == []
    assert is_zero_composition(d, c)
    assert nonzero_product_columns(a, c) == [0]
    assert not is_zero_composition(a, c)
    # only the columns whose entries do not all cancel, in ascending order
    mixed = from_rows([[0, 2, 1, 0, 4], [0, -1, 0, 0, -2]])
    assert nonzero_product_columns(d, mixed) == [2]
    assert nonzero_product_columns(a, mixed) == [1, 2, 4]
    # the shapes must chain, with the message the product check always gave
    for left, right, text in (
        (a, RationalMatrix(3, [{}]), "cannot compose 2x2 with 3x1"),
        (d, RationalMatrix(0, [{}] * 2), "cannot compose 1x2 with 0x2"),
        (RationalMatrix(0, []), c, "cannot compose 0x0 with 2x1"),
    ):
        with pytest.raises(ValueError) as caught:
            nonzero_product_columns(left, right)
        assert str(caught.value) == text
        with pytest.raises(ValueError):
            is_zero_composition(left, right)


def dense_product(a, b, cols):
    """a (n x m) times b (m x cols), dense lists; cols is given since b may
    have no rows."""
    return [
        [sum(x * row[k] for x, row in zip(a_row, b)) for k in range(cols)] for a_row in a
    ]


def random_dense(rng, rows, cols):
    """Integer rows x cols list; about one column in four is all zero."""
    empty = {k for k in range(cols) if rng.random() < 0.25}
    return [
        [
            rng.randrange(-5, 6) if k not in empty and rng.random() < 0.5 else 0
            for k in range(cols)
        ]
        for _ in range(rows)
    ]


def test_column_products_against_dense_oracle():
    # nonzero_product_columns, is_zero_composition and the augmented matrix
    # [a | c] that the basis checks build with the one constructor from the
    # concatenated columns, on column storage, empty columns and 0 x n,
    # n x 0 and 0 x 0 shapes included
    rng = random.Random(1818)
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (0, 0, 3), (1, 1, 1)]
    shapes += [tuple(rng.randrange(0, 6) for _ in range(3)) for _ in range(80)]
    for n, m, p in shapes:
        a_rows, b_rows = random_dense(rng, n, m), random_dense(rng, m, p)
        a = from_rows(a_rows) if n else RationalMatrix(0, [{}] * m)
        b = from_rows(b_rows) if m else RationalMatrix(0, [{}] * p)
        expected = dense_product(a_rows, b_rows, p)
        nonzero = [k for k in range(p) if any(row[k] for row in expected)]
        assert nonzero_product_columns(a, b) == nonzero, (n, m, p)
        assert is_zero_composition(a, b) == (not nonzero)
        c_rows = random_dense(rng, n, rng.randrange(0, 4))
        c = from_rows(c_rows) if n else RationalMatrix(0, [{}] * rng.randrange(0, 4))
        stacked = RationalMatrix(n, a.columns + c.columns)
        assert (stacked.rows, stacked.cols) == (n, m + c.cols)
        assert to_dense(stacked) == [x + y for x, y in zip(a_rows, c_rows)]
        assert stacked.columns == a.columns + c.columns
    # a product whose entries cancel has no nonzero column, and is zero
    kernel = from_rows([[2, 0, 4], [-1, 0, -2]])
    assert nonzero_product_columns(from_rows([[1, 2]]), kernel) == []
    assert is_zero_composition(from_rows([[1, 2]]), kernel)


def test_rank_invariant_under_transpose_and_scaling():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        dense = [
            [rng.randrange(-3, 4) if rng.random() < 0.6 else 0 for j in range(cols)]
            for i in range(rows)
        ]
        mat = from_rows(dense)
        r = mat.rank()
        assert from_rows([list(column) for column in zip(*dense)]).rank() == r
        for factor in (-3, 7):
            assert from_rows([[factor * v for v in row] for row in dense]).rank() == r
        zeroed = [{i: 0 for i in column} for column in mat.columns]
        assert RationalMatrix(rows, zeroed).rank() == 0


def random_dense_matrices():
    """60 seeded (dense rows, matrix) pairs, up to 7 x 7, half the entries 0."""
    rng = random.Random(20240817)
    for _ in range(60):
        rows = rng.randrange(0, 8)
        cols = rng.randrange(0, 8)
        dense = [
            [rng.randrange(-12, 13) if rng.random() < 0.5 else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        yield dense, from_rows(dense) if rows else RationalMatrix(0, [{}] * cols)


def test_rank_against_dense_oracle():
    # rank(), certified or reduced, and the reduction itself
    for dense, mat in random_dense_matrices():
        assert mat.rank() == reduced_rank(mat) == dense_rank(dense)
    # the real differentials; only there does d1 of eo/oe have two columns
    # sharing a leading row (smallest row index), where reduction subtracts
    shared = set()
    for case in ALL_CASES:
        for t in range(1, 17):
            s = build_slice(case, t)
            for mat in (s.d1, s.d2):
                want = dense_rank(to_dense(mat))
                assert mat.rank() == reduced_rank(mat) == want, (case.key, t)
            leading = {}
            for i, j, _ in triplets(s.d1):
                leading.setdefault(j, i)
            if len(set(leading.values())) < len(leading):
                shared.add(case.key)
    assert {"eo", "oe"} <= shared


def test_certified_ranks_equal_the_reduction_on_every_slice(reductions):
    # the bounds homology_ranks passes, none on d2 and dim C1 - rank d2 on
    # d1, let the leading rows certify both ranks, which equal the reduction
    for case in ALL_CASES:
        for t in range(1, 101):
            s = build_slice(case, t)
            rank_d2 = s.d2.rank()
            rank_d1 = s.d1.rank(len(s.basis1) - rank_d2)
            assert reductions == [], (case.key, t)
            assert rank_d2 == reduced_rank(s.d2), (case.key, t)
            assert rank_d1 == reduced_rank(s.d1), (case.key, t)
            reductions.clear()


def test_rank_certificate_and_its_fallback(reductions):
    # distinct leading rows 0, 2, 1 meet min(rows, cols): no reduction
    mat = RationalMatrix(4, [{0: 2, 3: 1}, {2: -1}, {1: 5, 2: 5}])
    assert mat.rank() == 3 and reductions == []
    # two columns leading on row 0: L = 1 falls short of 2, so they reduce
    for columns, rank in (
        ([{0: 1}, {0: 1, 1: 1}], 2),
        ([{0: 1, 1: 2}, {0: 2, 1: 4}], 1),
    ):
        reductions.clear()
        assert RationalMatrix(2, columns).rank() == rank and reductions == [2]
    # L = 2 meets the bound but not min(rows, cols) = 3: only the bound
    # certifies it; the matrix keeps its rank, so rank_modulo reads it, and
    # [mat | b] leads on rows 0, 1, 2, which meets rows = 3: no reduction
    columns = [{0: 1}, {1: 1}, {0: 1, 1: 1}]
    reductions.clear()
    assert RationalMatrix(3, columns).rank() == 2 and reductions == [3]
    reductions.clear()
    mat = RationalMatrix(3, columns)
    assert mat.rank(bound=2) == 2 and reductions == []
    assert rank_modulo(mat, RationalMatrix(3, [{2: 1}, {0: 3}])) == 1
    assert reductions == []
    assert mat.rank() == 2 and reductions == []
    # a bound of 2.0 is the bound 2, by the integral rule
    assert RationalMatrix(3, columns).rank(bound=2.0) == 2


def test_a_false_rank_bound_raises():
    # a bound below the distinct leading rows, so below the rank
    mat = RationalMatrix(3, [{0: 1}, {1: 1}, {2: 1}])
    with pytest.raises(ValueError) as caught:
        mat.rank(bound=2)
    assert str(caught.value) == "rank bound 2 is below the rank 3"
    assert mat.rank(bound=3) == 3
    # one leading row, rank 3: a bound of 2 is caught once reduction finds
    # the rank, and on a later call by the kept rank
    mat = RationalMatrix(3, [{0: 1}, {0: 1, 1: 1}, {0: 1, 2: 1}])
    for bound in (2, 2, 0):
        with pytest.raises(ValueError) as caught:
            mat.rank(bound=bound)
        assert str(caught.value) == f"rank bound {bound} is below the rank 3"
    assert mat.rank() == 3
    # the bound follows algebra._integral: no bool, fraction or negative count
    for bad, text in (
        (True, "rank bound must be an integer, got True"),
        (1.5, "rank bound must be an integer, got 1.5"),
        (-1, "rank bound must be at least 0, got -1"),
        ("2", "rank bound must be an integer, got '2'"),
    ):
        with pytest.raises(ValueError) as caught:
            RationalMatrix(2, [{0: 1}]).rank(bound=bad)
        assert str(caught.value) == text


def assert_rank_modulo_is_its_definition(a, b):
    got = rank_modulo(a, b)
    assert got == RationalMatrix(a.rows, a.columns + b.columns).rank() - a.rank()


def test_rank_modulo_against_its_definition():
    # the dense oracle's inputs, split into a | b: every split of the random
    # ones, and the two ends and the middle of every d1 and d2 at t <= 16
    def split(mat, j):
        return (
            RationalMatrix(mat.rows, mat.columns[:j]),
            RationalMatrix(mat.rows, mat.columns[j:]),
        )

    for _, mat in random_dense_matrices():
        for j in range(mat.cols + 1):
            assert_rank_modulo_is_its_definition(*split(mat, j))
    for case in ALL_CASES:
        for t in range(1, 17):
            s = build_slice(case, t)
            for mat in (s.d1, s.d2):
                for j in {0, mat.cols // 2, mat.cols}:
                    assert_rank_modulo_is_its_definition(*split(mat, j))
    with pytest.raises(ValueError, match="cannot put 2x1 beside 3x1"):
        rank_modulo(RationalMatrix(2, [{0: 1}]), RationalMatrix(3, [{0: 1}]))


def test_rank_modulo_reduces_where_the_leading_rows_fall_short(reductions):
    # [a | b] leads only on row 0, short of min(rows, cols, rank a + cols b)
    # = 2, so its two columns reduce, to the definition's rank 2 - 1
    a = RationalMatrix(2, [{0: 1}])
    b = RationalMatrix(2, [{0: 1, 1: 1}])
    assert rank_modulo(a, b) == 1 and reductions == [2]
    assert rank_modulo(a, b) == RationalMatrix(2, a.columns + b.columns).rank() - 1
    # b inside a's column space: rank 1 of bound 2, so it reduces to 0
    reductions.clear()
    assert rank_modulo(a, RationalMatrix(2, [{0: -3}])) == 0 and reductions == [2]


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
    # equal by value, and unhashable: nothing keys a dict or set by a matrix
    a = from_rows([[1, 2], [0, 0]])
    b = RationalMatrix(2, [{0: 1}, {0: 2}])
    assert a == b
    assert a != RationalMatrix(2, [{0: 1}, {}])
    with pytest.raises(TypeError, match="unhashable type: 'RationalMatrix'"):
        hash(a)
