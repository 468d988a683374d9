"""Exact linear algebra for sparse integer matrices.

The differential matrices assembled elsewhere in this package have a handful
of small integer entries per column, and the homology ranks they decide rest
on exact cancellation, so everything here works in int, never floating point.
A matrix is stored column by column, the form in which the differentials are
assembled and reduced; one constructor builds it from its row count and
column maps, through one validating pass.  A rank is certified where it
can be: columns with distinct leading rows (smallest row indices) are
independent, so when their count L meets rows, cols or an upper bound the
caller vouches for, L is the rank, with no elimination (_rank).  Otherwise
the rank is fraction-free column reduction on leading rows, with no pivot
heuristic; nothing but the rank is kept.  rank_modulo(a, b), the rank b
adds to a's column space, is the same rule applied to [a | b], bounded by
rank a + cols b, minus rank a.  No product is built:
nonzero_product_columns sums each product column from the left factor's
columns and keeps only whether it vanishes.  Sizes grow roughly
quadratically in the Hodge degree t: in the hundreds for t <= 40, and about
1400 x 1400 near t = 128 (d1 of case oo at t = 128 is 1430 x 1408).
"""

from __future__ import annotations

from math import gcd
from types import MappingProxyType

from .algebra import _integral


class RationalMatrix:
    """A rows x cols integer matrix, stored as one {row: int} map per column.

    RationalMatrix(rows, columns) is the one constructor: the row count and
    one {row index: value} map per column.  Its one validating pass makes the
    row count, indices and entries follow algebra._integral (the rational 6/3
    is stored as 2; 0.5, True or None raise ValueError), raises ValueError on
    a row index outside the matrix and drops zeros, leaving columns a tuple
    of cols maps.  entries is a read-only {(i, j): int} view built on each
    read.  rank() is the rank over Q; instances are treated as immutable,
    so the first call keeps it.
    """

    __slots__ = ("rows", "cols", "columns", "_rank")

    def __init__(self, rows, columns):
        """The one validating pass (see the class docstring); columns is a
        sequence of {row index: value} maps."""
        rows = _integral(rows, "row count", 0)
        cols = len(columns)
        filled = []
        for j, column in enumerate(columns):
            kept = {}
            for i, value in column.items():
                if type(i) is not int:
                    i = _integral(i, "row index")
                if not 0 <= i < rows:
                    raise ValueError(
                        f"({i}, {j}) is no index of a {rows}x{cols} matrix"
                    )
                if type(value) is not int:
                    value = _integral(value, f"entry at ({i}, {j})")
                if value:
                    kept[i] = value
            filled.append(kept)
        self.rows, self.cols, self.columns = rows, cols, tuple(filled)
        self._rank = None

    @property
    def entries(self):
        """Read-only {(i, j): value} view of the nonzero entries."""
        columns = enumerate(self.columns)
        return MappingProxyType(
            {(i, j): v for j, column in columns for i, v in column.items()}
        )

    def entry(self, i, j):
        if type(i) is not int or type(j) is not int:
            i, j = _integral(i, "row index"), _integral(j, "column index")
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self.columns[j].get(i, 0)

    def rank(self, bound=None):
        """Rank over Q, certified by leading rows where they suffice.

        bound, if given, is an upper bound on the rank that the caller
        vouches for, under the integral rule (algebra._integral, at least 0).
        The first call certifies or reduces the rank (_rank) and keeps it.
        A bound below the rank was false: it raises ValueError.  A bound
        equal to the count of distinct leading rows is believed, so it must
        be a true upper bound.

        >>> RationalMatrix(3, [{0: 2, 2: 1}, {1: -1}]).rank()  # leads 0, 1
        2
        >>> RationalMatrix(2, [{0: 1}, {0: 1, 1: 1}]).rank(bound=2)  # reduced
        2
        """
        # no bound is the bound cols, which no rank exceeds
        bound = self.cols if bound is None else _integral(bound, "rank bound", 0)
        if self._rank is None:
            self._rank = _rank(self.rows, self.columns, bound)
        if self._rank > bound:
            raise ValueError(f"rank bound {bound} is below the rank {self._rank}")
        return self._rank

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.columns == other.columns
        )

    def __repr__(self):
        nonzero = sum(map(len, self.columns))
        return f"RationalMatrix({self.rows}x{self.cols}, {nonzero} nonzero)"


def _rank(rows, columns, bound):
    """The rank of a rows-row matrix's columns, given an upper bound on it.

    L, the count of distinct leading rows of the nonzero columns, is a lower
    bound, since such columns are independent.  If L meets min(rows,
    len(columns), bound) it is the rank; otherwise _reduce(columns) is.
    """
    leads = len({min(column) for column in columns if column})
    if leads == min(rows, len(columns), bound):
        return leads
    return _reduce(columns)


def _reduce(columns):
    """The rank of columns, by fraction-free column reduction.

    While a pivot owns the leading row (smallest row index) of a column,
    that column becomes p*col - q*pivot, p and q being the two entries in
    that row, divided by the gcd of its entries.  A column left nonzero
    becomes the pivot of its leading row; the rank is the pivot count.
    """
    pivots = {}
    for col in columns:
        while col and (lead := min(col)) in pivots:
            pivot = pivots[lead]
            p, q = pivot[lead], col[lead]
            rows = col.keys() | pivot.keys()
            col = {i: p * col.get(i, 0) - q * pivot.get(i, 0) for i in rows}
            g = gcd(*col.values())
            col = {i: v // g for i, v in col.items() if v}
        if col:
            pivots[lead] = col  # lead is min(col), from the loop test
    return len(pivots)


def rank_modulo(a, b):
    """rank [a | b] - rank a, the rank b's columns add to a's column space.

    [a | b] is ranked as rank() ranks a matrix (_rank), with the bound
    rank a + cols b; raises ValueError when the row counts differ.

    >>> a = RationalMatrix(2, [{0: 1}])
    >>> rank_modulo(a, RationalMatrix(2, [{1: 3}]))  # leads 0, 1
    1
    >>> rank_modulo(a, RationalMatrix(2, [{0: 1, 1: 1}]))  # reduced
    1
    """
    if a.rows != b.rows:
        raise ValueError(f"cannot put {a.rows}x{a.cols} beside {b.rows}x{b.cols}")
    rank_a = a.rank()
    return _rank(a.rows, a.columns + b.columns, rank_a + b.cols) - rank_a


def nonzero_product_columns(a, b):
    """Ascending indices j such that a times column j of b is nonzero.

    Each product column is summed from a's columns as in a matrix product,
    exactly, so entries that cancel count as zero; no matrix is built.
    """
    if a.cols != b.rows:
        raise ValueError(f"cannot compose {a.rows}x{a.cols} with {b.rows}x{b.cols}")
    left = a.columns
    nonzero = []
    for j, column in enumerate(b.columns):
        out = {}
        for k, factor in column.items():
            for i, entry in left[k].items():
                out[i] = out.get(i, 0) + entry * factor
        if any(out.values()):
            nonzero.append(j)
    return nonzero


def is_zero_composition(a, b):
    """True iff the product a.b is the zero matrix (computed exactly)."""
    return not nonzero_product_columns(a, b)
