"""Exact linear algebra for sparse integer matrices.

The differential matrices assembled elsewhere in this package have a handful
of small integer entries per column, and the homology ranks they decide rest
on exact cancellation, so everything here works in int, never floating point.
Rank is fraction-free column reduction on leading rows, with no pivot
heuristic.  Sizes grow roughly quadratically in the Hodge degree t: in the
hundreds for t <= 40, and about 1400 x 1400 near t = 128 (d1 of case oo at
t = 128 is 1430 x 1408).
"""

from __future__ import annotations

from math import gcd

from .algebra import _integral


class RationalMatrix:
    """A rows x cols integer matrix; entries maps (i, j) to int, zeros dropped.

    Dimensions, indices and entries follow algebra._integral (the rational
    6/3 is stored as 2; 0.5, True or None raise ValueError).
    rank() is the rank over Q.  All operations return new matrices;
    instances are treated as immutable.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        rows = self.rows = _integral(rows, "row count", 0)
        cols = self.cols = _integral(cols, "column count", 0)
        data = {}
        for (i, j), value in (entries or {}).items():
            if type(i) is not int or type(j) is not int:
                i, j = _integral(i, "row index"), _integral(j, "column index")
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"({i}, {j}) is no index of a {rows}x{cols} matrix")
            if type(value) is not int:
                value = _integral(value, f"entry at ({i}, {j})")
            if value:
                data[i, j] = value
        self.entries = data

    @classmethod
    def from_columns(cls, rows, columns):
        """Build from per-column sparse maps {row index: value}."""
        columns = list(columns)
        entries = {
            (i, j): value for j, col in enumerate(columns) for i, value in col.items()
        }
        return cls(rows, len(columns), entries)

    def entry(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self.entries.get((i, j), 0)

    def to_triplets(self):
        """Sorted list of (row, col, value) for the nonzero entries."""
        return [(i, j, v) for (i, j), v in sorted(self.entries.items())]

    def augment(self, other):
        """Horizontal concatenation [self | other]."""
        if self.rows != other.rows:
            raise ValueError("row counts differ")
        entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            entries[i, self.cols + j] = v
        return RationalMatrix(self.rows, self.cols + other.cols, entries)

    def __matmul__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        by_row = {}
        for (j, k), v in other.entries.items():
            by_row.setdefault(j, []).append((k, v))
        product = {}
        for (i, j), a in self.entries.items():
            for k, b in by_row.get(j, ()):
                product[i, k] = product.get((i, k), 0) + a * b
        return RationalMatrix(self.rows, other.cols, product)

    def is_zero(self):
        return not self.entries

    def rank(self):
        """Rank over Q, by fraction-free column reduction in column order.

        While an earlier column owns the leading row (smallest row index) of
        a column, that column becomes p*col - q*pivot, p and q being the two
        entries in that row, divided by the gcd of its entries.  The rank is
        the number of distinct leading rows left.
        """
        columns = {}
        for (i, j), v in self.entries.items():
            columns.setdefault(j, {})[i] = v
        pivots = {}
        for j in sorted(columns):
            col = columns[j]
            while col and (lead := min(col)) in pivots:
                pivot = pivots[lead]
                p, q = pivot[lead], col[lead]
                rows = col.keys() | pivot.keys()
                col = {i: p * col.get(i, 0) - q * pivot.get(i, 0) for i in rows}
                g = gcd(*col.values())
                col = {i: v // g for i, v in col.items() if v}
            if col:
                pivots[min(col)] = col
        return len(pivots)

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self.entries.items()))))

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


def is_zero_composition(a, b):
    """True iff the product a.b is the zero matrix (computed exactly)."""
    return (a @ b).is_zero()
