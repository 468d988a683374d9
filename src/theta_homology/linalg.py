"""Exact linear algebra over Q for sparse matrices.

The differential matrices assembled elsewhere in this package have at most a
handful of nonzero entries per column, and the homology ranks they decide are
integers determined by exact cancellation.  Everything here therefore works
over fractions.Fraction, never floating point, and rank is computed by plain
Gaussian elimination on sparse row dictionaries.  Sizes grow roughly
quadratically in the Hodge degree t: in the hundreds for t <= 40, and about
1400 x 1400 near t = 128 (d1 of case oo at t = 128 is 1430 x 1408).
"""

from __future__ import annotations

from fractions import Fraction


class RationalMatrix:
    """A rows x cols matrix over Q stored as {(i, j): nonzero Fraction}.

    Instances are treated as immutable after construction; all operations
    return new matrices.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=()):
        rows = int(rows)
        cols = int(cols)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        data = {}
        items = entries.items() if hasattr(entries, "items") else entries
        for (i, j), value in items:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            value = Fraction(value)
            if value:
                data[i, j] = value
        self.entries = data

    @classmethod
    def from_columns(cls, rows, columns):
        """Build from per-column sparse maps {row index: value}."""
        columns = list(columns)
        entries = {}
        for j, col in enumerate(columns):
            for i, value in col.items():
                if value:
                    entries[i, j] = Fraction(value)
        return cls(rows, len(columns), entries)

    def entry(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self.entries.get((i, j), Fraction(0))

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
                product[i, k] = product.get((i, k), Fraction(0)) + a * b
        return RationalMatrix(self.rows, other.cols, product)

    def is_zero(self):
        return not self.entries

    def rank(self):
        """Rank over Q, by Gaussian elimination on sparse row dictionaries."""
        by_row = {}
        for (i, j), v in self.entries.items():
            by_row.setdefault(i, {})[j] = v
        active = list(by_row.values())
        rank = 0
        while active:
            # sparsest row as pivot keeps fill-in down; any choice is exact
            pivot_row = min(active, key=len)
            active.remove(pivot_row)
            pivot_col = min(pivot_row)
            pivot_val = pivot_row[pivot_col]
            rank += 1
            remaining = []
            for row in active:
                coeff = row.get(pivot_col)
                if coeff is not None:
                    factor = coeff / pivot_val
                    for col, val in pivot_row.items():
                        new = row.get(col, Fraction(0)) - factor * val
                        if new:
                            row[col] = new
                        elif col in row:
                            del row[col]
                if row:
                    remaining.append(row)
            active = remaining
        return rank

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
