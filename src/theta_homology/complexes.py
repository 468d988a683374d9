"""The three-term complex of a parity case, sliced by Hodge degree.

For a case and a Hodge degree t (the number of hairs, t >= 1) the slice is

    0 -> C2 --d2--> C1 --d1--> C0 -> 0

graded by defect: C0 holds the graphs with all t hairs on the edges, C1 those
with one hair moved to the left junction, C2 those with a junction hair on
each side.  In the polynomial model the three spaces sit inside the case's
flavor at degrees t-2, t-1, t:

    C2 = the mirror eigenspace of the case's defect-2 sign, degree t-2
         (eigenvalue -1 for the commuting flavors, +1 for the odd ones),
    C1 = the whole degree t-1 part,
    C0 = the mirror-even part of degree t (and degree at least 1).

The differentials move a junction hair onto the edges:

    d2 f = (-1)^(N + |f|) . 2 . f e1        (right multiplication)
    d1 f = (-1)^(m N) . [e1 f]_mirror-even  (left multiplication, projected)

where |f| is the degree mod 2 in the odd flavors and always even in the
commuting ones.  Bases are the admissible symmetrized monomials in
descending lexicographic order, so matrices are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Triple,
    admissible_basis,
    basis_coordinates,
    mirror,
    mirror_even_part,
    mirror_sign,
    mul_e1,
    symmetrize,
)
from .cases import ParityCase
from .linalg import RationalMatrix


class ComplexConsistencyError(Exception):
    """An assembled complex violates a structural identity (a bug, not bad input)."""


def defect2_basis(case, t):
    """Admissible triples of degree t-2 in the defect-2 mirror eigenspace."""
    degree = t - 2
    if degree < 0:
        return ()
    want = case.defect2_mirror_sign
    return tuple(
        triple
        for triple in admissible_basis(case.flavor, degree)
        if mirror_sign(case.flavor, triple) == want
    )


def defect1_basis(case, t):
    """All admissible triples of degree t-1."""
    return tuple(admissible_basis(case.flavor, t - 1))


def defect0_basis(case, t):
    """Admissible mirror-even triples of degree t (positive, since t >= 1)."""
    if t < 1:
        return ()
    return tuple(
        triple
        for triple in admissible_basis(case.flavor, t)
        if mirror_sign(case.flavor, triple) == 1
    )


def _require_flavor(case, f):
    if f.flavor != case.flavor:
        raise ValueError(f"case {case} expects {case.flavor} elements, got {f.flavor}")


def apply_defect2(case, f):
    """The defect-2 differential on an element of C2's eigenspace."""
    _require_flavor(case, f)
    want = case.defect2_mirror_sign
    if mirror(f) != f * want:
        raise ValueError(
            f"element is not in the mirror eigenspace (sign {want:+d}) of case {case}"
        )
    sign = 1
    if case.n_odd:
        sign = -sign
    if case.flavor.odd and f.degree % 2:
        sign = -sign
    return mul_e1(f, "right") * (2 * sign)


def apply_defect1(case, f):
    """The defect-1 differential on any element of the case's flavor."""
    _require_flavor(case, f)
    sign = -1 if (case.m_odd and case.n_odd) else 1
    return mirror_even_part(mul_e1(f, "left")) * sign


@dataclass(frozen=True)
class HodgeSlice:
    case: ParityCase
    t: int
    basis2: tuple[Triple, ...]
    basis1: tuple[Triple, ...]
    basis0: tuple[Triple, ...]
    d2: RationalMatrix
    d1: RationalMatrix


def _matrix_of(case, source, target, differential):
    index = {triple: i for i, triple in enumerate(target)}
    columns = []
    for triple in source:
        image = differential(case, symmetrize(case.flavor, triple))
        column = {}
        for rep, c in basis_coordinates(image).items():
            if rep not in index:
                raise ComplexConsistencyError(
                    f"image component {rep} of {triple} misses the target basis"
                )
            column[index[rep]] = c
        columns.append(column)
    return RationalMatrix.from_columns(len(target), columns)


def build_slice(case, t):
    """Assemble bases and differential matrices for one (case, t)."""
    if int(t) != t or t < 1:
        raise ValueError(f"Hodge degree {t} is not a positive integer (t counts hairs)")
    t = int(t)
    basis2 = defect2_basis(case, t)
    basis1 = defect1_basis(case, t)
    basis0 = defect0_basis(case, t)
    d2 = _matrix_of(case, basis2, basis1, apply_defect2)
    d1 = _matrix_of(case, basis1, basis0, apply_defect1)
    return HodgeSlice(case, t, basis2, basis1, basis0, d2, d1)


def slice_as_dict(s):
    """JSON-ready dict: bases as triples, matrices as [row, col, str(int)] triplets."""
    return {
        "case": s.case.key,
        "t": s.t,
        "c2": [list(tr) for tr in s.basis2],
        "c1": [list(tr) for tr in s.basis1],
        "c0": [list(tr) for tr in s.basis0],
        "d2": [[i, j, str(v)] for i, j, v in s.d2.to_triplets()],
        "d1": [[i, j, str(v)] for i, j, v in s.d1.to_triplets()],
    }
