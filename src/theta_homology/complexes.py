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

Each (flavor, degree) is enumerated once, with the mirror eigenvalue of
every admissible triple (_degree, which keeps the last few): C1 is the whole
degree, C0 and C2 are its mirror classes, and d1's projection drops exactly
the degree's mirror-odd triples.  The walk visits only sorted triples and
reads each one's admissibility and mirror eigenvalue from one per-flavor
table keyed by the exponents mod 4 and which gaps are 0 (_residue_table),
derived on first use from is_admissible and mirror_sign at two
representatives of each of its 100 keys, which must agree.  build_slice
takes C2 from defect2_basis, which alone selects the eigenspace, and
assembles both matrices in integers on sorted triples.  The column of e1
times a symmetrized monomial k is a stencil: at most three entries, in rows
k + e_0, k + e_1 and k + e_2, whose coefficients depend only on the stencil
key of k, its parities and its gaps clipped at 2 (_stencil_table says why).
One table per (flavor, side) maps each of the 32 keys to its stencil.  It is
derived on first use from the orbit path (_orbit_product with e1: each
monomial mu of algebra.orbit moved to mu + e_i with the odd sign
algebra.crossing, only the sorted images kept), at two representatives of
every key, which must agree; homology builds the closed-form generators with
the same product.  _matrix_of reads at most three table entries per column.
Equivariance is checked once per (flavor, side) on the exponent parity
classes (_check_equivariance), not per column, and the group-action law it
rests on once per flavor (_check_group_action).  _differential is the one
statement of each differential's side and scalar; _matrix_of reads it once
per matrix, and apply_defect2 and apply_defect1 read it on Element values:
the reference path, which no module calls and tests compare the matrices
with.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .algebra import (
    S3,
    Triple,
    _act,
    _integral,
    crossing,
    is_admissible,
    mirror,
    mirror_even_part,
    mirror_sign,
    mul_e1,
    orbit,
)

# Not called here: perfbench/child.py's tracer wraps both on this module by name.
from .algebra import basis_coordinates, symmetrize  # noqa: F401
from .cases import ParityCase
from .linalg import RationalMatrix

_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


class ComplexConsistencyError(Exception):
    """An assembled complex violates a structural identity (a bug, not bad input).

    case, t, triple (the source basis triple) and component (the image
    monomial) say where it happened; each is None where it does not apply.
    """

    def __init__(self, message, case=None, t=None, triple=None, component=None):
        super().__init__(message)
        self.case = case
        self.t = t
        self.triple = triple
        self.component = component


def _hodge_degree(t, least=None):
    """t under the integral rule (algebra._integral), named as a Hodge degree."""
    return _integral(t, "Hodge degree t (the number of hairs)", least)


class _Degree(NamedTuple):
    """The admissible triples of one (flavor, degree) and their mirror classes."""

    basis: tuple[Triple, ...]  # descending lex
    by_sign: dict[int, tuple[Triple, ...]]  # mirror eigenvalue -> its triples
    odd: frozenset[Triple]  # the mirror-odd triples: d1's projection drops them


# One base triple (k3 + b + a, k3 + b, k3) per residue key: k3 mod 4 and each
# gap's residue mod 4, with a gap of 4 standing for the positive gaps of
# residue 0, so these 100 triples cover the keys.
_RESIDUE_BASES = tuple(
    (k3 + b + a, k3 + b, k3) for k3 in range(4) for b in range(5) for a in range(5)
)


@functools.cache
def _residue_table(flavor):
    """{residue key: mirror eigenvalue if admissible, else 0} of sorted triples.

    The residue key of (k1, k2, k3) is (k1 & 3, k2 & 3, k3 & 3, k1 == k2,
    k2 == k3), and it decides both values.  is_admissible reads only the _act
    sign of an equal pair, which reads parities.  mirror_sign reads
    k(k+1)/2 mod 2 of each exponent, fixed by k mod 4, in the odd flavors,
    and the degree's parity in the commuting ones.  The table is derived from
    both rules at every base triple and at the same triple shifted by 4 in
    each coordinate; if the two disagree, ComplexConsistencyError names the
    key.
    """
    table = {}
    for base in _RESIDUE_BASES:
        k1, k2, k3 = base
        key = (k1 & 3, k2 & 3, k3 & 3, k1 == k2, k2 == k3)
        values = [
            mirror_sign(flavor, triple) if is_admissible(flavor, triple) else 0
            for triple in (base, (k1 + 4, k2 + 4, k3 + 4))
        ]
        if values[0] != values[1]:
            raise ComplexConsistencyError(
                f"admissibility or the mirror sign in {flavor} differs between "
                f"two triples of residue key {key}"
            )
        table[key] = values[0]
    return table


@functools.lru_cache(maxsize=8)
def _degree(flavor, degree):
    """_Degree of (flavor, degree), kept for the last few: a table run reads
    each degree as C2, C1, C0 and d1's drop set of consecutive slices.

    The sorted triples are walked in descending lex order, k1 down from the
    degree and k2 down from min(k1, degree - k1) to the least k2 >= k3, so
    every triple visited is sorted; one _residue_table lookup per triple
    gives its mirror eigenvalue, or 0 if it is not admissible.
    """
    table = _residue_table(flavor)
    basis = []
    by_sign = {1: [], -1: []}
    for k1 in range(degree, (degree + 2) // 3 - 1, -1):
        rest = degree - k1
        for k2 in range(min(k1, rest), (rest + 1) // 2 - 1, -1):
            k3 = rest - k2
            sign = table[k1 & 3, k2 & 3, k3 & 3, k1 == k2, k2 == k3]
            if sign:
                triple = (k1, k2, k3)
                basis.append(triple)
                by_sign[sign].append(triple)
    return _Degree(
        tuple(basis),
        {sign: tuple(c) for sign, c in by_sign.items()},
        frozenset(by_sign[-1]),
    )


def defect2_basis(case, t):
    """Admissible triples of degree t-2 in the defect-2 mirror eigenspace."""
    degree = _degree(case.flavor, _hodge_degree(t) - 2)
    return degree.by_sign[case.defect2_mirror_sign]


def defect1_basis(case, t):
    """All admissible triples of degree t-1."""
    return _degree(case.flavor, _hodge_degree(t) - 1).basis


def defect0_basis(case, t):
    """Admissible mirror-even triples of degree t (positive, since t >= 1)."""
    t = _hodge_degree(t)
    return _degree(case.flavor, t).by_sign[1] if t >= 1 else ()


def _differential(case, defect, degree):
    """(side of e1, scalar) of d2 or d1 on sources of the given degree: the one
    statement of both differentials, as in the module docstring."""
    if defect == 2:
        return "right", 2 * (-1) ** (case.n_odd + (case.flavor.odd and degree % 2))
    return "left", (-1) ** (case.m_odd and case.n_odd)


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
    side, scalar = _differential(case, 2, f.degree)
    return mul_e1(f, side) * scalar


def apply_defect1(case, f):
    """The defect-1 differential on any element of the case's flavor."""
    _require_flavor(case, f)
    side, scalar = _differential(case, 1, f.degree)
    return mirror_even_part(mul_e1(f, side)) * scalar


@dataclass(frozen=True)
class HodgeSlice:
    case: ParityCase
    t: int
    basis2: tuple[Triple, ...]
    basis1: tuple[Triple, ...]
    basis0: tuple[Triple, ...]
    d2: RationalMatrix
    d1: RationalMatrix


def _e_sign(flavor, side, e, mu):
    """Sign of e mu (side "left") or mu e ("right"), e a monomial: crossing."""
    if not flavor.odd:
        return 1
    return crossing(e, mu) if side == "left" else crossing(mu, e)


@functools.cache
def _check_group_action(flavor):
    """Check, once per flavor, that _act is a group action on every parity
    class mu in {0,1}^3: sigma(tau mu) = (sigma tau) mu with signs, for all
    sigma, tau in S3.  The sign depends only on the exponents' parities, so
    this covers every monomial; no side enters."""
    for mu in itertools.product((0, 1), repeat=3):
        for tau in S3:
            tau_mu, tau_sign = _act(flavor, tau, mu)
            for sigma in S3:
                composed = tuple(sigma[tau[i]] for i in range(3))
                image, sign = _act(flavor, sigma, tau_mu)
                if (image, sign * tau_sign) != _act(flavor, composed, mu):
                    raise ComplexConsistencyError(
                        f"the S3 action of {flavor} is not a group action on {mu}"
                    )


@functools.cache
def _check_equivariance(flavor, side):
    """Check, once per (flavor, side), that e1 multiplication keeps equivariance.

    On every parity class mu in {0,1}^3, for all sigma, tau in S3 and i:
    (a) _act is a group action, sigma(tau mu) = (sigma tau) mu with signs
    (_check_group_action, once per flavor for both sides);
    (b) sigma(e_i mu) = e_sigma(i) sigma(mu) with the signs of _act and
    crossing (mu e_i on the right side).  Both signs depend only on the
    exponents' parities, so this covers every monomial.
    """
    _check_group_action(flavor)
    for mu in itertools.product((0, 1), repeat=3):
        for i, e in enumerate(_UNIT):
            nu = tuple(k + x for k, x in zip(mu, e))
            c = _e_sign(flavor, side, e, mu)
            for sigma in S3:
                moved, sign = _act(flavor, sigma, nu)
                sigma_mu, mu_sign = _act(flavor, sigma, mu)
                sigma_e = _UNIT[sigma[i]]
                target = tuple(k + x for k, x in zip(sigma_mu, sigma_e))
                d = _e_sign(flavor, side, sigma_e, sigma_mu)
                if (moved, c * sign) != (target, d * mu_sign):
                    raise ComplexConsistencyError(
                        f"S3 does not commute with {side} multiplication by e1 "
                        f"in {flavor} (parity class {mu}, generator {i + 1})"
                    )


def _stencil_key(triple):
    """(k1, k2, k3 mod 2, min(k1 - k2, 2), min(k2 - k3, 2)) of a sorted triple."""
    k1, k2, k3 = triple
    a, b = k1 - k2, k2 - k3
    return k1 & 1, k2 & 1, k3 & 1, a if a < 2 else 2, b if b < 2 else 2


# One base triple (k3 + b + a, k3 + b, k3) per valid stencil key: a gap of 0
# forces equal parities and a gap of 1 different ones, and the gaps 2 and 3
# are the two parities of a clipped gap 2, so these 32 triples cover the keys.
_STENCIL_BASES = tuple(
    (k3 + b + a, k3 + b, k3) for k3 in (0, 1) for b in range(4) for a in range(4)
)


def _orbit_product(flavor, coords, multiplier, side):
    """coords times an equivariant multiplier on the orbit path, as coordinates.

    coords maps sorted triples to coefficients over the symmetrized monomials
    of flavor, multiplier maps monomials to coefficients.  Each orbit monomial
    mu meets each multiplier monomial e with the sign _e_sign on that side;
    only the sorted images, the product's coordinates, are kept, zeros dropped.
    """
    image = {}
    for triple, a in coords.items():
        for mu, c in orbit(flavor, triple).items():
            for e, b in multiplier.items():
                nu = (mu[0] + e[0], mu[1] + e[1], mu[2] + e[2])
                if nu[0] >= nu[1] >= nu[2]:
                    term = _e_sign(flavor, side, e, mu) * a * b * c
                    image[nu] = image.get(nu, 0) + term
    return {nu: c for nu, c in image.items() if c}


def _orbit_column(flavor, side, triple):
    """e1 times the symmetrized monomial of a sorted triple, on the orbit path
    (_orbit_product): ((i, coefficient on triple + e_i), ...) with zero
    coefficients omitted.

    A sorted image is a permutation of the triple with one entry raised, so
    it is triple + e_i, i the first index of its block of equal entries.
    """
    image = _orbit_product(flavor, {triple: 1}, dict.fromkeys(_UNIT, 1), side)
    k1, k2, k3 = triple
    column = []
    for i, e in enumerate(_UNIT):
        c = image.get((k1 + e[0], k2 + e[1], k3 + e[2]))
        if c:
            column.append((i, c))
    return tuple(column)


@functools.cache
def _stencil_table(flavor, side):
    """{stencil key: column} for e1 multiplication on the given side.

    A column is _orbit_column's ((i, coefficient on k + e_i), ...).  The key
    (_stencil_key) determines it: the signs of _act and crossing read only
    the exponents' parities (the parity-class argument of
    _check_equivariance), and is_admissible and the stabilizers of k and of
    k + e_i read only whether a gap is 0 or 1, since a gap of 2 or more stays
    positive when one entry is raised.  The table is derived from the orbit
    path at every base triple and at the same triple shifted by 2 in each
    coordinate; if the two disagree, ComplexConsistencyError names the key.
    """
    table = {}
    for base in _STENCIL_BASES:
        key = _stencil_key(base)
        column = _orbit_column(flavor, side, base)
        if _orbit_column(flavor, side, tuple(k + 2 for k in base)) != column:
            raise ComplexConsistencyError(
                f"{side} multiplication by e1 in {flavor} differs between two "
                f"triples of stencil key {key}"
            )
        table[key] = column
    return table


def _matrix_of(case, t, source, target, defect):
    """Matrix of d2 (defect 2) or d1 (defect 1), assembled in integers.

    A d2 source is taken to lie in C2 (defect2_basis selects it).  Each column
    is the source triple's stencil (_stencil_table) times the differential's
    scalar.  An image component outside the target basis is dropped if it is
    a mirror-odd admissible triple of degree t and the matrix is d1 (the
    projection); any other one raises ComplexConsistencyError.
    """
    flavor = case.flavor
    side, scale = _differential(case, defect, t - defect)
    _check_equivariance(flavor, side)
    stencil = _stencil_table(flavor, side)
    index = {triple: i for i, triple in enumerate(target)}
    dropped = _degree(flavor, t).odd if defect == 1 else frozenset()
    columns = []
    for triple in source:
        k1, k2, k3 = triple
        column = {}
        for i, c in stencil[_stencil_key(triple)]:
            e = _UNIT[i]
            rep = (k1 + e[0], k2 + e[1], k3 + e[2])
            row = index.get(rep)
            if row is not None:
                column[row] = scale * c
            elif rep not in dropped:
                raise ComplexConsistencyError(
                    f"image component {rep} of {triple} misses the target basis",
                    case=case,
                    t=t,
                    triple=triple,
                    component=rep,
                )
        columns.append(column)
    return RationalMatrix(len(target), columns)


def build_slice(case, t):
    """Assemble bases and differential matrices for one (case, t)."""
    t = _hodge_degree(t, 1)
    basis2 = defect2_basis(case, t)
    basis1 = defect1_basis(case, t)
    basis0 = defect0_basis(case, t)
    d2 = _matrix_of(case, t, basis2, basis1, 2)
    d1 = _matrix_of(case, t, basis1, basis0, 1)
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
