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
every admissible triple (_degree, which keeps the last three): C1 is the
whole degree, C0 and C2 are its mirror classes, and d1's projection drops
exactly the degree's mirror-odd triples.  build_slice takes C2 from
defect2_basis, which alone selects the eigenspace, and assembles both
matrices in integers on sorted triples.  The column of e1 times a
symmetrized monomial k is a stencil: at most three entries, in rows
k + e_0, k + e_1 and k + e_2.

All that a flavor's rules say about a sorted triple is read from _rules,
checked and derived once per flavor, on first use.  It first checks on the
exponent parity classes, not per column, that the S3 action is a group
action and commutes with multiplication by e1 on either side.  Then it
walks 100 base triples, each against the same triple shifted by 4, which
must agree.  sign maps the residue key (the exponents mod 4 and which gaps
are 0) to the mirror eigenvalue, or 0 if the triple is not admissible: the
walk of a degree reads one entry per sorted triple.  stencil maps each side
and stencil key (the parities and the gaps clipped at 2) to the stencil
{e_i: coefficient on k + e_i}, derived from the orbit path (_sorted_product
of algebra.orbit and e1: each monomial mu of the orbit moved to mu + e_i with
the odd sign algebra.crossing, only the sorted images kept, re-based at k);
homology builds the closed-form generators with _orbit_product, the same
product on coordinate maps.  In the commuting flavors left and right
multiplication are one map, so one table is checked, derived and filed
under both sides.  _matrix_of reads at most three stencil entries per
column.
_differential is the one statement of each differential's side and scalar;
_matrix_of reads it once per matrix, and apply_defect2 and apply_defect1
read it on Element values: the reference path, which no module calls and
tests compare the matrices with.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .algebra import (
    S3,
    _act,
    _assign,
    _Frozen,
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
from .linalg import RationalMatrix

_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_E1 = dict.fromkeys(_UNIT, 1)  # e1 = x1 + x2 + x3, in either parity


class ComplexConsistencyError(Exception):
    """An assembled complex violates a structural identity (a bug, not bad input).

    case, t, triple (the source basis triple) and component (the image
    monomial) say where it happened; each is None where it does not apply.
    """

    def __init__(self, message, case=None, t=None, triple=None, component=None):
        super().__init__(message)
        self.case, self.t, self.triple, self.component = case, t, triple, component


# The largest Hodge degree a library call takes, so that a huge t raises
# instead of allocating until the process is killed.  It admits every t that
# the CLI (HODGE_CAP) and the tests (up to 1223) ask for.
_MAX_HODGE = 1250


def _hodge_degree(t, least=None):
    """t under the integral rule (algebra._integral), named as a Hodge degree,
    at most _MAX_HODGE."""
    return _integral(t, "Hodge degree t (the number of hairs)", least, _MAX_HODGE)


# The admissible triples of one (flavor, degree), in descending lex order, and
# by_sign, their mirror classes: {mirror eigenvalue: its triples}.
_Degree = namedtuple("_Degree", "basis by_sign")


@functools.lru_cache(maxsize=3)
def _degree(flavor, degree):
    """_Degree of (flavor, degree), kept for the last three: one slice reads
    degrees t-2, t-1 and t, and the next slice reuses two of them.

    The sorted triples are walked in descending lex order, k1 down from the
    degree and k2 down from min(k1, degree - k1) to the least k2 >= k3, so
    every triple visited is sorted; one lookup in _rules(flavor).sign per
    triple gives its mirror eigenvalue, or 0 if it is not admissible.
    """
    table = _rules(flavor).sign
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
    return _Degree(tuple(basis), {sign: tuple(c) for sign, c in by_sign.items()})


def defect2_basis(case, t):
    """Admissible triples of degree t-2 in the defect-2 mirror eigenspace."""
    return _degree(case.flavor, _hodge_degree(t) - 2).by_sign[case.defect2_mirror_sign]


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


class HodgeSlice(_Frozen):
    """One (case, t): the bases of C2, C1 and C0, sorted triples in descending
    lex order, and the matrices of d2 and d1 (RationalMatrix)."""

    __slots__ = ("case", "t", "basis2", "basis1", "basis0", "d2", "d1")

    def __init__(self, case, t, basis2, basis1, basis0, d2, d1):
        _assign(self, case, t, basis2, basis1, basis0, d2, d1)


def _e_sign(flavor, side, e, mu):
    """Sign of e mu (side "left") or mu e ("right"), e a monomial: crossing."""
    if not flavor.odd:
        return 1
    return crossing(e, mu) if side == "left" else crossing(mu, e)


def _stencil_key(triple):
    """(k1, k2, k3 mod 2, min(k1 - k2, 2), min(k2 - k3, 2)) of a sorted triple."""
    k1, k2, k3 = triple
    a, b = k1 - k2, k2 - k3
    return k1 & 1, k2 & 1, k3 & 1, a if a < 2 else 2, b if b < 2 else 2


def _orbit_product(flavor, coords, multiplier, side):
    """coords times an equivariant multiplier on the orbit path, as coordinates.

    coords maps sorted triples to coefficients over the symmetrized monomials
    of flavor, multiplier maps monomials to coefficients.  The orbits of
    distinct sorted triples are disjoint, so coords is the element summing
    a * orbit(flavor, triple) monomial by monomial; _sorted_product keeps
    its product's coordinates.
    """
    element = {}
    for triple, a in coords.items():
        for mu, c in orbit(flavor, triple).items():
            element[mu] = a * c
    return _sorted_product(flavor, element, multiplier, side)


def _sorted_product(flavor, element, multiplier, side):
    """The sorted monomials of element times multiplier on side, each a map
    from monomials to coefficients: each monomial mu of element meets each
    multiplier monomial e with the sign _e_sign on that side; only the
    sorted images, the product's coordinates, are kept, zeros dropped."""
    image = {}
    for mu, c in element.items():
        for e, b in multiplier.items():
            nu = (mu[0] + e[0], mu[1] + e[1], mu[2] + e[2])
            if nu[0] >= nu[1] >= nu[2]:
                image[nu] = image.get(nu, 0) + _e_sign(flavor, side, e, mu) * b * c
    return {nu: c for nu, c in image.items() if c}


_PARITIES = tuple(itertools.product((0, 1), repeat=3))  # the exponent parity classes
# mu + e_i of each parity class mu, for i = 0, 1, 2
_UNIT_SHIFTS = {
    mu: tuple((mu[0] + e[0], mu[1] + e[1], mu[2] + e[2]) for e in _UNIT)
    for mu in _PARITIES
}
# S3's 36 products: sigma tau renames generator j to sigma[tau[j]]
_S3_PRODUCT = {
    (sigma, tau): tuple(sigma[j] for j in tau) for sigma in S3 for tau in S3
}

# One base triple (k3 + b + a, k3 + b, k3) per residue key: k3 mod 4 and each
# gap's residue mod 4, with a gap of 4 standing for the positive gaps of
# residue 0, so these 100 triples cover the keys.  They cover the 32 stencil
# keys too, since a gap of 0 forces equal parities and a gap of 1 different
# ones, and the gaps 2 and 3 are the two parities of a clipped gap 2.
_BASES = tuple(
    (k3 + b + a, k3 + b, k3) for k3 in range(4) for b in range(5) for a in range(5)
)


# What a flavor's rules say about sorted triples, read by key (_rules): sign
# maps the residue key to the mirror eigenvalue if admissible, else 0;
# stencil maps each side to {stencil key: {e_i: coefficient on k + e_i}},
# one dict for both sides in the commuting flavors.
_Rules = namedtuple("_Rules", "sign stencil")


@functools.cache
def _rules(flavor):
    """_Rules of a flavor, checked and derived once, on first use.

    Checks, on every parity class mu in {0,1}^3 and for all sigma, tau in S3
    and i: (a) _act is a group action, sigma(tau mu) = (sigma tau) mu with
    signs; (b) on each side, sigma(e_i mu) = e_sigma(i) sigma(mu) with the
    signs of _act and crossing (mu e_i on the right side), so e1
    multiplication keeps equivariance.  Both signs depend only on the
    exponents' parities, so this covers every monomial.  Both checks read
    _act from one table, built first, over the parity classes and their unit
    shifts (_UNIT_SHIFTS, built at import, which also gives (b)'s targets
    e_sigma(i) sigma(mu)); (a) reads sigma tau from _S3_PRODUCT, S3's 36
    products built at import, and (b) reads _e_sign from one table over the
    sides, the e_i and the parity classes.  In the commuting flavors _e_sign is 1 on both sides, so the two
    sides are one map: (b) and the stencil derivation run for "left" only,
    and stencil["right"] is that same dict.

    Then every base triple is read against the same triple shifted by 4 in
    each coordinate, which keeps both of its keys; if the two disagree,
    ComplexConsistencyError names the key.  sign is keyed by (k1 & 3, k2 & 3,
    k3 & 3, k1 == k2, k2 == k3): is_admissible reads only the _act sign of an
    equal pair, which reads parities, and mirror_sign reads k(k+1)/2 mod 2 of
    each exponent, fixed by k mod 4, in the odd flavors, and the degree's
    parity in the commuting ones.  stencil[side] is keyed by _stencil_key and
    derived at the first base of each key, as the orbit product of e1 and
    that base with each image nu filed under nu - base, both sides from one
    orbit of the base and one of its shift (a sorted image is a
    permutation of the base with one entry raised, so it is base + e_i, i
    the first index of its block of equal entries).  The signs read
    parities, and is_admissible and the stabilizers of k and of k + e_i read
    only whether a gap is 0 or 1, since a gap of 2 or more stays positive
    when one entry is raised.  A check that fails caches nothing.
    """
    # _act on what both checks read: the parity classes and their unit
    # shifts, 20 monomials, so 120 calls
    monomials = set(_PARITIES).union(*_UNIT_SHIFTS.values())
    act = {(sigma, mu): _act(flavor, sigma, mu) for sigma in S3 for mu in monomials}
    for mu, tau in itertools.product(_PARITIES, S3):
        tau_mu, tau_sign = act[tau, mu]
        for sigma in S3:
            image, sign = act[sigma, tau_mu]
            if (image, sign * tau_sign) != act[_S3_PRODUCT[sigma, tau], mu]:
                raise ComplexConsistencyError(
                    f"the S3 action of {flavor} is not a group action on {mu}"
                )
    sides = ("left", "right") if flavor.odd else ("left",)
    # _e_sign of e_i and a parity class mu on each side, all that (b) reads
    e_sign = {
        (side, i, mu): _e_sign(flavor, side, e, mu)
        for side in sides
        for i, e in enumerate(_UNIT)
        for mu in _PARITIES
    }
    rules = _Rules({}, {side: {} for side in sides})
    for side, mu in itertools.product(rules.stencil, _PARITIES):
        for i, mu_e in enumerate(_UNIT_SHIFTS[mu]):
            e_mu_sign = e_sign[side, i, mu]
            for sigma in S3:
                moved, sign = act[sigma, mu_e]
                sigma_mu, mu_sign = act[sigma, mu]
                j = sigma[i]
                sign *= e_mu_sign
                mu_sign *= e_sign[side, j, sigma_mu]
                if (moved, sign) != (_UNIT_SHIFTS[sigma_mu][j], mu_sign):
                    raise ComplexConsistencyError(
                        f"S3 does not commute with {side} multiplication by e1 "
                        f"in {flavor} (parity class {mu}, generator {i + 1})"
                    )
    for base in _BASES:
        k1, k2, k3 = base
        shifted = (k1 + 4, k2 + 4, k3 + 4)
        key = (k1 & 3, k2 & 3, k3 & 3, k1 == k2, k2 == k3)
        values = [
            mirror_sign(flavor, triple) if is_admissible(flavor, triple) else 0
            for triple in (base, shifted)
        ]
        if values[0] != values[1]:
            raise ComplexConsistencyError(
                f"admissibility or the mirror sign in {flavor} differs between "
                f"two triples of residue key {key}"
            )
        rules.sign[key] = values[0]
        key = _stencil_key(base)
        if key in rules.stencil["left"]:
            continue
        orbits = (base, orbit(flavor, base)), (shifted, orbit(flavor, shifted))
        for side, table in rules.stencil.items():
            column, other = (
                {
                    (nu[0] - k[0], nu[1] - k[1], nu[2] - k[2]): c
                    for nu, c in _sorted_product(flavor, element, _E1, side).items()
                }
                for k, element in orbits
            )
            if other != column:
                raise ComplexConsistencyError(
                    f"{side} multiplication by e1 in {flavor} differs between two "
                    f"triples of stencil key {key}"
                )
            table[key] = column
    rules.stencil.setdefault("right", rules.stencil["left"])
    return rules


def _matrix_of(case, t, source, target, defect, dropped=()):
    """Matrix of d2 (defect 2) or d1 (defect 1), assembled in integers.

    A d2 source is taken to lie in C2 (defect2_basis selects it).  Each column
    is the source triple's stencil (_rules) times the differential's scalar.
    An image component outside the target basis is dropped if it is in
    dropped (d1's projection: the mirror-odd triples of degree t); any other
    one raises ComplexConsistencyError.
    """
    side, scale = _differential(case, defect, t - defect)
    stencil = _rules(case.flavor).stencil[side]
    # None: the row of a component that d1's projection drops
    index = dict.fromkeys(dropped)
    index.update(zip(target, range(len(target))))
    row_of = index.get
    columns = []
    for triple in source:
        k1, k2, k3 = triple
        column = {}
        for e, c in stencil[_stencil_key(triple)].items():
            rep = (k1 + e[0], k2 + e[1], k3 + e[2])
            row = row_of(rep)
            if row is not None:
                column[row] = scale * c
            elif rep not in index:
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
    d1 = _matrix_of(case, t, basis1, basis0, 1, _degree(case.flavor, t).by_sign[-1])
    return HodgeSlice(case, t, basis2, basis1, basis0, d2, d1)


def slice_as_dict(s):
    """JSON-ready dict: bases as the slice's own tuples of triples, matrices as
    sorted lists of (row, col, str(int)) tuples; json writes tuples as arrays."""
    text = {}  # one string per distinct value
    d2, d1 = (
        sorted(
            (i, j, text.setdefault(v, str(v)))
            for j, column in enumerate(m.columns)
            for i, v in column.items()
        )
        for m in (s.d2, s.d1)
    )
    return {
        "case": s.case.key,
        "t": s.t,
        "c2": s.basis2,
        "c1": s.basis1,
        "c0": s.basis0,
        "d2": d2,
        "d1": d1,
    }
