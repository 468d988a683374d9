"""Homology ranks of a Hodge slice, and verification of the closed-form bases.

With d0 = 0 and the complex concentrated in defects 0, 1, 2, the ranks are
pure dimension arithmetic:

    a  = dim H0 = dim C0 - rank d1
    b  = dim H1 = (dim C1 - rank d1) - rank d2
    h2 = dim H2 = dim C2 - rank d2        (expected to vanish)

The graded Euler characteristic carries a global sign fixed by the parity of
the total degree of the defect-0 graphs, chi = +-(dim C0 - dim C1 + dim C2).
homology_ranks reduces nothing where the leading rows certify both ranks
(RationalMatrix.rank), as they do at every t <= 100, where the tests check
it: rank d2 against min(dim C2, dim C1), rank d1 against dim C1 - rank d2,
a bound that d1.d2 = 0 makes sound.

Each case also has an explicit closed-form basis of H0 and H1, families of
symmetrized monomials (or two-term combinations) indexed by congruence
conditions on the exponents; homology_generators enumerates them at a given
Hodge degree as coordinate maps over the symmetrized basis: e2^beta and
Delta e3 e2^beta by the integer product that derives the differentials'
stencils (complexes._orbit_product), one e2 per power, each power built
once per process and kept in a chain per (flavor, seed), and times
e3^gamma, one monomial fixed by every renaming, as a shift of every
exponent by gamma.  homology_basis_report checks, on the slice's own
matrices, that every generator lies in its space, that the H1 ones are
cycles, that there are exactly a (resp. b) of them, and that they stay
independent modulo the boundaries (linalg.rank_modulo, which certifies
rank [d | generators] from leading rows as rank() does: at every t <= 60,
where the tests check it, the report reduces nothing).  No Element is built
unless a problem line needs a generator's text.
"""

from __future__ import annotations

from functools import cache

from .algebra import SYM, _assign, _Frozen, orbit, render_element, symmetrize
from .complexes import ComplexConsistencyError, _hodge_degree, build_slice
from .complexes import _orbit_product
# Not called here: perfbench/child.py's tracer wraps both on this module by name.
from .algebra import basis_coordinates  # noqa: F401
from .complexes import apply_defect1  # noqa: F401
from .genfun import euler_sign
from .linalg import (
    RationalMatrix,
    is_zero_composition,
    nonzero_product_columns,
    rank_modulo,
)


class RankRow(_Frozen):
    """The ranks of one slice: a, b and chi, the dimensions and the ranks."""

    __slots__ = (
        "case", "t", "a", "b", "chi", "dim_c2", "dim_c1", "dim_c0", "rank_d2", "rank_d1"
    )

    def __init__(self, case, t, a, b, chi, dim_c2, dim_c1, dim_c0, rank_d2, rank_d1):
        _assign(self, case, t, a, b, chi, dim_c2, dim_c1, dim_c0, rank_d2, rank_d1)

    @property
    def h2(self):
        return self.dim_c2 - self.rank_d2


def euler_characteristic(slice_):
    """(-1)^d0 (dim C0 - dim C1 + dim C2), d0 the defect-0 total degree.

    The sign is euler_sign(case, t), the one the Euler relation puts on a - b.
    """
    sign = euler_sign(slice_.case, slice_.t)
    return sign * (len(slice_.basis0) - len(slice_.basis1) + len(slice_.basis2))


def homology_ranks(slice_):
    """Rank arithmetic on one slice; raises if d1.d2 != 0.

    d1.d2 = 0 puts the image of d2 inside the kernel of d1, so rank d1 is at
    most dim C1 - rank d2; that bound, passed to d1's rank() once the check
    has passed, lets the leading rows certify rank d1 where they reach it.
    """
    if not is_zero_composition(slice_.d1, slice_.d2):
        raise ComplexConsistencyError(
            f"d1 . d2 != 0 for case {slice_.case} at t = {slice_.t}",
            case=slice_.case,
            t=slice_.t,
        )
    dim2, dim1, dim0 = len(slice_.basis2), len(slice_.basis1), len(slice_.basis0)
    rank_d2 = slice_.d2.rank()
    rank_d1 = slice_.d1.rank(dim1 - rank_d2)
    return RankRow(
        case=slice_.case,
        t=slice_.t,
        a=dim0 - rank_d1,
        b=(dim1 - rank_d1) - rank_d2,
        chi=euler_characteristic(slice_),
        dim_c2=dim2,
        dim_c1=dim1,
        dim_c0=dim0,
        rank_d2=rank_d2,
        rank_d1=rank_d1,
    )


def defect_concentration_check(rows):
    """True iff no degree carries both a and b, and defect 2 never survives."""
    return all(row.a * row.b == 0 and row.h2 == 0 for row in rows)


def _oo_monomials(degree):
    """Pairs e2^beta e3^gamma with gamma even, of the given degree."""
    out = []
    for gamma in range(0, degree // 3 + 1, 2):
        rest = degree - 3 * gamma
        if rest % 2 == 0:
            out.append((rest // 2, gamma))
    return out


# The closed-form families of the two odd-signature cases.  Per case, the
# (k2 parity, k3 residues mod 4) rule of the H0 family (k2+1,k2,k3), the k3
# residue of the single H0 element (k+1,k+1,k), and the rules of the H1
# families (k2,k2,k3) and 2(k2+1,k2+1,k3) - (k2+1,k2,k3+1).
_ODD_FAMILIES = {
    "eo": ((1, (0, 3)), 3, (0, (0,)), (1, (3,))),
    "oe": ((0, (1, 2)), 0, (1, (1,)), (0, (2,))),
}


def _k2_k3(n, rule, gap):
    """(k2, k3) with 2 k2 + k3 = n and k2 >= k3 + gap obeying rule, k3 ascending."""
    parity, residues = rule
    out = []
    for k3 in range(n % 2, n + 1, 2):
        k2 = (n - k3) // 2
        if k2 % 2 == parity and k3 % 4 in residues and k2 >= k3 + gap:
            out.append((k2, k3))
    return out


_E2 = orbit(SYM, (1, 1, 0))  # e2 = x1 x2 + x1 x3 + x2 x3


@cache
def _chain(flavor, seed):
    """[seed e2^beta] for beta = 0, 1, ..., as far as any call has needed.

    Only homology_generators extends the list, one e2 product per new power;
    its elements are never changed, since every generator is a fresh dict.
    """
    return [{seed: 1}]


def homology_generators(case, t):
    """The closed-form H0 and H1 generators at Hodge degree t.

    Returns (h0 generators, h1 generators), coordinate maps {sorted triple:
    coefficient} over the symmetrized monomials of the case's flavor, of
    degree t and t-1:

    >>> from theta_homology.cases import CASE_OE
    >>> homology_generators(CASE_OE, 13)
    ([], [{(5, 5, 2): 2, (5, 4, 3): -1}])
    """
    t = _hodge_degree(t, 1)
    if case.m_odd == case.n_odd:
        # oo: e2^beta e3^gamma; ee: Delta e3 e2^beta e3^gamma; gamma even.  e3^g
        # is the one monomial (g, g, g), fixed by every renaming, so it shifts
        # every exponent by g; chain[beta] = seed e2^beta, each power built by
        # one e2 product the first time any call needs it, and kept
        seed = (0, 0, 0) if case.m_odd else (3, 2, 1)
        chain = _chain(case.flavor, seed)
        out = [], []
        for degree, generators in zip((t, t - 1), out):
            for beta, g in _oo_monomials(degree - sum(seed)):
                while len(chain) <= beta:
                    chain.append(_orbit_product(case.flavor, chain[-1], _E2, "left"))
                power = chain[beta].items()
                generators.append({(a + g, b + g, c + g): v for (a, b, c), v in power})
        return out

    h0_rule, h0_residue, square_rule, pair_rule = _ODD_FAMILIES[case.key]
    h0 = [{(k2 + 1, k2, k3): 1} for k2, k3 in _k2_k3(t - 1, h0_rule, 1)]
    k, rest = divmod(t - 2, 3)
    if rest == 0 and k % 4 == h0_residue:
        h0.append({(k + 1, k + 1, k): 1})
    # one H1 family lives at t = 0 mod 4 and the other at t = 1, never both
    h1 = [{(k2, k2, k3): 1} for k2, k3 in _k2_k3(t - 1, square_rule, 0)]
    h1 += [
        {(k2 + 1, k2 + 1, k3): 2, (k2 + 1, k2, k3 + 1): -1}
        for k2, k3 in _k2_k3(t - 3, pair_rule, 1)
    ]
    return h0, h1


def _render(flavor, generator):
    """A coordinate map as text: render_element of sum c symmetrize(flavor, k)."""
    terms = [symmetrize(flavor, k) * c for k, c in generator.items()]
    return render_element(sum(terms[1:], terms[0]))


def _coordinate_columns(generators, flavor, basis, what, problems):
    """(generator, column in basis) pairs; a generator with a triple outside the
    basis gets a problem naming the largest such triple, and no column."""
    index = {triple: i for i, triple in enumerate(basis)}
    pairs = []
    for g in generators:
        outside = [k for k in g if k not in index]
        if outside:
            problems.append(
                f"{what} generator {_render(flavor, g)} sticks out of the space "
                f"(component {max(outside)})"
            )
        else:
            pairs.append((g, {index[k]: c for k, c in g.items()}))
    return pairs


def homology_basis_report(slice_):
    """Problems of the closed-form basis, checked on the slice's own matrices; a
    generator without a coordinate column gets no cycle verdict."""
    problems = []
    t = slice_.t
    row = homology_ranks(slice_)
    h0, h1 = homology_generators(slice_.case, t)

    if len(h0) != row.a:
        problems.append(f"H0 at t={t}: {len(h0)} generators listed, rank is {row.a}")
    flavor = slice_.case.flavor
    pairs0 = _coordinate_columns(h0, flavor, slice_.basis0, "H0", problems)
    cols0 = RationalMatrix(len(slice_.basis0), [c for _, c in pairs0])
    if rank_modulo(slice_.d1, cols0) != cols0.cols:
        problems.append(f"H0 at t={t}: generators are dependent modulo boundaries")

    if len(h1) != row.b:
        problems.append(f"H1 at t={t}: {len(h1)} generators listed, rank is {row.b}")
    pairs1 = _coordinate_columns(h1, flavor, slice_.basis1, "H1", problems)
    cols1 = RationalMatrix(len(slice_.basis1), [c for _, c in pairs1])
    for j in nonzero_product_columns(slice_.d1, cols1):
        problems.append(f"H1 generator {_render(flavor, pairs1[j][0])} is not a cycle")
    if rank_modulo(slice_.d2, cols1) != cols1.cols:
        problems.append(f"H1 at t={t}: generators are dependent modulo boundaries")
    return problems


def verify_homology_basis(case, t):
    """True iff the closed-form generator lists check out at Hodge degree t."""
    return not homology_basis_report(build_slice(case, t))
