"""Homology ranks of a Hodge slice, and verification of the closed-form bases.

With d0 = 0 and the complex concentrated in defects 0, 1, 2, the ranks are
pure dimension arithmetic:

    a  = dim H0 = dim C0 - rank d1
    b  = dim H1 = (dim C1 - rank d1) - rank d2
    h2 = dim H2 = dim C2 - rank d2        (expected to vanish)

The graded Euler characteristic carries a global sign fixed by the parity of
the total degree of the defect-0 graphs, chi = +-(dim C0 - dim C1 + dim C2).

Each case also has an explicit closed-form basis of H0 and H1, families of
symmetrized monomials (or two-term combinations) indexed by congruence
conditions on the exponents; homology_generators enumerates them at a given
Hodge degree as coordinate maps over the symmetrized basis, building the
products e2^beta e3^gamma and Delta e2^beta e3^(gamma+1) with the integer
product that derives the differentials' stencils (complexes._orbit_product).
homology_basis_report checks, on the slice's own matrices, that every
generator lies in its space, that the H1 ones are cycles, that there are
exactly a (resp. b) of them, and that they stay independent modulo the
boundaries.  No Element is built unless a problem line needs a generator's
text.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import SYM, orbit, render_element, symmetrize
from .cases import ParityCase
from .complexes import ComplexConsistencyError, _hodge_degree, build_slice
from .complexes import _orbit_product
# Not called here: perfbench/child.py's tracer wraps both on this module by name.
from .algebra import basis_coordinates  # noqa: F401
from .complexes import apply_defect1  # noqa: F401
from .genfun import euler_sign
from .linalg import RationalMatrix, is_zero_composition, nonzero_product_columns


@dataclass(frozen=True)
class RankRow:
    case: ParityCase
    t: int
    a: int
    b: int
    chi: int
    dim_c2: int
    dim_c1: int
    dim_c0: int
    rank_d2: int
    rank_d1: int

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
    """Rank arithmetic on one slice; raises if d1.d2 != 0."""
    if not is_zero_composition(slice_.d1, slice_.d2):
        raise ComplexConsistencyError(
            f"d1 . d2 != 0 for case {slice_.case} at t = {slice_.t}",
            case=slice_.case,
            t=slice_.t,
        )
    dim2, dim1, dim0 = len(slice_.basis2), len(slice_.basis1), len(slice_.basis0)
    rank_d2 = slice_.d2.rank()
    rank_d1 = slice_.d1.rank()
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
        # oo: e2^beta e3^gamma, that is e2^beta (gamma, gamma, gamma); ee:
        # Delta e3 e2^beta e3^gamma, that is e2^beta [gamma+3, gamma+2,
        # gamma+1]; gamma even, and each e2^beta built once, in ascending beta
        lift = (0, 0, 0) if case.m_odd else (3, 2, 1)
        lists = _oo_monomials(t - sum(lift)), _oo_monomials(t - 1 - sum(lift))
        most = max((beta for pairs in lists for beta, _ in pairs), default=0)
        e2, powers = orbit(SYM, (1, 1, 0)), [{(0, 0, 0): 1}]
        while len(powers) <= most:
            powers.append(_orbit_product(SYM, powers[-1], e2, "left"))

        def times(beta, g):
            top = (g + lift[0], g + lift[1], g + lift[2])
            return _orbit_product(SYM, powers[beta], orbit(case.flavor, top), "left")

        return tuple([times(beta, g) for beta, g in pairs] for pairs in lists)

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
    cols0 = tuple(c for _, c in pairs0)
    with_d1 = RationalMatrix(len(slice_.basis0), slice_.d1.columns + cols0)
    if with_d1.rank() != row.rank_d1 + len(cols0):
        problems.append(f"H0 at t={t}: generators are dependent modulo boundaries")

    if len(h1) != row.b:
        problems.append(f"H1 at t={t}: {len(h1)} generators listed, rank is {row.b}")
    pairs1 = _coordinate_columns(h1, flavor, slice_.basis1, "H1", problems)
    cols1 = RationalMatrix(len(slice_.basis1), [c for _, c in pairs1])
    for j in nonzero_product_columns(slice_.d1, cols1):
        problems.append(f"H1 generator {_render(flavor, pairs1[j][0])} is not a cycle")
    with_d2 = RationalMatrix(len(slice_.basis1), slice_.d2.columns + cols1.columns)
    if with_d2.rank() != row.rank_d2 + cols1.cols:
        problems.append(f"H1 at t={t}: generators are dependent modulo boundaries")
    return problems


def verify_homology_basis(case, t):
    """True iff the closed-form generator lists check out at Hodge degree t."""
    return not homology_basis_report(build_slice(case, t))
