"""Element-algebra oracle for the closed-form generators.

The package builds the generators as coordinate maps with one integer
product (complexes._orbit_product).  Here they are built the generic way,
as Element products of e2, e3 and the Vandermonde element, for the tests to
compare through algebra.basis_coordinates.  Only the index rules of the
families (which exponents each family lists) are shared with the package.
"""

from theta_homology.algebra import (
    ASYM,
    SYM,
    Element,
    Flavor,
    _integral,
    symmetrize,
)
from theta_homology.complexes import _hodge_degree
from theta_homology.homology import _ODD_FAMILIES, _k2_k3, _oo_monomials


def e2():
    """Second elementary symmetric polynomial in the commuting generators."""
    return symmetrize(SYM, (1, 1, 0))


def e3():
    """Third elementary symmetric polynomial in the commuting generators."""
    return symmetrize(SYM, (1, 1, 1))


def vandermonde():
    """(x1-x2)(x1-x3)(x2-x3), the fundamental ASym[x] element [2,1,0]."""
    return symmetrize(ASYM, (2, 1, 0))


def element_power(f, n):
    n = _integral(n, "power", 0)
    result = Element(Flavor(f.flavor.odd, False), 0, {(0, 0, 0): 1})
    for _ in range(n):
        result = result * f
    return result


def _e2_e3(beta, gamma):
    return element_power(e2(), beta) * element_power(e3(), gamma)


def element_generators(case, t):
    """homology.homology_generators as Elements, by repeated Element products."""
    t = _hodge_degree(t, 1)
    if case.m_odd and case.n_odd:
        h0 = [_e2_e3(beta, gamma) for beta, gamma in _oo_monomials(t)]
        return h0, [_e2_e3(beta, gamma) for beta, gamma in _oo_monomials(t - 1)]

    if not case.m_odd and not case.n_odd:
        # Delta e3 e2^beta e3^gamma, gamma even, of total degree `degree`
        def classes(degree):
            return [
                vandermonde() * _e2_e3(beta, gamma + 1)
                for beta, gamma in _oo_monomials(degree - 6)
            ]

        return classes(t), classes(t - 1)

    sym = lambda triple: symmetrize(case.flavor, triple)
    h0_rule, h0_residue, square_rule, pair_rule = _ODD_FAMILIES[case.key]
    h0 = [sym((k2 + 1, k2, k3)) for k2, k3 in _k2_k3(t - 1, h0_rule, 1)]
    k, rest = divmod(t - 2, 3)
    if rest == 0 and k % 4 == h0_residue:
        h0.append(sym((k + 1, k + 1, k)))
    h1 = [sym((k2, k2, k3)) for k2, k3 in _k2_k3(t - 1, square_rule, 0)]
    h1 += [
        sym((k2 + 1, k2 + 1, k3)) * 2 - sym((k2 + 1, k2, k3 + 1))
        for k2, k3 in _k2_k3(t - 3, pair_rule, 1)
    ]
    return h0, h1
