import random
from fractions import Fraction

import pytest

from theta_homology.algebra import (
    ASYM,
    ASYM_ODD,
    FLAVORS,
    S3,
    SYM,
    SYM_ODD,
    Element,
    basis_coordinates,
    is_admissible,
    mirror,
    mirror_even_part,
    mirror_sign,
    mul_e1,
    orbit,
    render_element,
    symmetrize,
)
from element_oracle import (
    admissible_basis,
    e2,
    e3,
    element_power,
    permute_variables,
    vandermonde,
)
from word_oracle import word_mirror, word_mul


# xi1 xi2 + xi2 xi3 + xi3 xi1 and xi1 xi2 xi3, the ASym[xi] elements [1,1,0], [1,1,1]
ALT_PAIR_SUM = Element(ASYM_ODD, 2, {(1, 1, 0): 1, (0, 1, 1): 1, (1, 0, 1): -1})
GENERATOR_PRODUCT = Element(ASYM_ODD, 3, {(1, 1, 1): 1})


def random_element(rng, flavor, degree, spread=3):
    coeffs = {}
    for _ in range(rng.randrange(1, 5)):
        k1 = rng.randrange(degree + 1)
        k2 = rng.randrange(degree - k1 + 1)
        mono = (k1, k2, degree - k1 - k2)
        coeffs[mono] = coeffs.get(mono, 0) + rng.randrange(-spread, spread + 1)
    return Element(flavor, degree, coeffs)


# --- Element construction and arithmetic ------------------------------------


def test_element_validation():
    with pytest.raises(ValueError):
        Element(SYM, 2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        Element(SYM, 1, {(-1, 2, 0): 1})
    with pytest.raises(ValueError):
        Element(SYM, -1, {})
    zero = Element(SYM, 5, {(5, 0, 0): 0})
    assert zero.is_zero() and zero.degree == 5
    # coefficients are ints; an integral Fraction is stored as one
    with pytest.raises(ValueError):
        Element(SYM, 1, {(1, 0, 0): Fraction(1, 2)})
    integral = Element(SYM, 1, {(1, 0, 0): Fraction(6, 3)})
    assert integral.coeffs == {(1, 0, 0): 2}
    assert type(integral.coeffs[1, 0, 0]) is int
    # the same rule for exponents and the degree: 1.5 is not truncated to 1
    with pytest.raises(ValueError):
        Element(SYM, 1, {(1.5, 0.5, 0): 1})
    with pytest.raises(ValueError):
        Element(SYM, 2, {(1.5, 0.5, 0): 1})
    with pytest.raises(ValueError):
        Element(SYM, 1.5, {})
    integral = Element(SYM, Fraction(4, 2), {(Fraction(2), 0.0, 0): 1})
    assert integral.degree == 2 and type(integral.degree) is int
    assert integral.coeffs == {(2, 0, 0): 1}
    assert all(type(k) is int for k in next(iter(integral.coeffs)))
    # a bool, an infinity, None or a string is no integer anywhere
    for bad in (True, float("inf"), None, "2"):
        with pytest.raises(ValueError):
            Element(SYM, bad, {})
        with pytest.raises(ValueError):
            Element(SYM, 2, {(bad, 0, 0): 1})
        with pytest.raises(ValueError):
            Element(SYM, 2, {(2, 0, 0): bad})
    for two in (2.0, Fraction(4, 2)):
        integral = Element(SYM, two, {(two, 0, 0): two})
        assert integral.degree == 2 and integral.coeffs == {(2, 0, 0): 2}
        assert element_power(integral, two) == element_power(integral, 2)
    # element_power's exponent too: True is not the first power
    for bad in (True, 1.5, -1, float("inf"), None, "2"):
        with pytest.raises(ValueError):
            element_power(integral, bad)


def test_element_add_sub():
    f = Element(SYM, 1, {(1, 0, 0): 1})
    g = Element(SYM, 1, {(1, 0, 0): -1, (0, 1, 0): 2})
    assert (f + g).coeffs == {(0, 1, 0): Fraction(2)}
    assert (f - f).is_zero()
    with pytest.raises(ValueError):
        f + Element(SYM, 2, {(2, 0, 0): 1})
    with pytest.raises(ValueError):
        f + Element(ASYM, 1, {(1, 0, 0): 1})


def test_scalar_multiplication():
    f = Element(SYM_ODD, 2, {(1, 1, 0): 3})
    assert (f * Fraction(1, 3)).coeffs == {(1, 1, 0): Fraction(1)}
    assert type((f * Fraction(1, 3)).coeffs[1, 1, 0]) is int
    with pytest.raises(ValueError):
        f * Fraction(1, 2)
    assert (2 * f).coeffs == {(1, 1, 0): Fraction(6)}
    assert (f * 0).is_zero()


def test_commuting_product():
    f = Element(SYM, 1, {(1, 0, 0): 1, (0, 1, 0): 1})
    square = f * f
    assert square.coeffs == {
        (2, 0, 0): Fraction(1),
        (1, 1, 0): Fraction(2),
        (0, 2, 0): Fraction(1),
    }


def test_odd_product_examples():
    xi1 = Element(SYM_ODD, 1, {(1, 0, 0): 1})
    xi2 = Element(SYM_ODD, 1, {(0, 1, 0): 1})
    assert (xi1 * xi2).coeffs == {(1, 1, 0): Fraction(1)}
    assert (xi2 * xi1).coeffs == {(1, 1, 0): Fraction(-1)}
    assert (xi1 * xi1).coeffs == {(2, 0, 0): Fraction(1)}
    xi3 = Element(SYM_ODD, 1, {(0, 0, 1): 1})
    assert (xi3 * (xi1 * xi2)).coeffs == {(1, 1, 1): Fraction(1)}


def test_product_flavor_bookkeeping():
    assert (vandermonde() * vandermonde()).flavor == SYM
    assert (e2() * vandermonde()).flavor == ASYM
    with pytest.raises(ValueError):
        e2() * GENERATOR_PRODUCT


def test_odd_product_matches_word_oracle():
    rng = random.Random(11)
    for _ in range(40):
        da, db = rng.randrange(4), rng.randrange(4)
        a = random_element(rng, SYM_ODD, da)
        b = random_element(rng, SYM_ODD, db)
        assert (a * b).coeffs == word_mul(a.coeffs, b.coeffs)


def test_odd_product_associative():
    rng = random.Random(17)
    for _ in range(25):
        a = random_element(rng, SYM_ODD, rng.randrange(3))
        b = random_element(rng, SYM_ODD, rng.randrange(3))
        c = random_element(rng, SYM_ODD, rng.randrange(3))
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs


# --- mirror ------------------------------------------------------------------


def test_mirror_sign_values():
    assert mirror_sign(SYM, (2, 1, 0)) == -1
    assert mirror_sign(SYM, (2, 2, 0)) == 1
    assert mirror_sign(SYM_ODD, (1, 0, 0)) == -1
    assert mirror_sign(SYM_ODD, (1, 1, 0)) == 1
    assert mirror_sign(SYM_ODD, (2, 0, 0)) == -1
    assert mirror_sign(SYM_ODD, (3, 0, 0)) == 1
    assert mirror_sign(SYM_ODD, (2, 1, 1)) == -1


def test_mirror_matches_recursive_oracle():
    rng = random.Random(23)
    for _ in range(60):
        f = random_element(rng, SYM_ODD, rng.randrange(7))
        assert mirror(f).coeffs == word_mirror(f.coeffs)


def test_mirror_is_involution():
    rng = random.Random(29)
    for flavor in FLAVORS:
        for _ in range(20):
            f = random_element(rng, flavor, rng.randrange(7))
            assert mirror(mirror(f)) == f


def mirror_reverses_products(f, g):
    """mirror(f.g) == (-1)^(|f||g|) mirror(g).mirror(f)."""
    rhs = mirror(g) * mirror(f)
    if f.degree % 2 and g.degree % 2:
        rhs = -rhs
    return mirror(f * g) == rhs


def test_mirror_antiautomorphism_law():
    rng = random.Random(31)
    for _ in range(40):
        f = random_element(rng, SYM_ODD, rng.randrange(4))
        g = random_element(rng, SYM_ODD, rng.randrange(4))
        assert mirror_reverses_products(f, g)
    # commuting flavors: plain automorphism, the law holds trivially
    assert mirror_reverses_products(e2(), e3())


def test_mirror_even_part():
    xi1 = Element(SYM_ODD, 1, {(1, 0, 0): 1})
    assert mirror_even_part(xi1).is_zero()
    assert mirror_even_part(ALT_PAIR_SUM) == ALT_PAIR_SUM
    mixed = Element(SYM_ODD, 2, {(1, 1, 0): 1, (2, 0, 0): 1})
    assert mirror_even_part(mixed).coeffs == {(1, 1, 0): Fraction(1)}


# --- permutation action and symmetrization ----------------------------------


def test_permute_variables_commuting():
    f = Element(SYM, 2, {(2, 0, 0): 1})
    g = permute_variables((1, 0, 2), f)
    assert g.coeffs == {(0, 2, 0): Fraction(1)}
    h = permute_variables((1, 0, 2), Element(ASYM, 2, {(2, 0, 0): 1}))
    assert h.coeffs == {(0, 2, 0): Fraction(-1)}


def test_permute_variables_odd_signs():
    # swapping xi1 xi2 -> xi2 xi1 = -xi1 xi2
    f = Element(SYM_ODD, 2, {(1, 1, 0): 1})
    assert permute_variables((1, 0, 2), f).coeffs == {(1, 1, 0): Fraction(-1)}
    # even exponents cross without sign
    g = Element(SYM_ODD, 3, {(2, 1, 0): 1})
    assert permute_variables((1, 0, 2), g).coeffs == {(1, 2, 0): Fraction(1)}
    with pytest.raises(ValueError):
        permute_variables((0, 0, 2), f)


def test_permute_variables_integral_rule():
    # an entry equal to an integer acts as that integer; anything else is
    # refused with ValueError, never a TypeError from indexing
    f = Element(SYM_ODD, 2, {(1, 1, 0): 1})
    assert permute_variables((0, 1, 2.0), f) == f
    assert permute_variables((1.0, 0, 2), f) == permute_variables((1, 0, 2), f)
    for perm in ((0, 1, 2.5), (0, 0, 2), (0, 1, 3), (0, 1)):
        with pytest.raises(ValueError):
            permute_variables(perm, f)
    for bad in (True, float("inf"), None, "2"):
        with pytest.raises(ValueError):
            permute_variables((0, 1, bad), f)
    for two in (2.0, Fraction(4, 2)):
        assert permute_variables((1, 0, two), f) == permute_variables((1, 0, 2), f)


def test_permute_variables_signs_on_x1x2x3():
    # x1x2x3 is renamed to itself, so only the sign moves: the sign character
    # in ASym[x], the reordering sign in Sym[xi], and in ASym[xi] both, which
    # cancel
    even = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    for perm in S3:
        parity_sign = 1 if perm in even else -1
        for flavor, want in (
            (SYM, 1),
            (ASYM, parity_sign),
            (SYM_ODD, parity_sign),
            (ASYM_ODD, 1),
        ):
            f = Element(flavor, 3, {(1, 1, 1): 1})
            assert permute_variables(perm, f).coeffs == {(1, 1, 1): want}, (flavor, perm)


def test_permute_variables_is_a_group_action():
    rng = random.Random(37)
    for flavor in FLAVORS:
        for _ in range(10):
            f = random_element(rng, flavor, rng.randrange(6))
            p = list(rng.sample(range(3), 3))
            q = list(rng.sample(range(3), 3))
            composed = tuple(q[p[i]] for i in range(3))
            assert permute_variables(q, permute_variables(p, f)) == permute_variables(
                composed, f
            )


def test_symmetrize_examples():
    pair_sum = {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    xi_sum = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    assert symmetrize(SYM_ODD, (1, 0, 0)) == Element(SYM_ODD, 1, xi_sum)
    assert symmetrize(SYM, (1, 1, 0)) == Element(SYM, 2, pair_sum)
    assert symmetrize(SYM, (1, 1, 1)) == Element(SYM, 3, {(1, 1, 1): 1})
    # (x1-x2)(x1-x3)(x2-x3), multiplied out
    x1, x2, x3 = (
        Element(SYM, 1, {mono: 1}) for mono in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    )
    product = (x1 - x2) * (x1 - x3) * (x2 - x3)
    assert symmetrize(ASYM, (2, 1, 0)).coeffs == product.coeffs
    assert symmetrize(ASYM, (2, 1, 0)).flavor == ASYM
    assert symmetrize(ASYM_ODD, (1, 1, 0)) == ALT_PAIR_SUM
    assert symmetrize(ASYM_ODD, (1, 1, 1)) == GENERATOR_PRODUCT
    assert symmetrize(SYM_ODD, (2, 2, 2)).coeffs == {(2, 2, 2): Fraction(1)}
    # sorted first, then symmetrized
    assert symmetrize(SYM, (0, 1, 1)) == Element(SYM, 2, pair_sum)


def test_symmetrize_cancellation():
    # odd equal adjacent parts cancel in Sym[xi] ...
    assert symmetrize(SYM_ODD, (1, 1, 0)).is_zero()
    assert symmetrize(SYM_ODD, (3, 3, 3)).is_zero()
    # ... and even ones in ASym[xi]
    assert symmetrize(ASYM_ODD, (2, 2, 0)).is_zero()
    assert symmetrize(ASYM, (2, 1, 1)).is_zero()
    assert symmetrize(ASYM, (2, 2, 1)).is_zero()


def test_symmetrize_is_invariant():
    # permute_variables is the character-twisted action, so invariance is
    # plain fixed-point invariance in all four flavors
    rng = random.Random(41)
    for flavor in FLAVORS:
        for _ in range(15):
            triple = tuple(rng.randrange(5) for _ in range(3))
            f = symmetrize(flavor, triple)
            if f.is_zero():
                continue
            for perm in S3:
                assert permute_variables(perm, f) == f


def orbit_sum_through_elements(flavor, triple):
    """symmetrize written out in the Element algebra: the sum of
    permute_variables over S3, divided by the leading coefficient."""
    rep = tuple(sorted(triple, reverse=True))
    base = Element(flavor, sum(rep), {rep: 1})
    total = Element(flavor, base.degree)
    for perm in S3:
        total = total + permute_variables(perm, base)
    lead = total.coeffs.get(rep, 0)
    if not lead:
        return total
    return total * Fraction(1, lead)


def parity_shortcut(flavor, triple):
    """Sym[x]: always.  ASym[x]: strictly decreasing parts.  Sym[xi]: equal
    adjacent parts are even.  ASym[xi]: equal adjacent parts are odd."""
    k1, k2, k3 = sorted(triple, reverse=True)
    if not flavor.odd:
        return k1 > k2 > k3 if flavor.antisymmetric else True
    need = 1 if flavor.antisymmetric else 0
    return (k1 != k2 or k1 % 2 == need) and (k2 != k3 or k2 % 2 == need)


def test_is_admissible_matches_orbit_sums():
    for flavor in FLAVORS:
        for degree in range(9):
            for triple in admissible_basis(SYM, degree):
                f = symmetrize(flavor, triple)
                assert f == orbit_sum_through_elements(flavor, triple), (flavor, triple)
                assert is_admissible(flavor, triple) == (not f.is_zero())
                assert is_admissible(flavor, triple) == parity_shortcut(flavor, triple)
                assert is_admissible(flavor, triple[::-1]) == is_admissible(flavor, triple)
    for flavor in FLAVORS:
        for degree in range(9, 40):
            for triple in admissible_basis(SYM, degree):
                assert is_admissible(flavor, triple) == parity_shortcut(flavor, triple)
    # orbit reads is_admissible and sums nothing; the summation is the
    # reference, also on unsorted triples with large parts, most of them with
    # repeated parts so that the stabilizers are exercised
    rng = random.Random(15)
    for _ in range(300):
        parts = [rng.randrange(201)]
        for _ in range(2):
            parts.append(rng.choice(parts + [rng.randrange(201)]))
        rng.shuffle(parts)
        triple = tuple(parts)
        for flavor in FLAVORS:
            f = orbit_sum_through_elements(flavor, triple)
            assert orbit(flavor, triple) == f.coeffs, (flavor, triple)
            assert symmetrize(flavor, triple) == f, (flavor, triple)
            assert is_admissible(flavor, triple) == (not f.is_zero()), (flavor, triple)


def test_admissible_basis_examples():
    assert admissible_basis(SYM, 3) == [(3, 0, 0), (2, 1, 0), (1, 1, 1)]
    assert admissible_basis(ASYM, 3) == [(2, 1, 0)]
    assert admissible_basis(SYM_ODD, 2) == [(2, 0, 0)]
    # (2,0,0) cancels in ASym[xi]: its two stabilizing permutations differ in sign
    assert admissible_basis(ASYM_ODD, 2) == [(1, 1, 0)]
    assert admissible_basis(ASYM, 2) == []
    assert admissible_basis(SYM, 0) == [(0, 0, 0)]
    assert admissible_basis(ASYM_ODD, 3) == [(2, 1, 0), (1, 1, 1)]
    assert admissible_basis(SYM_ODD, 3) == [(3, 0, 0), (2, 1, 0)]


def test_admissible_basis_degree_follows_the_integral_rule():
    for two in (2.0, Fraction(4, 2)):
        assert admissible_basis(SYM, two) == admissible_basis(SYM, 2)
    assert admissible_basis(SYM, -1) == []
    for bad in (True, 1.5, None, "2"):
        with pytest.raises(ValueError):
            admissible_basis(SYM, bad)


def test_admissible_basis_is_descending():
    for flavor in FLAVORS:
        for degree in range(12):
            basis = admissible_basis(flavor, degree)
            assert basis == sorted(basis, reverse=True)
            assert all(t[0] >= t[1] >= t[2] >= 0 for t in basis)
            assert all(sum(t) == degree for t in basis)


def test_admissible_basis_counts_by_dimension():
    # partitions of d into at most 3 parts, filtered by flavor rule,
    # counted independently
    for degree in range(12):
        partitions = [
            (a, b, degree - a - b)
            for a in range(degree, -1, -1)
            for b in range(min(a, degree - a), -1, -1)
            if 0 <= degree - a - b <= b
        ]
        assert len(admissible_basis(SYM, degree)) == len(partitions)
        assert len(admissible_basis(ASYM, degree)) == sum(
            1 for p in partitions if p[0] > p[1] > p[2]
        )


def test_basis_coordinates_roundtrip():
    rng = random.Random(43)
    for flavor in FLAVORS:
        for _ in range(15):
            degree = rng.randrange(1, 8)
            wanted = {}
            for triple in admissible_basis(flavor, degree):
                if rng.random() < 0.5:
                    wanted[triple] = Fraction(rng.randrange(-3, 4))
            wanted = {t: c for t, c in wanted.items() if c}
            f = Element(flavor, degree)
            for triple, c in wanted.items():
                f = f + symmetrize(flavor, triple) * c
            assert basis_coordinates(f) == wanted


def rebuild_coordinates(f):
    """The rebuild criterion: expand over the symmetrized basis, rebuild, compare.

    Returns the coordinates, or None where the rebuild differs from f.
    """
    coords = {}
    for mono in f.coeffs:
        rep = tuple(sorted(mono, reverse=True))
        if rep not in coords:
            c = f.coeffs.get(rep, 0)
            if c:
                coords[rep] = c
    rebuilt = Element(f.flavor, f.degree)
    for rep, c in coords.items():
        rebuilt = rebuilt + symmetrize(f.flavor, rep) * c
    if rebuilt != f:
        return None
    return dict(sorted(coords.items(), reverse=True))


def test_basis_coordinates_matches_rebuild_criterion():
    rng = random.Random(53)
    outcomes = set()
    for flavor in FLAVORS:
        for _ in range(40):
            degree = rng.randrange(8)
            f = Element(flavor, degree)
            for triple in admissible_basis(flavor, degree):
                f = f + symmetrize(flavor, triple) * rng.randrange(-3, 4)
            k1 = rng.randrange(degree + 1)
            k2 = rng.randrange(degree - k1 + 1)
            mono = (k1, k2, degree - k1 - k2)
            bump = Element(flavor, degree, {mono: rng.choice((-2, -1, 1, 2))})
            for g in (f, f + bump):
                expected = rebuild_coordinates(g)
                outcomes.add(expected is None)
                if expected is None:
                    with pytest.raises(ValueError):
                        basis_coordinates(g)
                else:
                    got = basis_coordinates(g)
                    assert got == expected and list(got) == list(expected)
    assert outcomes == {True, False}


def test_basis_coordinates_ordering_and_rejection():
    f = e2() * e2()
    keys = list(basis_coordinates(f))
    assert keys == sorted(keys, reverse=True)
    with pytest.raises(ValueError):
        basis_coordinates(Element(SYM, 1, {(1, 0, 0): 1, (0, 1, 0): 2}))


# --- named elements and elementary polynomials -------------------------------


def test_named_elements():
    assert symmetrize(SYM, (1, 0, 0)).coeffs == {
        (1, 0, 0): Fraction(1),
        (0, 1, 0): Fraction(1),
        (0, 0, 1): Fraction(1),
    }
    assert e2().coeffs == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    assert e3().coeffs == {(1, 1, 1): Fraction(1)}
    assert vandermonde().coeffs.get((2, 0, 1), 0) == -1
    assert ALT_PAIR_SUM.coeffs.get((1, 0, 1), 0) == -1
    # defining products
    x1, x2, x3 = (
        Element(SYM_ODD, 1, {(1, 0, 0): 1}),
        Element(SYM_ODD, 1, {(0, 1, 0): 1}),
        Element(SYM_ODD, 1, {(0, 0, 1): 1}),
    )
    assert (x1 * x2 + x2 * x3 + x3 * x1).coeffs == ALT_PAIR_SUM.coeffs
    assert (x1 * x2 * x3).coeffs == GENERATOR_PRODUCT.coeffs


def test_mul_e1():
    xi1 = Element(SYM_ODD, 1, {(1, 0, 0): 1})
    left = mul_e1(xi1, "left")
    assert left.coeffs == {
        (2, 0, 0): Fraction(1),
        (1, 1, 0): Fraction(-1),
        (1, 0, 1): Fraction(-1),
    }
    right = mul_e1(xi1, "right")
    assert right.coeffs == {
        (2, 0, 0): Fraction(1),
        (1, 1, 0): Fraction(1),
        (1, 0, 1): Fraction(1),
    }
    with pytest.raises(ValueError):
        mul_e1(xi1, "up")
    # e1 is symmetric, so it keeps the twist of the element it multiplies
    twisted = symmetrize(ASYM_ODD, (2, 1, 0))
    for side in ("left", "right"):
        assert mul_e1(twisted, side).flavor == ASYM_ODD


def test_sandwich_parity_flip():
    # e1 f e1 flips the mirror eigenvalue of f when f is homogeneous odd
    rng = random.Random(47)
    for _ in range(20):
        f = random_element(rng, SYM_ODD, rng.randrange(5))
        f = mirror_even_part(f)
        if f.is_zero():
            continue
        sandwich = mul_e1(mul_e1(f, "left"), "right")
        assert mirror(sandwich) == -sandwich


def test_element_power():
    assert element_power(e2(), 0).coeffs == {(0, 0, 0): Fraction(1)}
    assert element_power(e3(), 2).coeffs == {(2, 2, 2): Fraction(1)}
    with pytest.raises(ValueError):
        element_power(e2(), -1)
    # p2 = e1^2 - 2 e2
    power_sum = Element(SYM, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    assert element_power(symmetrize(SYM, (1, 0, 0)), 2) - e2() * 2 == power_sum
    # e2 e3 = (2,2,1)
    assert e2() * e3() == symmetrize(SYM, (2, 2, 1))


# --- rendering ---------------------------------------------------------------


def test_render_element():
    assert render_element(Element(SYM, 3)) == "0"
    f = Element(SYM, 2, {(2, 0, 0): 1, (1, 1, 0): -1})
    assert render_element(f) == "x1^2 - x1*x2"
    g = Element(SYM_ODD, 2, {(1, 1, 0): 2})
    assert render_element(g) == "2*xi1*xi2"
    constant = Element(SYM, 0, {(0, 0, 0): -3})
    assert render_element(constant) == "-3"
