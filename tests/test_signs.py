import random
from fractions import Fraction
from itertools import product

import pytest

from theta_homology.cases import ALL_CASES, CASE_EE, CASE_EO, CASE_OE, CASE_OO
from theta_homology.signs import (
    UnsupportedSymmetryError,
    _permutation_sign,
    canonical_tokens,
    edge_swap_sign,
    edge_swap_sign_formula,
    token_parity,
    vertical_reflection_sign,
    vertical_reflection_sign_formula,
)


def test_koszul_sign_matches_inversion_count():
    # the engine's Koszul sign is the sign of the permutation the odd tokens
    # undergo; the O(n^2) definition: (-1) per pair that changes order
    rng = random.Random(79)
    for _ in range(300):
        n = rng.randrange(81)
        perm = rng.sample(range(n), n)
        inversions = sum(
            perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
        )
        assert _permutation_sign(perm) == (-1) ** inversions


def reference_sign(defect, hairs, case, image, target_hairs, reversed_edges):
    """Map every token, even-degree ones too, count odd-odd inversions, and
    take (-1)^N per reversed edge piece."""
    index = {token: i for i, token in enumerate(canonical_tokens(defect, target_hairs))}
    source = canonical_tokens(defect, hairs)
    odd_targets = [index[image(token)] for token in source if token_parity(token, case)]
    inversions = sum(
        a > b for i, a in enumerate(odd_targets) for b in odd_targets[i + 1 :]
    )
    return (-1) ** (inversions + (reversed_edges if case.n_odd else 0))


def reference_reflection(defect, hairs, case):
    def image(token):
        if token[0] in ("tip", "tipedge", "junction"):
            return (token[0], 3 - token[1])
        kind, e, i = token
        last = hairs[e - 1]
        return (kind, e, last - i if kind == "seg" else last + 1 - i)

    return reference_sign(defect, hairs, case, image, hairs, sum(hairs) + 3)


def reference_swap(defect, hairs, case, p, q):
    def image(token):
        if token[0] in ("tip", "tipedge", "junction"):
            return token
        kind, e, i = token
        return (kind, {p: q, q: p}.get(e, e), i)

    target = list(hairs)
    target[p - 1], target[q - 1] = target[q - 1], target[p - 1]
    return reference_sign(defect, hairs, case, image, tuple(target), 0)


def test_engine_matches_full_token_reference_and_formulas_past_the_grid():
    # random cells with k_i up to 25, past the CLI grid's 8: dropping the
    # even tokens does not change the sign, and the formulas still hold
    rng = random.Random(83)
    for _ in range(200):
        case = rng.choice(ALL_CASES)
        hairs = tuple(rng.randrange(26) for _ in range(3))
        if rng.randrange(2):
            defect = rng.choice((0, 2))
            engine = vertical_reflection_sign(defect, hairs, case)
            assert engine == reference_reflection(defect, hairs, case)
            assert engine == vertical_reflection_sign_formula(defect, hairs, case)
        else:
            defect = rng.choice((0, 1, 2))
            p, q = rng.sample((1, 2, 3), 2)
            engine = edge_swap_sign(defect, hairs, case, p, q)
            assert engine == reference_swap(defect, hairs, case, p, q)
            assert engine == edge_swap_sign_formula(hairs, case, p, q)


def test_canonical_tokens_structure():
    tokens = canonical_tokens(0, (0, 0, 0))
    assert tokens == [
        ("junction", 1),
        ("junction", 2),
        ("seg", 1, 0),
        ("seg", 2, 0),
        ("seg", 3, 0),
    ]
    tokens = canonical_tokens(2, (1, 0, 0))
    assert ("tip", 1) in tokens and ("tip", 2) in tokens
    assert ("hairvert", 1, 1) in tokens and ("seg", 1, 1) in tokens
    # token count: 2 junctions + defect*(tip+edge) + 3 segments + 4 per hair
    for defect in (0, 1, 2):
        for hairs in [(0, 0, 0), (2, 1, 0), (3, 3, 3)]:
            n = len(canonical_tokens(defect, hairs))
            assert n == 2 + 2 * defect + 3 + 4 * sum(hairs)
    with pytest.raises(ValueError):
        canonical_tokens(3, (0, 0, 0))
    with pytest.raises(ValueError):
        canonical_tokens(0, (-1, 0, 0))


def test_token_parity():
    assert token_parity(("tip", 1), CASE_OO) == 1
    assert token_parity(("tip", 1), CASE_EO) == 0
    assert token_parity(("junction", 2), CASE_OO) == 1
    assert token_parity(("junction", 2), CASE_OE) == 0
    # edges have degree N-1
    assert token_parity(("seg", 1, 0), CASE_OO) == 0
    assert token_parity(("seg", 1, 0), CASE_OE) == 1
    assert token_parity(("hairedge", 2, 1), CASE_EE) == 1
    with pytest.raises(ValueError):
        token_parity(("wat", 0), CASE_OO)


def test_reflection_sign_hairless():
    # the bare theta graph survives reflection in every case
    for case in ALL_CASES:
        assert vertical_reflection_sign(0, (0, 0, 0), case) == 1
    # with both junction hairs the sign is (-1)^(m+N+1)
    assert vertical_reflection_sign(2, (0, 0, 0), CASE_OO) == -1
    assert vertical_reflection_sign(2, (0, 0, 0), CASE_EE) == -1
    assert vertical_reflection_sign(2, (0, 0, 0), CASE_EO) == 1
    assert vertical_reflection_sign(2, (0, 0, 0), CASE_OE) == 1


def test_reflection_defect1_unsupported():
    with pytest.raises(UnsupportedSymmetryError):
        vertical_reflection_sign(1, (1, 0, 0), CASE_OO)
    with pytest.raises(UnsupportedSymmetryError):
        vertical_reflection_sign_formula(1, (2, 1, 0), CASE_EE)


def test_reflection_is_an_involution():
    # applying the reflection twice gives sign +1, so the sign is well defined
    rng = random.Random(67)
    for _ in range(60):
        case = rng.choice(ALL_CASES)
        defect = rng.choice((0, 2))
        hairs = tuple(rng.randrange(4) for _ in range(3))
        s = vertical_reflection_sign(defect, hairs, case)
        assert s in (1, -1)
        assert s * s == 1


def test_reflection_formula_matches_engine():
    for case in ALL_CASES:
        for defect in (0, 2):
            for hairs in product(range(5), repeat=3):
                assert vertical_reflection_sign(
                    defect, hairs, case
                ) == vertical_reflection_sign_formula(defect, hairs, case), (
                    case.key,
                    defect,
                    hairs,
                )


def test_edge_swap_examples():
    # hairless graph: three parallel edges, swapping two of them
    assert edge_swap_sign(0, (0, 0, 0), CASE_OO, 1, 2) == 1
    assert edge_swap_sign(0, (0, 0, 0), CASE_EE, 1, 2) == -1
    assert edge_swap_sign(0, (0, 0, 0), CASE_EO, 2, 3) == 1
    assert edge_swap_sign(0, (1, 1, 0), CASE_EO, 1, 2) == -1
    with pytest.raises(ValueError):
        edge_swap_sign(0, (0, 0, 0), CASE_OO, 1, 1)
    with pytest.raises(ValueError):
        edge_swap_sign(0, (0, 0, 0), CASE_OO, 0, 2)


def test_edge_swap_formula_matches_engine():
    for case in ALL_CASES:
        for defect in (0, 1, 2):
            for p, q in ((1, 2), (2, 3), (1, 3)):
                for hairs in product(range(5), repeat=3):
                    assert edge_swap_sign(
                        defect, hairs, case, p, q
                    ) == edge_swap_sign_formula(hairs, case, p, q), (
                        case.key,
                        defect,
                        hairs,
                        (p, q),
                    )


def test_edge_swap_formula_defect_independent():
    # junction tokens are fixed points, so the defect never enters
    rng = random.Random(71)
    for _ in range(50):
        case = rng.choice(ALL_CASES)
        hairs = tuple(rng.randrange(5) for _ in range(3))
        p, q = rng.sample((1, 2, 3), 2)
        signs = {edge_swap_sign(d, hairs, case, p, q) for d in (0, 1, 2)}
        assert len(signs) == 1


def test_outer_swap_is_composite_of_adjacent_ones():
    # (1,3) = (1,2)(2,3)(1,2) as maps; signs multiply along the chain
    for case in ALL_CASES:
        for hairs in product(range(4), repeat=3):
            k1, k2, k3 = hairs
            first = edge_swap_sign(0, (k1, k2, k3), case, 1, 2)
            second = edge_swap_sign(0, (k2, k1, k3), case, 2, 3)
            third = edge_swap_sign(0, (k2, k3, k1), case, 1, 2)
            assert edge_swap_sign(0, hairs, case, 1, 3) == first * second * third


def test_swap_then_swap_back():
    rng = random.Random(73)
    for _ in range(40):
        case = rng.choice(ALL_CASES)
        hairs = [rng.randrange(5) for _ in range(3)]
        p, q = rng.sample((1, 2, 3), 2)
        there = edge_swap_sign(0, tuple(hairs), case, p, q)
        swapped = list(hairs)
        swapped[p - 1], swapped[q - 1] = swapped[q - 1], swapped[p - 1]
        back = edge_swap_sign(0, tuple(swapped), case, p, q)
        assert there * back == 1


def test_integral_rule_for_defect_hairs_and_edges():
    # an integral value is taken as its int, anything else raises ValueError
    bad_hairs = ((1.5, 0, 0), (1, Fraction(1, 2), 0), ("1", 0, 0), (-1, 0, 0))
    with_defect = (
        vertical_reflection_sign,
        vertical_reflection_sign_formula,
        lambda d, h, c: edge_swap_sign(d, h, c, 1, 3),
    )
    for f in with_defect:
        assert f(2.0, (1.0, Fraction(4, 2), 0), CASE_EO) == f(2, (1, 2, 0), CASE_EO)
        for defect, hairs in [(0, h) for h in bad_hairs] + [(2.5, (1, 0, 0)), ("2", (1, 0, 0))]:
            with pytest.raises(ValueError):
                f(defect, hairs, CASE_EO)
    assert canonical_tokens(2.0, (1, 0, 0)) == canonical_tokens(2, (1, 0, 0))
    assert edge_swap_sign_formula((1.0, Fraction(2, 2), 0), CASE_EO, 1, 3) == -1
    for hairs in bad_hairs:
        with pytest.raises(ValueError):
            edge_swap_sign_formula(hairs, CASE_EO, 1, 3)
    for p, q in ((1.0, 2), (2, Fraction(3, 1))):
        want = edge_swap_sign(0, (1, 1, 0), CASE_EO, int(p), int(q))
        assert edge_swap_sign(0, (1, 1, 0), CASE_EO, p, q) == want
        assert edge_swap_sign_formula((1, 1, 0), CASE_EO, p, q) == want
    for p, q in ((1.5, 2), (2, 2.0), ("1", 2)):
        with pytest.raises(ValueError):
            edge_swap_sign(0, (1, 1, 0), CASE_EO, p, q)
        with pytest.raises(ValueError):
            edge_swap_sign_formula((1, 1, 0), CASE_EO, p, q)
    # a bool, an infinity, None or a string is no integer anywhere (True
    # would otherwise pass as defect 1, hair count 1 or edge 1)
    for bad in (True, float("inf"), None, "2"):
        calls = [
            lambda f=f, d=d, h=h: f(d, h, CASE_EO)
            for f in with_defect + (lambda d, h, c: canonical_tokens(d, h),)
            for d, h in ((bad, (1, 0, 0)), (0, (bad, 0, 0)), (0, (1, 0, bad)))
        ]
        calls += [
            lambda p=p, q=q: edge_swap_sign(0, (1, 1, 0), CASE_EO, p, q)
            for p, q in ((bad, 2), (3, bad))
        ]
        calls += [
            lambda h=h, p=p, q=q: edge_swap_sign_formula(h, CASE_EO, p, q)
            for h, p, q in (((bad, 0, 0), 1, 2), ((1, 1, 0), bad, 2), ((1, 1, 0), 3, bad))
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()
    for two in (2.0, Fraction(4, 2)):
        for f in with_defect:
            assert f(two, (two, 1, 0), CASE_EO) == f(2, (2, 1, 0), CASE_EO)
        assert canonical_tokens(two, (two, 1, 0)) == canonical_tokens(2, (2, 1, 0))
        want = edge_swap_sign(0, (2, 1, 0), CASE_EO, 2, 3)
        assert edge_swap_sign(0, (two, 1, 0), CASE_EO, two, 3) == want
        assert edge_swap_sign_formula((two, 1, 0), CASE_EO, two, 3) == want
