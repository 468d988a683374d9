import random
import time
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_homology import signs
from theta_homology.cases import ALL_CASES, CASE_EE, CASE_EO, CASE_OE, CASE_OO
from theta_homology.signs import (
    UnsupportedSymmetryError,
    _block_permutation_sign,
    canonical_tokens,
    edge_swap_sign,
    edge_swap_sign_formula,
    token_parity,
    vertical_reflection_sign,
    vertical_reflection_sign_formula,
)


def permutation_sign(perm):
    """(-1)^(n - cycles) of perm, a permutation of range(n), by a cycle walk."""
    seen = [False] * len(perm)
    transpositions = len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        transpositions -= 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
    return -1 if transpositions % 2 else 1


def odd_kinds(case):
    """The token kinds of odd degree in the case, read off token_parity."""
    kinds = {token[0] for token in canonical_tokens(2, (1, 0, 0))}
    return frozenset(kind for kind in kinds if token_parity((kind,), case))


def test_koszul_sign_matches_inversion_count():
    # the Koszul sign is the sign of the permutation the odd tokens undergo;
    # the reference cycle walk against the O(n^2) definition: (-1) per pair
    # that changes order
    rng = random.Random(79)
    for _ in range(300):
        n = rng.randrange(81)
        perm = rng.sample(range(n), n)
        inversions = sum(
            perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
        )
        assert permutation_sign(perm) == (-1) ** inversions


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


def reflection_image(hairs):
    """The reflection's map on tokens of the graph with the given hair counts."""

    def image(token):
        if token[0] in ("tip", "tipedge", "junction"):
            return (token[0], 3 - token[1])
        kind, e, i = token
        last = hairs[e - 1]
        return (kind, e, last - i if kind == "seg" else last + 1 - i)

    return image


def swap_image(p, q):
    """The transposition of edges p and q on tokens."""

    def image(token):
        if token[0] in ("tip", "tipedge", "junction"):
            return token
        kind, e, i = token
        return (kind, {p: q, q: p}.get(e, e), i)

    return image


def swapped(hairs, p, q):
    target = list(hairs)
    target[p - 1], target[q - 1] = target[q - 1], target[p - 1]
    return tuple(target)


def reference_reflection(defect, hairs, case):
    image = reflection_image(hairs)
    return reference_sign(defect, hairs, case, image, hairs, sum(hairs) + 3)


def reference_swap(defect, hairs, case, p, q):
    image = swap_image(p, q)
    return reference_sign(defect, hairs, case, image, swapped(hairs, p, q), 0)


def block_starts(head, rank, hairs):
    """The slot of each edge's first hair block, by edge e = 1, 2, 3: the head
    comes first, then edge 1's blocks, edge 2's and edge 3's, each block
    one slot per odd kind that rank places."""
    k1, k2, _ = hairs
    b = len(rank)
    return (None, len(head), len(head) + b * k1, len(head) + b * (k1 + k2))


def layout_tables(defect, odd):
    """(head, rank) of the odd kinds at a defect, from canonical_tokens: head
    maps each odd head token, keyed by its first two entries (so ("seg", e,
    0) is ("seg", e)), to its slot, and rank maps each odd kind of a hair
    block to its place in the block."""
    tokens = canonical_tokens(defect, (1, 0, 0))
    head = {t[:2]: n for n, t in enumerate(t for t in tokens[:-4] if t[0] in odd)}
    rank = {kind: r for r, kind in enumerate(t[0] for t in tokens[-4:] if t[0] in odd)}
    return head, rank


def head_images(head, symmetry):
    """The slot each head token goes to, in canonical order, under "reflect"
    (the junction sides swapped, the first segments fixed: the reflection's
    segment pairs on the edges are counted apart) or the 0-based
    transposition perm of an edge swap (the sides fixed, ("seg", e) sent to
    ("seg", perm[e - 1] + 1))."""
    if symmetry == "reflect":
        return [head[kind, x if kind == "seg" else 3 - x] for kind, x in head]
    return [head[kind, symmetry[x - 1] + 1 if kind == "seg" else x] for kind, x in head]


def reference_slots(defect, hairs, odd):
    """slot(kind, e, i): the position of token (kind, e, i) among the odd
    tokens of canonical_tokens(defect, hairs), one token at a time from the
    head table and kind ranks of layout_tables; i = 0 (or no i) names a head
    token."""
    head, rank = layout_tables(defect, odd)
    starts = block_starts(head, rank, hairs)

    def slot(kind, e, i=0):
        if i:
            return starts[e] + (i - 1) * len(rank) + rank[kind]
        return head[kind, e]

    return slot


def test_engine_matches_full_token_reference_and_formulas_past_the_grid():
    # random cells with k_i up to 40, past the CLI grid's 8: dropping the
    # even tokens does not change the sign, and the formulas still hold
    rng = random.Random(83)
    for _ in range(200):
        case = rng.choice(ALL_CASES)
        hairs = tuple(rng.randrange(41) for _ in range(3))
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


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(
    case=st.sampled_from(ALL_CASES),
    hairs=st.tuples(*[st.integers(41, 120)] * 3),
    defect=st.sampled_from((0, 1, 2)),
    pair=st.sampled_from(((1, 2), (2, 3), (1, 3))),
)
def test_engine_matches_full_token_reference_past_k_40(case, hairs, defect, pair):
    # reference_slots reads its layout from canonical_tokens with at most one
    # hair, so only the full-token reference sees a block layout that goes
    # wrong for large k_i alone
    if defect != 1:
        engine = vertical_reflection_sign(defect, hairs, case)
        assert engine == reference_reflection(defect, hairs, case)
        assert engine == vertical_reflection_sign_formula(defect, hairs, case)
    engine = edge_swap_sign(defect, hairs, case, *pair)
    assert engine == reference_swap(defect, hairs, case, *pair)
    assert engine == edge_swap_sign_formula(hairs, case, *pair)


def test_slots_are_the_canonical_order():
    # the reference slot arithmetic (head table, kind ranks, block starts)
    # numbers the odd tokens of the explicit canonical list 0, 1, 2, ... in
    # order, for every layout the engine can meet
    for case in ALL_CASES:
        odd = odd_kinds(case)
        for defect in (0, 1, 2):
            for hairs in product(range(7), repeat=3):
                slot = reference_slots(defect, hairs, odd)
                tokens = canonical_tokens(defect, hairs)
                slots = [slot(*token) for token in tokens if token_parity(token, case)]
                assert slots == list(range(len(slots))), (case.key, defect, hairs)


def reflection_slots(head, rank, images, hairs):
    """The slot list the reflection's sign stands for: the head images, then
    per edge and odd kind the chain of that kind's slots reversed, hair
    blocks 1..k_e for a non-segment kind and segments 0..k_e, segment 0 the
    head slot ("seg", e), for the segment kind."""
    b = len(rank)
    starts = block_starts(head, rank, hairs)
    slots = list(images) + [None] * (b * sum(hairs))
    for e, start, k in zip((1, 2, 3), starts[1:], hairs):
        for kind, r in rank.items():
            chain = [start + i * b + r for i in range(k)]
            if kind == "seg":
                chain.insert(0, head["seg", e])
            for slot, image in zip(chain, reversed(chain)):
                slots[slot] = image
    return slots


def test_layout_head_signs_are_the_walked_head_parities():
    """_layout's reflect and swap signs are the cycle parities of the head.

    The odd head tokens are, in canonical order, the odd ones among the
    junction tips (tip, s), their edges (tipedge, s), the junctions
    (junction, s) for s = 1, 2, and the first segments ("seg", e, 0).  The
    reflection exchanges (kind, 1) with (kind, 2) for each side kind and
    fixes the first segments: an involution whose exchanged pairs are the
    odd side-1 tokens, so its sign is -1 per odd side-1 token (at defect 0
    only the junctions have sides).  The transposition of edges p and q
    exchanges ("seg", p, 0) with ("seg", q, 0) and fixes the rest: one
    exchanged pair when segments are odd, none when they are even, whatever
    p and q are.  Checked against the cycle walk of the head images for
    every (defect, case), the reflection at defects 0 and 2 and each of the
    three transpositions.
    """
    for case in ALL_CASES:
        odd = odd_kinds(case)
        for defect in (0, 1, 2):
            layout = signs._layout(defect, case)
            head, rank = layout_tables(defect, odd)
            assert (layout.b, layout.seg) == (len(rank), "seg" in rank)
            symmetries = [(1, 0, 2), (0, 2, 1), (2, 1, 0)]
            for symmetry in symmetries + ["reflect"] * (defect != 1):
                want = layout.reflect if symmetry == "reflect" else layout.swap
                images = head_images(head, symmetry)
                assert want == permutation_sign(images), (case.key, defect, symmetry)


def test_engine_writes_the_reference_slot_of_every_odd_token(monkeypatch):
    # the slots the engine's sign stands for are the reference slot of each
    # odd source token's image, in the source's canonical order: two
    # compensating slot errors could leave the sign unchanged.  The engine
    # builds no slot list, so what it hands on is expanded here.  The
    # reflection hands its head sign, b, segment flag and hair counts to
    # _involution_sign: the head images come from the reference head table,
    # and the per-edge exchanges are written out slot by slot.  The swap
    # hands its head sign and block ranges, counted from the first block, to
    # _block_permutation_sign: the head images come from the reference head
    # table, and the ranges are expanded after the head's slots.  The head
    # signs handed on are the cycle parities of those head images
    recorded = []
    monkeypatch.setattr(signs, "_involution_sign", lambda *args: recorded.append(args) or 1)
    monkeypatch.setattr(signs, "_block_permutation_sign", lambda *args: recorded.append(args) or 1)
    for case in ALL_CASES:
        odd = odd_kinds(case)
        for hairs in product(range(6), repeat=3):
            for defect, pair in [(d, None) for d in (0, 2)] + [
                (d, pair) for pair in ((1, 2), (2, 3), (1, 3)) for d in (0, 1, 2)
            ]:
                head, rank = layout_tables(defect, odd)
                recorded.clear()
                if pair is None:
                    vertical_reflection_sign(defect, hairs, case)
                    image, target = reflection_image(hairs), hairs
                    images = head_images(head, "reflect")
                    sign = permutation_sign(images)
                    assert recorded == [(sign, len(rank), "seg" in rank, hairs)]
                    slots = reflection_slots(head, rank, images, hairs)
                else:
                    edge_swap_sign(defect, hairs, case, *pair)
                    image, target = swap_image(*pair), swapped(hairs, *pair)
                    images = head_images(head, signs._transposition(*pair))
                    [(recorded_sign, ranges)] = recorded
                    assert recorded_sign == permutation_sign(images)
                    length = len(head)
                    slots = images + [
                        length + i for start, n in ranges for i in range(start, start + n)
                    ]
                slot = reference_slots(defect, target, odd)
                want = [
                    slot(*image(token))
                    for token in canonical_tokens(defect, hairs)
                    if token_parity(token, case)
                ]
                assert slots == want, (case.key, defect, hairs, pair)
                assert sorted(want) == list(range(len(want)))


def test_block_permutation_sign_matches_the_definition():
    # the swap's sign rule, given the head's cycle parity, against the cycle
    # walk of the expanded slot list and the O(n^2) inversion count: a random
    # head permutation, then three ranges of 0..20 slots tiling the rest in
    # each of the six target orders
    rng = random.Random(89)
    for _ in range(100):
        h = rng.randrange(10)
        head = rng.sample(range(h), h)
        lengths = [rng.randrange(21) for _ in range(3)]
        if rng.randrange(4) == 0:
            lengths[rng.randrange(3)] = 0
        for order in permutations(range(3)):
            starts, cursor = [0, 0, 0], h
            for r in order:
                starts[r], cursor = cursor, cursor + lengths[r]
            ranges = list(zip(starts, lengths))
            perm = head + [i for start, n in ranges for i in range(start, start + n)]
            inversions = sum(
                perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm))
            )
            sign = _block_permutation_sign(permutation_sign(head), ranges)
            assert sign == permutation_sign(perm) == (-1) ** inversions, (head, ranges)


def test_edge_swap_sign_has_period_2_in_each_hair_count():
    """The swap half of the sign grid's proof for every hair count.

    edge_swap_sign's head images depend on the defect, the case and the
    pair only, and edge e's block slots form one range of length b * k_e
    whose place among the target's ranges is fixed by the target edge alone
    (the target edges' blocks are laid out in edge order).  So the sign is
    head parity * (-1)^(b * sum k_e * k_f) over the fixed set of pairs e < f
    that the swap reorders, and adding 2 to k_e changes the exponent by
    2 * b * k_f per pair containing e: the sign has period 2 in each hair
    count.  This assumes the engine branches on no hair count; a zero-length
    range changes no pair's term.  Checked on every swap cell with k_i <= 5
    in every case, defect and pair (23328 comparisons).
    """
    checked = 0
    for case in ALL_CASES:
        for defect in (0, 1, 2):
            for pair in ((1, 2), (2, 3), (1, 3)):
                for hairs in product(range(6), repeat=3):
                    sign = edge_swap_sign(defect, hairs, case, *pair)
                    for i in range(3):
                        shifted = tuple(k + 2 * (j == i) for j, k in enumerate(hairs))
                        cell = (case.key, defect, hairs, pair, i)
                        assert edge_swap_sign(defect, shifted, case, *pair) == sign, cell
                        checked += 1
    assert checked == 23328


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(
    case=st.sampled_from(ALL_CASES),
    hairs=st.tuples(*[st.integers(0, 10**9)] * 3),
    defect=st.sampled_from((0, 1, 2)),
    pair=st.sampled_from(((1, 2), (2, 3), (1, 3))),
)
def test_edge_swap_engine_matches_formula_up_to_a_billion_hairs(case, hairs, defect, pair):
    # the swap builds no list of block slots, so hair counts near 10^9 cost
    # what small ones do
    assert edge_swap_sign(defect, hairs, case, *pair) == edge_swap_sign_formula(
        hairs, case, *pair
    )


def test_reflection_sign_has_period_4_in_each_hair_count():
    """The reflection half of the sign grid's proof for every hair count.

    vertical_reflection_sign is the head parity, which depends on the
    defect and the case only, times (-1)^(b * floor(k_e / 2) + [seg odd] *
    (k_e mod 2)) per edge (_involution_sign), times (-1)^N per reversed
    piece, k_1 + k_2 + k_3 + 3 of them.  b * floor(k_e / 2) has the parity
    of b * C(k_e, 2), the inversions of k_e reversed blocks of b slots
    (b^2 = b mod 2).  Adding 4 to k_e adds b * (C(k + 4, 2) - C(k, 2)) =
    b * (4k + 6), 4 * [seg odd] and 4 reversed pieces to the exponent, all
    even: the sign has period 4 in each hair count.  Adding 2 adds
    b * (C(k + 2, 2) - C(k, 2)) = b * (2k + 1), 2 * [seg odd] and 2 pieces,
    so period 2 breaks exactly when b is odd: in eo (b = 1) and oe (b = 3),
    not in oo or ee (b = 2).  This assumes the engine branches on no hair
    count.  Checked on every reflection cell with k_i <= 3 in every case and
    defect (1536 comparisons per period), 768 of which flip under + 2.
    """
    checked = flipped = 0
    for case in ALL_CASES:
        b = signs._layout(0, case).b
        for defect in (0, 2):
            for hairs in product(range(4), repeat=3):
                sign = vertical_reflection_sign(defect, hairs, case)
                for i in range(3):
                    cell = (case.key, defect, hairs, i)
                    plus = [tuple(k + n * (j == i) for j, k in enumerate(hairs)) for n in (2, 4)]
                    assert vertical_reflection_sign(defect, plus[1], case) == sign, cell
                    flip = vertical_reflection_sign(defect, plus[0], case) != sign
                    assert flip == (b % 2 == 1), cell
                    checked += 1
                    flipped += flip
    assert (checked, flipped) == (1536, 768)


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(
    case=st.sampled_from(ALL_CASES),
    hairs=st.tuples(*[st.integers(0, 10**9)] * 3),
    defect=st.sampled_from((0, 2)),
)
def test_reflection_engine_matches_formula_up_to_a_billion_hairs(case, hairs, defect):
    # the reflection builds no list of block slots either
    assert vertical_reflection_sign(defect, hairs, case) == vertical_reflection_sign_formula(
        defect, hairs, case
    )


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


def test_canonical_tokens_refuses_a_list_past_its_bound():
    # a huge hair count raises before any list is built, where it used to
    # allocate until the process was killed; the largest list the tests ask
    # for (k_i = 120 at defect 2) stays well inside the bound
    started = time.perf_counter()
    total = 5 + 2 * 2 + 4 * 10**30
    with pytest.raises(ValueError, match=f"has {total} tokens, more than {signs._MAX_TOKENS}"):
        canonical_tokens(2, (0, 0, 10**30))
    assert time.perf_counter() - started < 1
    assert len(canonical_tokens(2, (120, 120, 120))) == 9 + 4 * 360


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
                engine = vertical_reflection_sign(defect, hairs, case)
                cell = (case.key, defect, hairs)
                assert engine == reference_reflection(defect, hairs, case), cell
                assert engine == vertical_reflection_sign_formula(defect, hairs, case), cell


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
                    engine = edge_swap_sign(defect, hairs, case, p, q)
                    cell = (case.key, defect, hairs, (p, q))
                    assert engine == reference_swap(defect, hairs, case, p, q), cell
                    assert engine == edge_swap_sign_formula(hairs, case, p, q), cell


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
    # hairs is a tuple or list of exactly three counts: a set has no order,
    # and a scalar, None or a wrong length names no three edges
    for hairs in ({1, 2, 3}, 5, None, (1, 2), (1, 2, 3, 4), [1, 2]):
        calls = [lambda f=f: f(0, hairs, CASE_OO) for f in with_defect]
        calls.append(lambda: edge_swap_sign_formula(hairs, CASE_OO, 1, 2))
        for call in calls:
            with pytest.raises(ValueError, match="hairs"):
                call()
    assert edge_swap_sign(0, [1, 2, 3], CASE_OO, 1, 2) == edge_swap_sign(
        0, (1, 2, 3), CASE_OO, 1, 2
    )
    for two in (2.0, Fraction(4, 2)):
        for f in with_defect:
            assert f(two, (two, 1, 0), CASE_EO) == f(2, (2, 1, 0), CASE_EO)
        assert canonical_tokens(two, (two, 1, 0)) == canonical_tokens(2, (2, 1, 0))
        want = edge_swap_sign(0, (2, 1, 0), CASE_EO, 2, 3)
        assert edge_swap_sign(0, (two, 1, 0), CASE_EO, two, 3) == want
        assert edge_swap_sign_formula((two, 1, 0), CASE_EO, two, 3) == want
