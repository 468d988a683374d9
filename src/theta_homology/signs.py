"""Koszul signs of symmetries of oriented two-loop hairy graphs.

A graph here is a theta shape, two junction vertices joined by three edges,
where edge e is subdivided by hairs[e] internal vertices each carrying one
hair (an edge ending in a univalent vertex), plus 0, 1, or 2 extra hairs on
the junctions themselves (the defect).  Its orientation is an ordered list of
tokens, one per vertex and per edge piece, with degrees depending on the two
parameters (m, N) through their parities only:

    external (univalent) vertex   degree -m
    internal vertex               degree -N
    any edge                      degree  N - 1

A symmetry of the graph permutes the tokens and may reverse edge pieces;
its sign is the Koszul sign of that permutation (odd-degree tokens
anticommute) times (-1)^N per reversed edge piece.  vertical_reflection_sign
and edge_swap_sign, the engine, compute it from that definition alone, as
the sign of the permutation that the symmetry makes of the slots of the odd
tokens (even ones never change the sign) in canonical order.  The slots come
from the canonical layout, read by both: the head tokens (junction hairs,
junctions, first segments) keep one slot each from a small per-(defect, odd
kinds) table (_layout), and token (kind, e, i) of hair block i on edge e
sits at starts[e] + (i - 1)*b + the kind's rank in a block, b odd kinds per
block, where edge e's first block begins at starts[e] = length + b*(k_1 +
... + k_(e-1)), after the head's length slots.  A symmetry moves whole hair
blocks, so the engine builds no list of slots and costs the same at any
hair count.  The reflection is an involution: it
exchanges the junction sides, pairs block i with block k_e + 1 - i per
kind, and pairs segment j with segment k_e - j, where segment 0 is a head
slot; its sign is -1 per exchanged pair, the head's parity times a per-edge
term (_involution_sign).  The edge swap maps the head into itself and edge
e's blocks, in order, to one ascending range of the target edge: its sign is
the head's cycle parity times -1 per pair of ranges that it reorders and
whose lengths' product is odd (_block_permutation_sign).  The head parities
of the reflection and of the three swaps are derived once per layout
(_head_turns).  The engine reads no formula.  The *_formula functions read
the sign rules the complexes are built from, algebra.mirror_sign and
algebra._act, so the test-suite and the `signs` CLI mode check those rules
against the engine.

Two symmetries matter downstream: the vertical reflection, exchanging the
two junctions (it fixes the hair counts, and a graph whose reflection sign is
-1 is zero modulo orientation relations), and the transpositions of two of
the three edges (they realize the S3 action on hair triples).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .algebra import _act, _integral, mirror_sign

_BLOCK = ("hairvert", "hairedge", "hairtip", "seg")
_KINDS = frozenset(("tip", "tipedge", "junction") + _BLOCK)


class UnsupportedSymmetryError(ValueError):
    """The requested symmetry has no well-defined self-map on this graph."""


def _validate(defect, hairs):
    """(defect, hairs) as ints under the integral rule, or ValueError.  An int
    defect in 0..2 with a tuple of three non-negative int counts is returned
    as it is; an int defect and a non-negative int count pass without the
    rule's call."""
    if type(hairs) is tuple and len(hairs) == 3:
        k1, k2, k3 = hairs
        if (
            type(defect) is type(k1) is type(k2) is type(k3) is int
            and 0 <= defect <= 2
            and k1 >= 0
            and k2 >= 0
            and k3 >= 0
        ):
            return defect, hairs
    if type(defect) is not int:
        defect = _integral(defect, "defect")
    if defect not in (0, 1, 2):
        raise ValueError(f"defect must be 0, 1, or 2, got {defect!r}")
    if not isinstance(hairs, (tuple, list)) or len(hairs) != 3:
        raise ValueError(f"hairs must be a tuple or list of three counts, got {hairs!r}")
    k1, k2, k3 = hairs
    return defect, (
        k1 if type(k1) is int and k1 >= 0 else _integral(k1, "hair count", 0),
        k2 if type(k2) is int and k2 >= 0 else _integral(k2, "hair count", 0),
        k3 if type(k3) is int and k3 >= 0 else _integral(k3, "hair count", 0),
    )


# the 0-based S3 transposition of edges p and q, per ordered pair (p, q)
_TRANSPOSITIONS = {
    (p, q): tuple(q - 1 if e == p else p - 1 if e == q else e - 1 for e in (1, 2, 3))
    for p in (1, 2, 3)
    for q in (1, 2, 3)
    if p != q
}


def _transposition(p, q):
    """The 0-based S3 transposition of edges p and q, distinct integers in
    1..3 under the integral rule, read from _TRANSPOSITIONS; int edges pass
    without the rule's call."""
    if type(p) is not int or type(q) is not int:
        p, q = _integral(p, "edge"), _integral(q, "edge")
    perm = _TRANSPOSITIONS.get((p, q))
    if perm is None:
        raise ValueError(f"need two distinct edges among 1..3, got {(p, q)}")
    return perm


def canonical_tokens(defect, hairs):
    """The ordered orientation list of the graph.

    Junction hair tips first, then their hair edges, then the two junctions,
    then the first segment of each edge, then per edge and per hair the block
    (subdivision vertex, hair edge, hair tip, next segment).  Edge e consists
    of segments ("seg", e, 0..hairs[e]), oriented left junction to right.
    """
    return _tokens(*_validate(defect, hairs), _KINDS)


def _tokens(defect, hairs, kinds):
    """canonical_tokens of validated input, keeping only tokens of the given kinds."""
    sides = (1, 2)[:defect]
    head = [("tip", s) for s in sides] + [("tipedge", s) for s in sides]
    head += [("junction", 1), ("junction", 2)] + [("seg", e, 0) for e in (1, 2, 3)]
    tokens = [token for token in head if token[0] in kinds]
    block = [kind for kind in _BLOCK if kind in kinds]
    for e, count in zip((1, 2, 3), hairs):
        tokens += [(kind, e, i) for i in range(1, count + 1) for kind in block]
    return tokens


def token_parity(token, case):
    """Degree parity of a token: m for hair tips, N for internal vertices,
    N-1 for edge pieces."""
    kind = token[0]
    if kind in ("tip", "hairtip"):
        return 1 if case.m_odd else 0
    if kind in ("junction", "hairvert"):
        return 1 if case.n_odd else 0
    if kind in ("tipedge", "hairedge", "seg"):
        return 0 if case.n_odd else 1
    raise ValueError(f"unknown token {token!r}")


@lru_cache(maxsize=4)  # one entry per parity case
def _odd_kinds(case):
    """The token kinds of odd degree in the case, read off token_parity."""
    return frozenset(kind for kind in _KINDS if token_parity((kind,), case))


def _permutation_sign(perm):
    """(-1)^(n - cycles) of perm, a permutation of range(n)."""
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


# The canonical layout of the odd tokens (_layout): head maps each odd head
# token, keyed by its first two entries (so ("seg", e, 0) is ("seg", e)), to
# its slot, in canonical order; rank maps each odd block kind to its place
# within a hair block; turns is _head_turns(defect, head); b is the number
# of odd kinds per block, length the number of head slots, and seg whether
# segments are odd.
_Layout = namedtuple("_Layout", "head rank turns b length seg")


@lru_cache(maxsize=12)  # one entry per (defect, parity case)
def _layout(defect, odd):
    """The _Layout of the odd tokens at a defect, so the engine's head
    parities and sizes are derived here, once per layout."""
    head = {token[:2]: n for n, token in enumerate(_tokens(defect, (0, 0, 0), odd))}
    rank = {kind: r for r, kind in enumerate(kind for kind in _BLOCK if kind in odd)}
    turns = _head_turns(defect, head)
    return _Layout(head, rank, turns, len(rank), len(head), "seg" in rank)


def _head_turns(defect, head):
    """{symmetry: (images, sign)} for the head slots of a layout's head table.

    images lists, in canonical order, the slot each head token goes to, and
    sign is its cycle parity.  The symmetry "reflect" swaps the junction
    sides, (kind, s) -> (kind, 3 - s), and fixes the first segments (the
    reflection's segment pairs are counted by _involution_sign); the 0-based
    transposition perm of an edge swap fixes the sides and sends ("seg", e)
    to ("seg", perm[e - 1] + 1).  Defect 1 has no "reflect" entry.
    """
    turns = {}
    if defect != 1:
        turns["reflect"] = [head[kind, x if kind == "seg" else 3 - x] for kind, x in head]
    for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
        turns[perm] = [head[kind, perm[x - 1] + 1 if kind == "seg" else x] for kind, x in head]
    return {key: (images, _permutation_sign(images)) for key, images in turns.items()}


def _block_permutation_sign(sign, ranges):
    """Sign of a slot permutation that maps the head into itself with cycle
    parity sign and the later slots in order onto three ranges, (target
    start, length) each in source order.  Nothing leaves the head and each
    range keeps its order, so it is sign times -1 per reordered pair of
    ranges whose lengths' product is odd."""
    (s1, n1), (s2, n2), (s3, n3) = ranges
    pairs = n1 * n2 * (s1 > s2) + n1 * n3 * (s1 > s3) + n2 * n3 * (s2 > s3)
    return -sign if pairs % 2 else sign


def _involution_sign(sign, b, seg, hairs):
    """sign times -1 per pair of slots that the reflection exchanges on the
    edges, b odd kinds per hair block and seg true when segments are odd.
    On edge e every odd kind but the segment pairs block i with block
    k_e + 1 - i, floor(k_e / 2) pairs, and the segments pair j with k_e - j
    over k_e + 1 slots, floor((k_e + 1) / 2) pairs: b * floor(k_e / 2) +
    seg * (k_e mod 2) pairs per edge."""
    k1, k2, k3 = hairs
    pairs = b * (k1 // 2 + k2 // 2 + k3 // 2) + seg * (k1 % 2 + k2 % 2 + k3 % 2)
    return -sign if pairs % 2 else sign


def _reversal_sign(case, pieces):
    """(-1)^N per reversed edge piece."""
    return -1 if case.n_odd and pieces % 2 else 1


def vertical_reflection_sign(defect, hairs, case):
    """First-principles sign of the junction-exchanging reflection.

    The reflection swaps the two junctions and everything attached to them,
    reverses each edge (hair i from the left becomes hair i from the right,
    segment j becomes segment hairs[e]-j), and flips the orientation of every
    edge segment; hair edges keep their tip-outward direction.  At defect 1
    the reflection moves the junction hair to the other junction, a different
    graph presentation, so no self-symmetry sign exists and we refuse.

    The reflection is an involution that fixes the hair counts, so its slot
    permutation is a product of disjoint exchanges of two slots and its sign
    is -1 per exchange.  In _layout's head, (kind, s) and (kind, 3 - s) are
    exchanged: the head parity with the junction sides swapped and the first
    segments fixed, _head_turns' "reflect" entry.  By the layout, token
    (kind, e, i) of a non-segment kind sits at starts[e] + (i - 1) * b +
    rank[kind] and goes to block k_e + 1 - i at the same rank, so each such
    kind makes floor(k_e / 2) exchanges on edge e.  Segment j goes to segment k_e - j,
    where segment 0 is the head slot ("seg", e) and segment j >= 1 sits in
    block j: an odd segment kind makes floor((k_e + 1) / 2) exchanges.
    Together, b * floor(k_e / 2) + [seg odd] * (k_e mod 2) per edge
    (_involution_sign), times (-1)^N per reversed edge piece.  No step
    branches on a hair count, and no list of block slots is built.
    """
    defect, hairs = _validate(defect, hairs)
    if defect == 1:
        raise UnsupportedSymmetryError(
            "the vertical reflection is not a self-map at defect 1"
        )
    _, _, turns, b, _, seg = _layout(defect, _odd_kinds(case))
    sign = _involution_sign(turns["reflect"][1], b, seg, hairs)
    return sign * _reversal_sign(case, sum(hairs) + 3)


def edge_swap_sign(defect, hairs, case, p, q):
    """First-principles sign of transposing edges p and q (1-based).

    Maps the graph with hair counts `hairs` to the one with counts swapped;
    junction data is fixed and no edge piece is reversed, and the sign is
    the head's cycle parity (_head_turns' entry for the transposition)
    times (-1)^(b * sum k_e * k_f) over the pairs of edges e < f whose
    blocks change order.  Two one-hair edges, m even and N odd:

    >>> from theta_homology.cases import CASE_EO
    >>> edge_swap_sign(0, (1, 1, 0), CASE_EO, 1, 2)
    -1
    """
    defect, hairs = _validate(defect, hairs)
    perm = _transposition(p, q)
    _, _, turns, b, length, _ = _layout(defect, _odd_kinds(case))
    p1, p2, p3 = perm
    k1, k2, k3 = hairs
    # the target's counts are hairs permuted, so its edges' first blocks
    # start at these slots (0-based edges); the b * k_e block slots of edge
    # e land, in order, on those of edge perm[e]
    starts = (length, length + b * hairs[p1], length + b * (hairs[p1] + hairs[p2]))
    ranges = ((starts[p1], b * k1), (starts[p2], b * k2), (starts[p3], b * k3))
    return _block_permutation_sign(turns[perm][1], ranges)


def vertical_reflection_sign_formula(defect, hairs, case):
    """The reflection sign at defects 2 and 0, read from the algebra: the
    mirror eigenvalue of x^hairs in the case's flavor, times the case's
    defect2_mirror_sign at defect 2 (the junction hairs are swapped)."""
    defect, hairs = _validate(defect, hairs)
    if defect == 1:
        raise UnsupportedSymmetryError(
            "no closed form: the vertical reflection is not a self-map at defect 1"
        )
    sign = mirror_sign(case.flavor, hairs)
    return sign * case.defect2_mirror_sign if defect == 2 else sign


def edge_swap_sign_formula(hairs, case, p, q):
    """The sign of transposing edges p and q, read from the algebra: the S3
    sign of the generator transposition (p-1, q-1) on x^hairs in the case's
    flavor.  Junction data plays no part, so there is no defect argument."""
    hairs = _validate(0, hairs)[1]
    return _act(case.flavor, _transposition(p, q), hairs)[1]
