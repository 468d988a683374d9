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
tokens (even ones never change the sign) in the order of canonical_tokens:
the head (junction hairs, junctions, first segments) first, then per edge
its hair blocks of b odd slots each.  A symmetry moves whole hair blocks,
and two rules give its sign without a list of slots, so the engine costs
the same at any hair count:

- An involution's sign is -1 per exchanged pair of odd slots.  The
  reflection is one: it exchanges (kind, 1) with (kind, 2) for each junction
  side kind, one pair per odd side-1 token of the head, pairs block i of
  edge e with block k_e + 1 - i per odd kind, and pairs segment j with
  segment k_e - j, where segment 0 is in the head (_involution_sign).
- A permutation that maps the head into itself and the later slots, in
  order, onto three ranges has the head's sign times -1 per pair of ranges
  that it reorders and whose lengths' product is odd
  (_block_permutation_sign).  An edge swap is one: its head map exchanges
  two first segments, one pair exactly when segments are odd, and edge e's
  blocks land on one range of the target edge.

_layout reads b off token_parity and the two head signs off the odd tokens
of the head, once per (defect, case).  The engine reads no formula.  The *_formula functions
read the sign rules the complexes are built from, algebra.mirror_sign and
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
# the longest orientation list canonical_tokens builds, so that a huge hair
# count raises instead of allocating until the process is killed
_MAX_TOKENS = 10**5


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
    A list of more than _MAX_TOKENS tokens raises ValueError.
    """
    defect, hairs = _validate(defect, hairs)
    total = 5 + 2 * defect + 4 * sum(hairs)
    if total > _MAX_TOKENS:
        raise ValueError(f"the orientation list has {total} tokens, more than {_MAX_TOKENS}")
    sides = (1, 2)[:defect]
    tokens = [("tip", s) for s in sides] + [("tipedge", s) for s in sides]
    tokens += [("junction", 1), ("junction", 2)] + [("seg", e, 0) for e in (1, 2, 3)]
    for e, count in zip((1, 2, 3), hairs):
        tokens += [(kind, e, i) for i in range(1, count + 1) for kind in _BLOCK]
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


# What the engine reads of a (defect, case) layout: b, the number of odd
# kinds per hair block; seg, whether segments are odd; and the signs of the
# reflection's and of every edge swap's head maps.
_Layout = namedtuple("_Layout", "b seg reflect swap")


@lru_cache(maxsize=12)  # one entry per (defect, parity case)
def _layout(defect, case):
    """The _Layout of the odd tokens of canonical_tokens at a defect.

    The reflection's head map exchanges (kind, 1) with (kind, 2) for each
    junction side kind and fixes the first segments, so its sign is -1 per
    odd side-1 token of the head; an edge swap's head map exchanges two
    first segments and fixes the rest, so its sign is -1 when segments are
    odd.  The reflect sign at defect 1, where no reflection exists, is
    never read.
    """
    head = [token for token in canonical_tokens(defect, (0, 0, 0)) if token_parity(token, case)]
    b = sum(token_parity((kind,), case) for kind in _BLOCK)
    seg = token_parity(("seg",), case)
    sides = sum(kind != "seg" and side == 1 for kind, side, *_ in head)
    return _Layout(b, seg, -1 if sides % 2 else 1, -1 if seg else 1)


def _block_permutation_sign(sign, ranges):
    """Sign of a slot permutation that maps the head into itself with sign
    sign and the later slots in order onto three ranges, (target start,
    length) each in source order.  Nothing leaves the head and each
    range keeps its order, so it is sign times -1 per reordered pair of
    ranges whose lengths' product is odd; only the starts' order counts, so
    they may be measured from any origin."""
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
    is -1 per exchange.  In the head, (kind, 1) and (kind, 2) are exchanged
    and the first segments are fixed: _layout's reflect sign.  Token
    (kind, e, i) of a non-segment kind goes to block k_e + 1 - i at the same
    place in a block, so each such odd kind makes floor(k_e / 2) exchanges
    on edge e.  Segment j goes to segment k_e - j, where segment 0 is in the
    head and segment j >= 1 in block j: an odd segment kind makes
    floor((k_e + 1) / 2) exchanges.  Together, b * floor(k_e / 2) + [seg
    odd] * (k_e mod 2) per edge (_involution_sign), times (-1)^N per
    reversed edge piece, k_1 + k_2 + k_3 + 3 of them.  No step branches on
    a hair count, and no list of block slots is built.
    """
    defect, hairs = _validate(defect, hairs)
    if defect == 1:
        raise UnsupportedSymmetryError(
            "the vertical reflection is not a self-map at defect 1"
        )
    b, seg, reflect, _ = _layout(defect, case)
    sign = _involution_sign(reflect, b, seg, hairs)
    return -sign if case.n_odd and (sum(hairs) + 3) % 2 else sign


def edge_swap_sign(defect, hairs, case, p, q):
    """First-principles sign of transposing edges p and q (1-based).

    Maps the graph with hair counts `hairs` to the one with counts swapped;
    junction data is fixed and no edge piece is reversed, and the sign is
    _layout's swap sign for the head times (-1)^(b * sum k_e * k_f) over
    the pairs of edges e < f whose blocks change order.  Two one-hair
    edges, m even and N odd:

    >>> from theta_homology.cases import CASE_EO
    >>> edge_swap_sign(0, (1, 1, 0), CASE_EO, 1, 2)
    -1
    """
    defect, hairs = _validate(defect, hairs)
    perm = _transposition(p, q)
    b, _, _, swap = _layout(defect, case)
    p1, p2, p3 = perm
    k1, k2, k3 = hairs
    # the target's counts are hairs permuted, so its edges' first blocks
    # start at these offsets from its first block (0-based edges); the
    # b * k_e block slots of edge e land, in order, on those of edge perm[e]
    starts = (0, b * hairs[p1], b * (hairs[p1] + hairs[p2]))
    ranges = ((starts[p1], b * k1), (starts[p2], b * k2), (starts[p3], b * k3))
    return _block_permutation_sign(swap, ranges)


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
