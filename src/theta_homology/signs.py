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
and edge_swap_sign, the engine, compute it from that definition alone, by
explicitly building token lists, mapping the odd-degree tokens (even ones
never change the sign) and taking the cycle parity of the permutation they
undergo.  The *_formula functions read the sign rules the complexes are
built from, algebra.mirror_sign and algebra._act, so the test-suite and the
`signs` CLI mode check those rules against the engine.

Two symmetries matter downstream: the vertical reflection, exchanging the
two junctions (it fixes the hair counts, and a graph whose reflection sign is
-1 is zero modulo orientation relations), and the transpositions of two of
the three edges (they realize the S3 action on hair triples).
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import _act, _integral, mirror_sign

_BLOCK = ("hairvert", "hairedge", "hairtip", "seg")
_KINDS = frozenset(("tip", "tipedge", "junction") + _BLOCK)


class UnsupportedSymmetryError(ValueError):
    """The requested symmetry has no well-defined self-map on this graph."""


def _validate(defect, hairs):
    """(defect, hairs) as ints under the integral rule, or ValueError."""
    defect = _integral(defect, "defect")
    if defect not in (0, 1, 2):
        raise ValueError(f"defect must be 0, 1, or 2, got {defect!r}")
    k1, k2, k3 = (_integral(k, "hair count", 0) for k in hairs)
    return defect, (k1, k2, k3)


def _transposition(p, q):
    """The 0-based S3 transposition of edges p and q, distinct integers in 1..3."""
    p, q = _integral(p, "edge"), _integral(q, "edge")
    if p == q or not {p, q} <= {1, 2, 3}:
        raise ValueError(f"need two distinct edges among 1..3, got {(p, q)}")
    perm = [0, 1, 2]
    perm[p - 1], perm[q - 1] = q - 1, p - 1
    return tuple(perm)


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


def _mapped_sign(defect, hairs, case, image, target_hairs, reversed_edges):
    """Koszul sign of `image` onto (defect, target_hairs), (-1)^N per reversed piece.

    Only the odd tokens are mapped: `image` keeps each token's kind, so it
    sends them to the odd tokens of the target, and their permutation of
    slots carries the whole Koszul sign.
    """
    odd = _odd_kinds(case)
    source = _tokens(defect, hairs, odd)
    target = source if target_hairs == hairs else _tokens(defect, target_hairs, odd)
    index = {token: i for i, token in enumerate(target)}
    positions = [index[image(token)] for token in source]
    return _permutation_sign(positions) * (-1) ** (case.n_odd * reversed_edges)


def vertical_reflection_sign(defect, hairs, case):
    """First-principles sign of the junction-exchanging reflection.

    The reflection swaps the two junctions and everything attached to them,
    reverses each edge (hair i from the left becomes hair i from the right,
    segment j becomes segment hairs[e]-j), and flips the orientation of every
    edge segment; hair edges keep their tip-outward direction.  At defect 1
    the reflection moves the junction hair to the other junction, a different
    graph presentation, so no self-symmetry sign exists and we refuse.
    """
    defect, hairs = _validate(defect, hairs)
    if defect == 1:
        raise UnsupportedSymmetryError(
            "the vertical reflection is not a self-map at defect 1"
        )

    def image(token):
        kind = token[0]
        if kind in ("tip", "tipedge", "junction"):
            return (kind, 3 - token[1])
        e = token[1]
        if kind == "seg":
            return (kind, e, hairs[e - 1] - token[2])
        return (kind, e, hairs[e - 1] + 1 - token[2])

    reversed_edges = sum(hairs) + 3
    return _mapped_sign(defect, hairs, case, image, hairs, reversed_edges)


def edge_swap_sign(defect, hairs, case, p, q):
    """First-principles sign of transposing edges p and q (1-based).

    Maps the graph with hair counts `hairs` to the one with counts swapped;
    junction data is fixed and no edge piece is reversed.  Two edges that
    carry one hair each, in a case with m even and N odd:

    >>> from theta_homology.cases import CASE_EO
    >>> edge_swap_sign(0, (1, 1, 0), CASE_EO, 1, 2)
    -1
    """
    defect, hairs = _validate(defect, hairs)
    perm = _transposition(p, q)
    edge = {1: perm[0] + 1, 2: perm[1] + 1, 3: perm[2] + 1}

    def image(token):
        kind = token[0]
        if kind in ("tip", "tipedge", "junction"):
            return token
        return (kind, edge[token[1]], token[2])

    target = (hairs[perm[0]], hairs[perm[1]], hairs[perm[2]])
    return _mapped_sign(defect, hairs, case, image, target, 0)


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
