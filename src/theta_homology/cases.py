"""The four parity cases of the two-loop complexes.

Only the parities of the two degree parameters (m, N) matter, in the stable
range N >= 2m + 2: m is the degree carried by an external (hair-end) vertex,
N by an internal one, and every structural choice downstream, the algebra
flavor, the mirror eigenvalue selecting the defect-2 space, the signs in the
differentials and the Euler sign, depends on those parities alone.  Case
keys are two letters, the parity of m first: "oo", "ee", "eo", "oe" ("eo"
means m even, N odd).
"""

from __future__ import annotations

from .algebra import ASYM, ASYM_ODD, SYM, SYM_ODD, _Frozen, _intern


class ParityCase(_Frozen):
    """The parities of (m, N), with what follows from them stored at interning.

    There is one instance per pair of bools, the module's four, and the
    constructor returns it, so equality and hashing are by identity.  key is
    the two-letter name; flavor the algebra flavor, read from a table;
    defect2_mirror_sign the mirror eigenvalue cutting out the defect-2 space
    (-1 commuting, +1 odd), also the defect-2 factor of the graph's
    reflection sign (which swaps the junction hairs): C2 is the set of graphs
    whose reflection sign is +1.
    """

    __slots__ = ("m_odd", "n_odd", "key", "flavor", "defect2_mirror_sign")

    def __new__(cls, m_odd, n_odd):
        try:
            return _CASE_OF[m_odd, n_odd]
        except KeyError:
            raise ValueError(
                f"a parity case is a pair of bools, got {(m_odd, n_odd)!r}"
            ) from None

    def __reduce__(self):
        return ParityCase, (self.m_odd, self.n_odd)

    def __repr__(self):
        return f"ParityCase(m_odd={self.m_odd!r}, n_odd={self.n_odd!r})"

    def __str__(self):
        return self.key


_FLAVOR_OF_KEY = {"oo": SYM, "ee": ASYM, "eo": SYM_ODD, "oe": ASYM_ODD}


def _case(m_odd, n_odd):
    key = ("o" if m_odd else "e") + ("o" if n_odd else "e")
    flavor = _FLAVOR_OF_KEY[key]
    return _intern(ParityCase, m_odd, n_odd, key, flavor, 1 if flavor.odd else -1)


_CASE_OF = {
    (m_odd, n_odd): _case(m_odd, n_odd)
    for m_odd in (True, False)
    for n_odd in (True, False)
}
CASE_OO = ParityCase(m_odd=True, n_odd=True)
CASE_EE = ParityCase(m_odd=False, n_odd=False)
CASE_EO = ParityCase(m_odd=False, n_odd=True)
CASE_OE = ParityCase(m_odd=True, n_odd=False)
ALL_CASES = (CASE_OO, CASE_EE, CASE_EO, CASE_OE)


def case_from_key(key):
    for case in ALL_CASES:
        if case.key == key:
            return case
    raise ValueError(f"unknown case {key!r} (expected one of oo, ee, eo, oe)")
