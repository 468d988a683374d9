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

from dataclasses import dataclass

from .algebra import ASYM, ASYM_ODD, SYM, SYM_ODD


@dataclass(frozen=True)
class ParityCase:
    m_odd: bool
    n_odd: bool

    @property
    def key(self):
        return ("o" if self.m_odd else "e") + ("o" if self.n_odd else "e")

    @property
    def flavor(self):
        if self.m_odd and self.n_odd:
            return SYM
        if not self.m_odd and not self.n_odd:
            return ASYM
        if self.n_odd:
            return SYM_ODD
        return ASYM_ODD

    @property
    def defect2_mirror_sign(self):
        """Mirror eigenvalue cutting out the defect-2 space (-1 commuting, +1 odd),
        also the defect-2 factor of the graph's reflection sign (which swaps
        the junction hairs): C2 is the set of graphs whose reflection sign is +1."""
        return 1 if self.flavor.odd else -1

    def __str__(self):
        return self.key


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
