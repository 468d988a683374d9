"""Closed-form answers: generating functions, rank formulas, Euler relation.

For each parity case the graded dimensions of the two surviving homology
groups, a_k = dim H0 and b_k = dim H1 at Hodge degree k, have rational
generating functions h0(t), h1(t), and the graded Euler characteristic has
chi(t).  They are kept as data: one table holds the twelve numerators, and
_fraction adds each case's denominator, which follows from its period.
Every denominator has constant term 1, so series expands them in the
integers, by the linear recurrence the denominator imposes on the
coefficients; no symbolic algebra is needed.

The same dimensions have direct piecewise formulas (floors and ceilings with
mod-2 or mod-4 side conditions), transcribed without simplification in
rank_formula; and the three series of a case are tied together by

    chi(t) = (-1)^(N-1) [h0(s t) - h1(s t)],   s = (-1)^(N-m),

which euler_relation_check verifies coefficient by coefficient.
"""

from __future__ import annotations

from .algebra import _integral

# The largest kmax a series is expanded to, so that a huge one raises instead
# of running for minutes.  It admits the CLI's TERMS_CAP (10^4) tenfold.
_MAX_KMAX = 10**5

# The stored series of a case, in the order of _NUMERATORS' entries.
SERIES_NAMES = ("h0", "h1", "chi")

# The numerators of each case's (h0, h1, chi), as {power: coefficient}.
_NUMERATORS = {
    "oo": ({2: 1, 6: 1, 8: -1}, {1: 1}, {1: -1, 6: 1, 7: 1}),  # h0 = 1/den - 1
    "ee": ({6: 1}, {7: 1}, {6: -1}),
    "eo": ({3: 1, 11: 1, 14: 1, 15: -1}, {1: 1, 16: 1}, {1: 1, 11: -1, 13: -1, 14: 1}),
    "oe": ({2: 1, 11: 1}, {4: 1, 13: 1}, {2: -1, 11: 1}),
}


def _fraction(case, which):
    """The case's stored series `which` as (numerator, denominator), each a
    {power: coefficient} map.

    The denominator is (1 - t^2p)(1 - t^6p) for h0 and h1 and
    (1 + t^p)(1 - t^6p) for chi, with period p = 2 in the odd flavors and 1
    in the commuting ones, written expanded; its constant term is 1.
    """
    p = 1 + case.flavor.odd
    if which == "chi":
        den = {0: 1, p: 1, 6 * p: -1, 7 * p: -1}
    else:
        den = {0: 1, 2 * p: -1, 6 * p: -1, 8 * p: 1}
    return _NUMERATORS[case.key][SERIES_NAMES.index(which)], den


def series(case, which, kmax):
    """Coefficients t^0..t^kmax, as ints, of the case's h0, h1 or chi (one
    of SERIES_NAMES); kmax follows algebra._integral and is at most
    _MAX_KMAX.

    >>> from theta_homology.cases import CASE_OO
    >>> series(CASE_OO, "h0", 6)  # parts of size 2 and 6, minus the empty one
    [0, 0, 1, 0, 1, 0, 2]
    """
    if which not in SERIES_NAMES:
        raise ValueError(f"which must be h0, h1, or chi, got {which!r}")
    kmax = _integral(kmax, "kmax", 0, _MAX_KMAX)
    num, den = _fraction(case, which)
    # den * out = num with den[0] = 1: out[k] = num[k] - sum den[j] out[k - j]
    tail = [(j, -d) for j, d in den.items() if j]
    out = []
    for k in range(kmax + 1):
        out.append(num.get(k, 0) + sum(d * out[k - j] for j, d in tail if j <= k))
    return out


def _ceil_div(p, q):
    return -((-p) // q)


def rank_formula(case, which, k):
    """The piecewise formula for a_k (which="a") or b_k (which="b").

    Transcribed with the exact floors, ceilings, and residue conditions;
    no simplification, so the code stays a faithful witness.
    """
    k = _integral(k, "k", 1)
    if which not in ("a", "b"):
        raise ValueError(f"which must be 'a' or 'b', got {which!r}")
    if case.m_odd and case.n_odd:
        if which == "a":
            return _ceil_div(k + 1, 6) if k % 2 == 0 else 0
        return _ceil_div(k, 6) if k % 2 == 1 else 0
    if not case.m_odd and not case.n_odd:
        if which == "a":
            return k // 6 if k % 2 == 0 else 0
        return k // 6 if k % 2 == 1 else 0
    if case.n_odd:  # m even, N odd
        if which == "a":
            if k % 4 in (0, 1):
                return 0
            if k % 4 == 2:
                return k // 12
            return _ceil_div(k + 2, 12)
        if k % 4 in (2, 3):
            return 0
        if k % 4 == 0:
            return (k - 1) // 12
        return _ceil_div(k, 12)
    # m odd, N even
    if which == "a":
        if k % 4 in (0, 1):
            return 0
        if k % 4 == 2:
            return _ceil_div(k, 12)
        return (k + 1) // 12
    if k % 4 in (2, 3):
        return 0
    if k % 4 == 1:
        return k // 12
    return _ceil_div(k, 12)


def euler_sign(case, k):
    """(-1)^(N-1+k(N-m)), from the parities: N-1 = 1 + N and N-m = m + N mod 2.

    The sign of chi_k against a_k - b_k in the Euler relation.  It is also
    (-1) to the total degree k(N-m-2) + N-3 of a defect-0 graph with k hairs,
    whose parity is the same.
    """
    k = _integral(k, "k", 0)
    return -1 if (1 + case.n_odd + k * (case.m_odd + case.n_odd)) % 2 else 1


def euler_relation_check(case, kmax):
    """chi(t) == (-1)^(N-1) [h0(s t) - h1(s t)] with s = (-1)^(N-m), through t^kmax."""
    a, b, chi = (series(case, which, kmax) for which in SERIES_NAMES)
    return all(chi[k] == euler_sign(case, k) * (a[k] - b[k]) for k in range(len(chi)))
