"""Closed-form answers: generating functions, rank formulas, Euler relation.

For each parity case the graded dimensions of the two surviving homology
groups, a_k = dim H0 and b_k = dim H1 at Hodge degree k, have rational
generating functions h0(t), h1(t), and the graded Euler characteristic has
chi(t).  Their twelve numerators are stored in one table, and the
denominators follow each case's period.  Every denominator has constant term
+-1, so series expansion stays in the integers, by the linear recurrence the
denominator imposes on the coefficients; no symbolic algebra is needed.

The same dimensions have direct piecewise formulas (floors and ceilings with
mod-2 or mod-4 side conditions), transcribed without simplification in
rank_formula; and the three series of a case are tied together by

    chi(t) = (-1)^(N-1) [h0(s t) - h1(s t)],   s = (-1)^(N-m),

which euler_relation_check verifies coefficient by coefficient.
"""

from __future__ import annotations

from .algebra import _assign, _Frozen, _integral

# The largest kmax a series is expanded to, so that a huge one raises instead
# of running for minutes.  It admits the CLI's TERMS_CAP (10^4) tenfold.
_MAX_KMAX = 10**5


def poly_mul(a, b):
    """Convolution of integer coefficient tuples."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _sum_powers(powers):
    """The polynomial sum of c t^n over powers {n: c}, as a coefficient tuple."""
    out = [0] * (max(powers) + 1)
    for n, c in powers.items():
        out[n] = c
    return tuple(out)


class GeneratingFunction(_Frozen):
    """num/den with integer coefficients (algebra._integral) and den[0] = +-1;
    equal when both coefficient tuples are."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator):
        numerator = tuple(_integral(c, "numerator coefficient") for c in numerator)
        denominator = tuple(_integral(c, "denominator coefficient") for c in denominator)
        if not denominator or denominator[0] not in (1, -1):
            raise ValueError("denominator needs constant term 1 or -1")
        _assign(self, numerator, denominator)

    def __eq__(self, other):
        if type(other) is not GeneratingFunction:
            return NotImplemented
        return (self.numerator, self.denominator) == (other.numerator, other.denominator)

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def coefficients(self, kmax):
        """Maclaurin coefficients of t^0 .. t^kmax, as ints; kmax is at most
        _MAX_KMAX."""
        kmax = _integral(kmax, "kmax", 0, _MAX_KMAX)
        num, den = self.numerator, self.denominator
        out = []
        for k in range(kmax + 1):
            acc = num[k] if k < len(num) else 0
            for j in range(1, min(k, len(den) - 1) + 1):
                acc -= den[j] * out[k - j]
            out.append(acc // den[0])
        return out


# The numerators of each case's (h0, h1, chi), as {power: coefficient}.
_NUMERATORS = {
    "oo": ({2: 1, 6: 1, 8: -1}, {1: 1}, {1: -1, 6: 1, 7: 1}),  # h0 = 1/den - 1
    "ee": ({6: 1}, {7: 1}, {6: -1}),
    "eo": ({3: 1, 11: 1, 14: 1, 15: -1}, {1: 1, 16: 1}, {1: 1, 11: -1, 13: -1, 14: 1}),
    "oe": ({2: 1, 11: 1}, {4: 1, 13: 1}, {2: -1, 11: 1}),
}


def formulas(case):
    """The stored series of the case, {"h0": ..., "h1": ..., "chi": ...},
    each a GeneratingFunction: its numerator from _NUMERATORS, and the
    denominators (1 - t^2p)(1 - t^6p) for h0 and h1 and (1 + t^p)(1 - t^6p)
    for chi, with period p = 2 in the odd flavors and 1 in the commuting
    ones; every shape is kept as displayed."""
    p = 1 + case.flavor.odd
    six = _sum_powers({0: 1, 6 * p: -1})
    den = poly_mul(_sum_powers({0: 1, 2 * p: -1}), six)
    chi_den = poly_mul(_sum_powers({0: 1, p: 1}), six)
    h0, h1, chi = (_sum_powers(powers) for powers in _NUMERATORS[case.key])
    return {
        "h0": GeneratingFunction(h0, den),
        "h1": GeneratingFunction(h1, den),
        "chi": GeneratingFunction(chi, chi_den),
    }


def series(case, which, kmax):
    """Coefficients t^0..t^kmax of the case's h0, h1, or chi."""
    try:
        g = formulas(case)[which]
    except KeyError:
        raise ValueError(f"which must be h0, h1, or chi, got {which!r}") from None
    return g.coefficients(kmax)


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
    kmax = _integral(kmax, "kmax", 0)
    f = formulas(case)
    a, b, chi = (f[which].coefficients(kmax) for which in ("h0", "h1", "chi"))
    return all(
        chi[k] == euler_sign(case, k) * (a[k] - b[k]) for k in range(kmax + 1)
    )
