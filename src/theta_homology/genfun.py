"""Closed-form answers: generating functions, rank formulas, Euler relation.

For each parity case the graded dimensions of the two surviving homology
groups, a_k = dim H0 and b_k = dim H1 at Hodge degree k, have rational
generating functions h0(t), h1(t), and the graded Euler characteristic has
chi(t); the twelve functions are stored verbatim as numerator/denominator
coefficient tuples.  Every denominator has constant term +-1, so series
expansion stays in the integers, by the linear recurrence the denominator
imposes on the coefficients; no symbolic algebra is needed.

The same dimensions have direct piecewise formulas (floors and ceilings with
mod-2 or mod-4 side conditions), transcribed without simplification in
rank_formula; and the three series of a case are tied together by

    chi(t) = (-1)^(N-1) [h0(s t) - h1(s t)],   s = (-1)^(N-m),

which euler_relation_check verifies coefficient by coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import _integral


def poly_mul(a, b):
    """Convolution of integer coefficient tuples."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def poly_sub(a, b):
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)
    )


def one_minus_power(n):
    """1 - t^n as a coefficient tuple."""
    return (1,) + (0,) * (n - 1) + (-1,)


def t_power(n, coefficient=1):
    """coefficient * t^n as a coefficient tuple."""
    return (0,) * n + (coefficient,)


@dataclass(frozen=True)
class GeneratingFunction:
    """num/den with integer coefficients (algebra._integral) and den[0] = +-1."""

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __post_init__(self):
        for name in ("numerator", "denominator"):
            coefficients = getattr(self, name)
            coefficients = tuple(_integral(c, f"{name} coefficient") for c in coefficients)
            object.__setattr__(self, name, coefficients)
        if not self.denominator or self.denominator[0] not in (1, -1):
            raise ValueError("denominator needs constant term 1 or -1")

    def coefficients(self, kmax):
        """Maclaurin coefficients of t^0 .. t^kmax, as ints."""
        kmax = _integral(kmax, "kmax", 0)
        num, den = self.numerator, self.denominator
        out = []
        for k in range(kmax + 1):
            acc = num[k] if k < len(num) else 0
            for j in range(1, min(k, len(den) - 1) + 1):
                acc -= den[j] * out[k - j]
            out.append(acc // den[0])
        return out


def formulas(case):
    """The stored series of the case, {"h0": ..., "h1": ..., "chi": ...},
    each a GeneratingFunction with its shape kept as displayed."""
    if case.m_odd and case.n_odd:
        den = poly_mul(one_minus_power(2), one_minus_power(6))
        chi_den = poly_mul((1, 1), one_minus_power(6))
        return {
            "h0": GeneratingFunction(poly_sub((1,), den), den),  # 1/den - 1
            "h1": GeneratingFunction(t_power(1), den),
            "chi": GeneratingFunction(poly_sub((1,), chi_den), chi_den),
        }
    if not case.m_odd and not case.n_odd:
        den = poly_mul(one_minus_power(2), one_minus_power(6))
        chi_den = poly_mul((1, 1), one_minus_power(6))
        return {
            "h0": GeneratingFunction(t_power(6), den),
            "h1": GeneratingFunction(t_power(7), den),
            "chi": GeneratingFunction(t_power(6, -1), chi_den),
        }
    den = poly_mul(one_minus_power(4), one_minus_power(12))
    chi_den = poly_mul((1, 0, 1), one_minus_power(12))
    if case.n_odd:  # m even, N odd
        return {
            "h0": GeneratingFunction(_sum_powers({3: 1, 11: 1, 14: 1, 15: -1}), den),
            "h1": GeneratingFunction(_sum_powers({1: 1, 16: 1}), den),
            "chi": GeneratingFunction(_sum_powers({1: 1, 11: -1, 13: -1, 14: 1}), chi_den),
        }
    return {  # m odd, N even
        "h0": GeneratingFunction(_sum_powers({2: 1, 11: 1}), den),
        "h1": GeneratingFunction(_sum_powers({4: 1, 13: 1}), den),
        "chi": GeneratingFunction(_sum_powers({2: -1, 11: 1}), chi_den),
    }


def _sum_powers(powers):
    out = [0] * (max(powers) + 1)
    for n, c in powers.items():
        out[n] = c
    return tuple(out)


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
    """(-1)^(N-1+k(N-m)), from the case's representative (m, N).

    The sign of chi_k against a_k - b_k in the Euler relation.  It is also
    (-1) to the total degree k(N-m-2) + N-3 of a defect-0 graph with k hairs,
    whose parity is the same and depends only on the parities of m and N.
    """
    k = _integral(k, "k", 0)
    m, n = case.representative
    return -1 if (n - 1 + k * (n - m)) % 2 else 1


def euler_relation_check(case, kmax):
    """chi(t) == (-1)^(N-1) [h0(s t) - h1(s t)] with s = (-1)^(N-m), through t^kmax."""
    f = formulas(case)
    a, b, chi = (f[which].coefficients(kmax) for which in ("h0", "h1", "chi"))
    return all(
        chi[k] == euler_sign(case, k) * (a[k] - b[k]) for k in range(kmax + 1)
    )
