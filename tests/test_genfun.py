"""Tests for the closed-form side: generating functions, piecewise rank
formulas, and the Euler relation tying the three series of a case together.

The twelve stored numerator and denominator maps are frozen bit-for-bit,
expanded through t^200 against the piecewise formulas, and checked against a
polynomial multiplication oracle (series times denominator gives back the
numerator).  The comparison with the piecewise formulas, the Euler relation
and the commuting cases' whole tables are each argued to hold at every k
(see their docstrings).
"""

import re
from fractions import Fraction
from functools import partial
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_homology.cases import ALL_CASES, CASE_EE, CASE_EO, CASE_OE, CASE_OO
from theta_homology.complexes import defect0_basis, defect1_basis, defect2_basis
from theta_homology.genfun import (
    _MAX_KMAX,
    SERIES_NAMES,
    _fraction,
    euler_relation_check,
    euler_sign,
    rank_formula,
    series,
)


# Polynomials are coefficient lists; a fraction is a pair (numerator,
# denominator) of them, with a denominator of nonzero constant term, so a
# unit of Q[[t]].


def dense(powers):
    """The coefficient list of the polynomial sum of c t^n over {n: c}."""
    out = [0] * (max(powers) + 1)
    for n, c in powers.items():
        out[n] += c
    return out


def conv(a, b):
    """The product of two polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def plus(a, b):
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def at(poly, s):
    """The coefficients of poly(s t)."""
    return [c * s**k for k, c in enumerate(poly)]


def trimmed(poly):
    poly = list(poly)
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def stored(case, which):
    """The stored series as a fraction."""
    num, den = _fraction(case, which)
    return dense(num), dense(den)


def same(f, g):
    """Whether two fractions are one series: the cross-multiplied polynomials agree."""
    return trimmed(conv(f[0], g[1])) == trimmed(conv(g[0], f[1]))


def add(f, g):
    return plus(conv(f[0], g[1]), conv(g[0], f[1])), conv(f[1], g[1])


def times(poly, f):
    return conv(poly, f[0]), f[1]


def minus_constant(f):
    """f - f(0), with f(0) = num[0] / den[0]."""
    num, den = f
    return plus([den[0] * c for c in num], [-num[0] * c for c in den]), [den[0] * c for c in den]


def even(f):
    """(f(t) + f(-t)) / 2."""
    num, den = f
    num_, den_ = at(num, -1), at(den, -1)
    return plus(conv(num, den_), conv(num_, den)), [2 * c for c in conv(den, den_)]


def odd(f):
    """(f(t) - f(-t)) / 2."""
    return add(f, times([-1], even(f)))


def expand(f, kmax):
    """Coefficients t^0..t^kmax of a fraction whose denominator starts with 1."""
    num, den = f
    out = []
    for k in range(kmax + 1):
        acc = num[k] if k < len(num) else 0
        out.append(acc - sum(den[j] * out[k - j] for j in range(1, min(k, len(den) - 1) + 1)))
    return out


def test_series_examples():
    # parts of size 2 and 6, minus the empty partition
    assert series(CASE_OO, "h0", 6) == [0, 0, 1, 0, 1, 0, 2]
    assert series(CASE_OO, "h1", 7) == [0, 1, 0, 1, 0, 1, 0, 2]
    assert series(CASE_EE, "h0", 6) == [0, 0, 0, 0, 0, 0, 1]
    assert series(CASE_EE, "h1", 7) == [0, 0, 0, 0, 0, 0, 0, 1]
    assert series(CASE_EO, "h0", 3) == [0, 0, 0, 1]
    assert series(CASE_EO, "h1", 1) == [0, 1]
    assert series(CASE_OE, "h0", 2) == [0, 0, 1]
    assert series(CASE_OE, "chi", 2) == [0, 0, -1]
    with pytest.raises(ValueError):
        series(CASE_OO, "h2", 5)


def test_series_checks_which_then_kmax():
    # each with its one text; euler_relation_check reads series, so it raises
    # series' kmax texts
    assert SERIES_NAMES == ("h0", "h1", "chi")
    for which in ("h2", "H0", ["h0"], None):
        text = f"which must be h0, h1, or chi, got {which!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            series(CASE_OO, which, -1)
    for kmax, text in (
        (-1, "kmax must be at least 0, got -1"),
        (1.5, "kmax must be an integer, got 1.5"),
        (10**6, f"kmax must be at most {_MAX_KMAX}, got 1000000"),
    ):
        for call in (partial(series, CASE_OO, "chi"), partial(euler_relation_check, CASE_EO)):
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                call(kmax)


def test_kmax_follows_the_integral_rule():
    # an integral kmax is taken as its int; negative, fractional or bool raises
    assert series(CASE_OO, "h0", 2.0) == series(CASE_OO, "h0", 2) == [0, 0, 1]
    assert all(type(c) is int for c in series(CASE_EO, "chi", 30.0))
    assert series(CASE_OO, "h0", 0) == [0]
    assert series(CASE_OO, "h0", Fraction(4, 2)) == [0, 0, 1]
    assert euler_relation_check(CASE_OO, 2.0) and euler_relation_check(CASE_OO, Fraction(4, 2))
    for kmax in (-1, 1.5, True, Fraction(1, 2), "2", float("inf"), None):
        with pytest.raises(ValueError):
            series(CASE_OO, "h0", kmax)
        with pytest.raises(ValueError):
            euler_relation_check(CASE_OO, kmax)


def test_stored_shapes_frozen():
    # the displayed forms, not any simplification of them
    den26 = (1, 0, -1, 0, 0, 0, -1, 0, 1)
    chiden16 = (1, 1, 0, 0, 0, 0, -1, -1)
    den412 = (1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 1)
    chiden212 = (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, -1)
    want = {
        CASE_OO: (
            ((0, 0, 1, 0, 0, 0, 1, 0, -1), den26),
            ((0, 1), den26),
            ((0, -1, 0, 0, 0, 0, 1, 1), chiden16),
        ),
        CASE_EE: (
            ((0, 0, 0, 0, 0, 0, 1), den26),
            ((0, 0, 0, 0, 0, 0, 0, 1), den26),
            ((0, 0, 0, 0, 0, 0, -1), chiden16),
        ),
        CASE_EO: (
            ((0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, -1), den412),
            ((0, 1) + (0,) * 14 + (1,), den412),
            ((0, 1) + (0,) * 9 + (-1, 0, -1, 1), chiden212),
        ),
        CASE_OE: (
            ((0, 0, 1) + (0,) * 8 + (1,), den412),
            ((0, 0, 0, 0, 1) + (0,) * 8 + (1,), den412),
            ((0, 0, -1) + (0,) * 8 + (1,), chiden212),
        ),
    }
    for case, fractions in want.items():
        for which, (num, den) in zip(SERIES_NAMES, fractions):
            assert stored(case, which) == (list(num), list(den)), (case.key, which)


def test_expansion_matches_polynomial_multiplication():
    # c = num/den as series means conv(c, den) reproduces num
    kmax = 60
    for case in ALL_CASES:
        for which in SERIES_NAMES:
            num, den = stored(case, which)
            product = conv(series(case, which, kmax), den)[: kmax + 1]
            assert product == num + [0] * (kmax + 1 - len(num)), (case.key, which)


def test_rank_formula_examples():
    assert rank_formula(CASE_OO, "a", 12) == 3
    assert rank_formula(CASE_OO, "b", 1) == 1
    assert rank_formula(CASE_OO, "a", 7) == 0
    assert rank_formula(CASE_EE, "a", 12) == 2
    assert rank_formula(CASE_EE, "b", 7) == 1
    assert rank_formula(CASE_EO, "b", 1) == 1
    assert rank_formula(CASE_EO, "a", 14) == 1
    assert rank_formula(CASE_EO, "a", 4) == 0
    assert rank_formula(CASE_OE, "a", 11) == 1
    assert rank_formula(CASE_OE, "b", 13) == 1
    assert rank_formula(CASE_OE, "b", 2) == 0


def test_rank_formula_validation():
    with pytest.raises(ValueError):
        rank_formula(CASE_OO, "a", 0)
    with pytest.raises(ValueError):
        rank_formula(CASE_OO, "c", 3)
    # an integral degree is taken as its int; anything else raises
    assert rank_formula(CASE_OE, "a", 3.0) == rank_formula(CASE_OE, "a", 3)
    assert rank_formula(CASE_OO, "a", Fraction(12, 2)) == rank_formula(CASE_OO, "a", 6) == 2
    assert rank_formula(CASE_OE, "a", 2.0) == rank_formula(CASE_OE, "a", Fraction(4, 2))
    assert rank_formula(CASE_OE, "a", 2.0) == rank_formula(CASE_OE, "a", 2)
    for k in (2.7, Fraction(7, 2), "3", 0.5, True, float("inf"), None, "2"):
        with pytest.raises(ValueError):
            rank_formula(CASE_OE, "a", k)
    # the same rule for euler_sign's k
    for three in (3.0, Fraction(6, 2)):
        assert euler_sign(CASE_EO, three) == euler_sign(CASE_EO, 3)
    for bad in (1.5, True, float("inf"), None, "2", -1):
        with pytest.raises(ValueError):
            euler_sign(CASE_EO, bad)


def test_series_equals_rank_formula():
    """The stored h0 and h1 equal rank_formula's a_k and b_k at every k >= 1.

    On each residue class k = j + 12q (1 <= j <= 12, q >= 0) every branch of
    rank_formula is a floor or ceiling of (k + c)/6 or (k + c)/12, or 0, so
    it is linear in q: r(k) = r(j) + q*(r(j + 12) - r(j)), with integer
    coefficients.  Summing t^j * (beta + alpha*q) * t^(12q) over q gives
    t^j * (beta*(1 - t^12) + alpha*t^12) / (1 - t^12)^2, so rank_formula's
    series R = sum_{k >= 1} r(k) t^k is P/(1 - t^12)^2 with deg P <= 24.
    Let E = A/D - R, for a stored series A/D.  Then
    E * D * (1 - t^12)^2 = A*(1 - t^12)^2 - P*D =: Q, a polynomial of degree
    <= max(deg A, deg D) + 24 (<= 40 for the stored maps).  Coefficient n of
    a product reads only E's coefficients through n, so if E vanishes through
    t^kmax with kmax >= deg Q, then Q = 0; and D*(1 - t^12)^2 has constant
    term +-1, so it is a unit of Z[[t]] and E = 0.  The comparison below runs
    from t^0 (where R has no term) through kmax = 200, and the assertion on
    the bound ties it to the stored maps.
    """
    kmax = 200
    for case in ALL_CASES:
        for which in ("h0", "h1"):
            num, den = _fraction(case, which)
            assert max(*num, *den) + 24 <= kmax
        h0 = series(case, "h0", kmax)
        h1 = series(case, "h1", kmax)
        assert h0[0] == 0 and h1[0] == 0
        for k in range(1, kmax + 1):
            assert h0[k] == rank_formula(case, "a", k), (case.key, "a", k)
            assert h1[k] == rank_formula(case, "b", k), (case.key, "b", k)


def test_support_parity_patterns():
    # a and b live on complementary residues, so at most one is nonzero
    for case in ALL_CASES:
        modulus = 2 if case.m_odd == case.n_odd else 4
        for k in range(1, 201):
            a = rank_formula(case, "a", k)
            b = rank_formula(case, "b", k)
            assert a == 0 or b == 0, (case.key, k)
            if modulus == 2:
                assert a == 0 if k % 2 == 1 else b == 0
            else:
                assert a == 0 if k % 4 in (0, 1) else b == 0


def test_euler_relation():
    """chi_k = euler_sign(case, k) * (a_k - b_k) at every k, as one polynomial
    identity per case.

    euler_sign(case, k) = eps * s^k, with eps = euler_sign(case, 0) and
    s = eps * euler_sign(case, 1), so the relation says chi(t) =
    eps * [h0(s t) - h1(s t)] as power series.  With h0 = A/D, h1 = B/D and
    chi = C/Dchi, that is C(t)/Dchi(t) = eps * (A - B)(s t)/D(s t).  Each
    denominator has constant term +-1, so it is a unit of Z[[t]], and the two
    series agree at every k exactly when the cross-multiplied polynomials
    C(t) * D(s t) and eps * (A - B)(s t) * Dchi(t) agree.  Criterion 5 keeps
    the coefficientwise check through k = 200.
    """
    for case in ALL_CASES:
        eps = euler_sign(case, 0)
        s = eps * euler_sign(case, 1)
        a, den = stored(case, "h0")
        b, den_b = stored(case, "h1")
        assert den_b == den, case.key
        a_minus_b = [eps * c for c in plus(a, [-c for c in b])]
        assert same(stored(case, "chi"), (at(a_minus_b, s), at(den, s))), case.key


@pytest.mark.parametrize("case", [CASE_OO, CASE_EE], ids=["oo", "ee"])
def test_commuting_tables_follow_from_the_triple_count(case):
    """The stored h0, h1 and chi of oo and ee at every t, from C alone.

    The basis of degree d in Sym[x] is every sorted triple, and in ASym[x]
    every strictly decreasing one, so c_d = dim of degree d is the t^d
    coefficient of C = 1/((1-x)(1-x^2)(1-x^3)), or of x^3 C.  The mirror
    sign is (-1)^degree on every admissible triple
    (test_commuting_flavors_mirror_by_the_degree_parity), so at Hodge degree
    t >= 1: C0 (mirror-even, degree t) is all of degree t when t is even and
    0 otherwise; C2 (eigenvalue -1, degree t-2) is all of degree t-2 when t
    is odd and 0 otherwise; C1 is all of degree t-1.  rank d2 = c2 at every
    t (test_d2_columns_lead_on_distinct_rows_at_every_t).  When t is even
    the projection in d1 keeps everything, so d1 is +-multiplication by e1,
    injective since the polynomials in x1, x2, x3 form a domain: rank d1 =
    c1.  When t is odd C0 = 0.  So a_t = c_t - c_{t-1} and b_t = 0 for even
    t, a_t = 0 and b_t = c_{t-1} - c_{t-2} for odd t, and chi_t =
    eps (a_t - b_t) = eps (dim C0 - dim C1 + dim C2) with eps =
    euler_sign(case, 0), since s = +1 in both cases.  With E and O the even
    and odd parts of C, as series:

        h0  = Ev[(1-x) C] - Ev[(1-x) C](0),
        h1  = x Ev[(1-x) C],
        chi = eps (E - E(0) - x C + x^2 O).

    Each side is a fraction whose denominator has a nonzero constant term,
    a unit of Q[[x]], so the two series agree at every t exactly when the
    cross-multiplied polynomials agree.  The basis sizes are compared with
    c_d directly through t = 40.
    """
    den3 = conv(conv([1, -1], [1, 0, -1]), [1, 0, 0, -1])
    c = ([1] if case.m_odd else [0, 0, 0, 1]), den3
    eps = euler_sign(case, 0)
    assert eps == euler_sign(case, 1)  # s = +1
    ev = even(times([1, -1], c))  # Ev[(1 - x) C]
    assert same(stored(case, "h0"), minus_constant(ev))
    assert same(stored(case, "h1"), times([0, 1], ev))
    chi = add(add(minus_constant(even(c)), times([0, -1], c)), times([0, 0, 1], odd(c)))
    assert same(stored(case, "chi"), times([eps], chi))

    dims = expand(c, 40)
    for t in range(1, 41):
        assert len(defect0_basis(case, t)) == (dims[t] if t % 2 == 0 else 0), t
        assert len(defect1_basis(case, t)) == dims[t - 1], t
        assert len(defect2_basis(case, t)) == (dims[t - 2] if t % 2 and t > 1 else 0), t


def test_euler_relation_spot_values():
    # oe: chi_2 = -1 against a_2 = 1, b_2 = 0 with overall sign -1 at k = 2
    assert series(CASE_OE, "chi", 2)[2] == -1
    assert rank_formula(CASE_OE, "a", 2) == 1
    # eo: chi_1 = +1 against a_1 = 0, b_1 = 1 with overall sign -1 at k = 1
    assert series(CASE_EO, "chi", 1)[1] == 1
    assert rank_formula(CASE_EO, "b", 1) == 1
    # oo: chi_1 = -1 against b_1 = 1 with overall sign +1
    assert series(CASE_OO, "chi", 1)[1] == -1


def test_euler_sign():
    # (-1) to the total degree k(N-m-2) + N-3 of a defect-0 graph, for every
    # (m, N) with the case's parities and N >= 2m + 2
    for case in ALL_CASES:
        for m in range(7):
            for n in range(2 * m + 2, 2 * m + 10):
                if (m % 2 == 1, n % 2 == 1) != (case.m_odd, case.n_odd):
                    continue
                for k in range(8):
                    degree = k * (n - m - 2) + n - 3
                    assert (-1) ** degree == euler_sign(case, k), (case.key, m, n, k)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(ALL_CASES), k=st.integers(0, 10**9))
def test_euler_sign_is_geometric_in_k(case, k):
    # the form test_euler_relation's proof assumes, eps * s^k, far past the
    # k < 8 of test_euler_sign
    eps = euler_sign(case, 0)
    s = eps * euler_sign(case, 1)
    assert euler_sign(case, k) == eps * s**k, (case.key, k)
