"""Tests for the closed-form side: generating functions, piecewise rank
formulas, and the Euler relation tying the three series of a case together.

The twelve stored rational functions are frozen bit-for-bit, expanded through
t^200 against the piecewise formulas, and checked against a polynomial
multiplication oracle (series times denominator gives back the numerator).
"""

from fractions import Fraction

import pytest

from theta_homology.cases import ALL_CASES, CASE_EE, CASE_EO, CASE_OE, CASE_OO
from theta_homology.genfun import (
    GeneratingFunction,
    euler_relation_check,
    euler_sign,
    formulas,
    one_minus_power,
    poly_mul,
    poly_sub,
    rank_formula,
    series,
    t_power,
)


def test_poly_helpers():
    assert poly_mul((1, 1), (1, -1)) == (1, 0, -1)
    assert poly_mul((2,), (3, 4)) == (6, 8)
    assert poly_mul((), (1, 2)) == ()
    assert poly_sub((1, 2, 3), (1,)) == (0, 2, 3)
    assert poly_sub((1,), (0, 0, 5)) == (1, 0, -5)
    assert one_minus_power(2) == (1, 0, -1)
    assert one_minus_power(6) == (1, 0, 0, 0, 0, 0, -1)
    assert t_power(3) == (0, 0, 0, 1)
    assert t_power(6, -1) == (0, 0, 0, 0, 0, 0, -1)


def test_generating_function_expansion():
    geom = GeneratingFunction((1,), (1, -1))
    assert geom.coefficients(5) == [1, 1, 1, 1, 1, 1]
    shifted = GeneratingFunction((0, 1), (1, 0, -1))
    assert shifted.coefficients(6) == [0, 1, 0, 1, 0, 1, 0]
    negated = GeneratingFunction((1,), (-1, 1))
    assert negated.coefficients(3) == [-1, -1, -1, -1]
    assert all(type(c) is int for c in shifted.coefficients(6) + negated.coefficients(3))


def test_generating_function_rejects_bad_denominator():
    with pytest.raises(ValueError):
        GeneratingFunction((1,), ())
    with pytest.raises(ValueError):
        GeneratingFunction((1,), (0, 1))
    # a constant term other than +-1 would give a non-integer series
    with pytest.raises(ValueError):
        GeneratingFunction((1,), (2, -1))


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


def test_kmax_follows_the_integral_rule():
    # an integral kmax is taken as its int; negative, fractional or bool raises
    h0 = formulas(CASE_OO)["h0"]
    assert series(CASE_OO, "h0", 2.0) == series(CASE_OO, "h0", 2) == [0, 0, 1]
    assert h0.coefficients(Fraction(4, 2)) == h0.coefficients(2)
    assert series(CASE_OO, "h0", 0) == [0]
    assert series(CASE_OO, "h0", Fraction(4, 2)) == [0, 0, 1]
    for kmax in (-1, 1.5, True, Fraction(1, 2), "2", float("inf"), None):
        with pytest.raises(ValueError):
            series(CASE_OO, "h0", kmax)
        with pytest.raises(ValueError):
            h0.coefficients(kmax)
        with pytest.raises(ValueError):
            euler_relation_check(CASE_OO, kmax)


def test_stored_shapes_frozen():
    # the displayed forms, not any simplification of them
    den26 = (1, 0, -1, 0, 0, 0, -1, 0, 1)
    chiden16 = (1, 1, 0, 0, 0, 0, -1, -1)
    den412 = (1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 1)
    chiden212 = (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, -1)

    f = formulas(CASE_OO)
    assert f["h0"].numerator == (0, 0, 1, 0, 0, 0, 1, 0, -1)
    assert f["h0"].denominator == den26
    assert f["h1"].numerator == (0, 1)
    assert f["h1"].denominator == den26
    assert f["chi"].numerator == (0, -1, 0, 0, 0, 0, 1, 1)
    assert f["chi"].denominator == chiden16

    f = formulas(CASE_EE)
    assert f["h0"].numerator == (0, 0, 0, 0, 0, 0, 1)
    assert f["h0"].denominator == den26
    assert f["h1"].numerator == (0, 0, 0, 0, 0, 0, 0, 1)
    assert f["h1"].denominator == den26
    assert f["chi"].numerator == (0, 0, 0, 0, 0, 0, -1)
    assert f["chi"].denominator == chiden16

    f = formulas(CASE_EO)
    assert f["h0"].numerator == (0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, -1)
    assert f["h0"].denominator == den412
    assert f["h1"].numerator == (0, 1) + (0,) * 14 + (1,)
    assert f["h1"].denominator == den412
    assert f["chi"].numerator == (0, 1) + (0,) * 9 + (-1, 0, -1, 1)
    assert f["chi"].denominator == chiden212

    f = formulas(CASE_OE)
    assert f["h0"].numerator == (0, 0, 1) + (0,) * 8 + (1,)
    assert f["h0"].denominator == den412
    assert f["h1"].numerator == (0, 0, 0, 0, 1) + (0,) * 8 + (1,)
    assert f["h1"].denominator == den412
    assert f["chi"].numerator == (0, 0, -1) + (0,) * 8 + (1,)
    assert f["chi"].denominator == chiden212


def test_expansion_matches_polynomial_multiplication():
    # c = num/den as series means conv(c, den) reproduces num
    kmax = 60
    for case in ALL_CASES:
        f = formulas(case)
        for g in (f["h0"], f["h1"], f["chi"]):
            c = g.coefficients(kmax)
            for n in range(kmax + 1):
                acc = sum(
                    g.denominator[j] * c[n - j]
                    for j in range(min(n, len(g.denominator) - 1) + 1)
                )
                want = g.numerator[n] if n < len(g.numerator) else 0
                assert acc == want, (case.key, n)


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
    # the same rule for euler_sign's k and a GeneratingFunction's coefficients
    for three in (3.0, Fraction(6, 2)):
        assert euler_sign(CASE_EO, three) == euler_sign(CASE_EO, 3)
    g = GeneratingFunction((Fraction(4, 2), 0.0), (1.0, -1))
    assert g == GeneratingFunction((2, 0), (1, -1))
    assert g.coefficients(2) == [2, 2, 2]
    assert all(type(c) is int for c in g.numerator + g.denominator)
    for bad in (1.5, True, float("inf"), None, "2", -1):
        with pytest.raises(ValueError):
            euler_sign(CASE_EO, bad)
    for bad in (0.5, True, float("inf"), None, "2"):
        with pytest.raises(ValueError):
            GeneratingFunction((bad,), (1,))
        with pytest.raises(ValueError):
            GeneratingFunction((1,), (1, bad))


def test_series_equals_rank_formula():
    kmax = 200
    for case in ALL_CASES:
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
    for case in ALL_CASES:
        assert euler_relation_check(case, 200), case.key


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
