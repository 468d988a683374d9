"""Tests for the rank arithmetic on Hodge slices and for the verification of
the closed-form homology bases against the exact matrices."""

import dataclasses
import hashlib
from fractions import Fraction

import pytest

from theta_homology.algebra import render_element
from theta_homology.cases import ALL_CASES, CASE_EE, CASE_EO, CASE_OE, CASE_OO
from theta_homology.complexes import ComplexConsistencyError, build_slice
from theta_homology.genfun import rank_formula, series
from theta_homology.homology import (
    RankRow,
    defect_concentration_check,
    euler_characteristic,
    homology_basis_report,
    homology_generators,
    homology_ranks,
    verify_homology_basis,
)
from theta_homology.linalg import RationalMatrix


def test_rank_row_examples():
    row = homology_ranks(build_slice(CASE_OO, 6))
    assert (row.a, row.b, row.chi) == (2, 0, 2)
    assert (row.dim_c2, row.dim_c1, row.dim_c0) == (0, 5, 7)
    assert (row.rank_d2, row.rank_d1) == (0, 5)
    assert row.h2 == 0

    row = homology_ranks(build_slice(CASE_EO, 11))
    assert (row.a, row.b) == (2, 0)
    row = homology_ranks(build_slice(CASE_OE, 13))
    assert (row.a, row.b) == (0, 1)


def test_euler_characteristic_examples():
    assert euler_characteristic(build_slice(CASE_OO, 1)) == -1
    assert euler_characteristic(build_slice(CASE_EE, 6)) == -1
    assert euler_characteristic(build_slice(CASE_EO, 1)) == 1


def test_chi_matches_dimension_count():
    for case in ALL_CASES:
        chi = series(case, "chi", 16)
        for t in range(1, 17):
            row = homology_ranks(build_slice(case, t))
            assert row.chi == chi[t], (case.key, t)


def test_ranks_match_closed_forms():
    # every t to twice the acceptance range t <= 40
    for case in ALL_CASES:
        for t in range(1, 81):
            row = homology_ranks(build_slice(case, t))
            assert row.a == rank_formula(case, "a", t), (case.key, t)
            assert row.b == rank_formula(case, "b", t), (case.key, t)
            assert row.h2 == 0, (case.key, t)


def test_ranks_invariant_under_d2_rescaling():
    s = build_slice(CASE_OO, 7)
    assert not s.d2.is_zero()
    for factor in (7, -3):
        d2 = RationalMatrix(
            s.d2.rows, s.d2.cols, {k: factor * v for k, v in s.d2.entries.items()}
        )
        rescaled = dataclasses.replace(s, d2=d2)
        assert homology_ranks(rescaled) == homology_ranks(s)


def test_homology_ranks_rejects_non_complex():
    s = build_slice(CASE_EO, 6)
    i, j, value = s.d2.to_triplets()[0]
    assert value != 0
    fake_d1 = RationalMatrix(len(s.basis0), len(s.basis1), {(0, i): 1})
    broken = dataclasses.replace(s, d1=fake_d1)
    with pytest.raises(ComplexConsistencyError) as caught:
        homology_ranks(broken)
    error = caught.value
    assert str(error) == "d1 . d2 != 0 for case eo at t = 6"
    assert (error.case, error.t, error.triple, error.component) == (
        CASE_EO,
        6,
        None,
        None,
    )


def test_defect_concentration_check():
    rows = [homology_ranks(build_slice(case, t)) for case in ALL_CASES for t in (3, 6, 9)]
    assert defect_concentration_check(rows)
    good = rows[0]
    assert not defect_concentration_check([dataclasses.replace(good, a=1, b=1)])
    assert good.dim_c2 == 1  # oo t=3 has one defect-2 class
    assert not defect_concentration_check([dataclasses.replace(good, rank_d2=0)])


def test_generator_counts_match_formulas():
    for case in ALL_CASES:
        for t in range(1, 25):
            h0, h1 = homology_generators(case, t)
            assert len(h0) == rank_formula(case, "a", t), (case.key, t)
            assert len(h1) == rank_formula(case, "b", t), (case.key, t)


def test_generator_lists_digest():
    # pins every closed-form generator, term by term, for t <= 40
    digest = hashlib.sha256()
    for case in ALL_CASES:
        for t in range(1, 41):
            h0, h1 = homology_generators(case, t)
            rendered = (
                case.key,
                t,
                [render_element(g) for g in h0],
                [render_element(g) for g in h1],
            )
            digest.update(repr(rendered).encode())
    assert digest.hexdigest() == (
        "f2b2ca825c3ad4edc366ff6b879893d2c25a0654a41cb31baa670d4ada308422"
    )


def test_generator_degrees():
    for case in ALL_CASES:
        for t in range(1, 15):
            h0, h1 = homology_generators(case, t)
            assert all(g.degree == t for g in h0)
            assert all(g.degree == t - 1 for g in h1)


def test_hodge_degree_follows_the_integral_rule():
    # an integral t is taken as its int; True is no t = 1, and t >= 1
    for six in (6.0, Fraction(12, 2)):
        assert homology_generators(CASE_OO, six) == homology_generators(CASE_OO, 6)
        assert verify_homology_basis(CASE_OO, six)
        assert homology_basis_report(CASE_OE, six + 7) == homology_basis_report(CASE_OE, 13)
    for bad in (True, 0, -1, 1.5, float("inf"), None, "6"):
        with pytest.raises(ValueError):
            homology_generators(CASE_OO, bad)
        with pytest.raises(ValueError):
            verify_homology_basis(CASE_OO, bad)


def test_verify_examples():
    # oo t=2: single class e2
    assert verify_homology_basis(CASE_OO, 2)
    # eo t=3: H1 class at exponents (1, 1, 0)
    assert verify_homology_basis(CASE_EO, 3)
    # oe t=4: H1 class at exponents (1, 1, 1)
    assert verify_homology_basis(CASE_OE, 4)


def test_verify_small_range():
    for case in (CASE_OO, CASE_EE, CASE_EO):
        for t in range(1, 13):
            assert verify_homology_basis(case, t), (case.key, t)


def test_verify_oe_divergent_degrees():
    # the bundled two-term H1 family for this case carries a sign that the
    # differential contradicts (see tests/test_complexes.py); the check
    # honestly fails exactly where that family contributes
    for t in range(1, 21):
        ok = verify_homology_basis(CASE_OE, t)
        assert ok == (t not in (13, 17)), t
    problems = homology_basis_report(CASE_OE, 13)
    assert any("not a cycle" in p for p in problems)


def test_report_clean_on_good_slice():
    assert homology_basis_report(CASE_EE, 8) == []
