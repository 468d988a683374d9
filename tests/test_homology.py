"""Tests for the rank arithmetic on Hodge slices and for the verification of
the closed-form homology bases against the exact matrices."""

import dataclasses
import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_homology import algebra, homology
from theta_homology.algebra import (
    SYM_ODD,
    Element,
    basis_coordinates,
    is_admissible,
    mirror_sign,
    render_element,
    symmetrize,
)
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
from element_oracle import element_generators


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
    assert any(s.d2.columns)
    for factor in (7, -3):
        d2 = RationalMatrix(
            s.d2.rows, [{i: factor * v for i, v in col.items()} for col in s.d2.columns]
        )
        rescaled = dataclasses.replace(s, d2=d2)
        assert homology_ranks(rescaled) == homology_ranks(s)


def test_homology_ranks_rejects_non_complex():
    s = build_slice(CASE_EO, 6)
    i, j, value = s.d2.to_triplets()[0]
    assert value != 0
    fake_d1 = RationalMatrix(
        len(s.basis0), [{0: 1} if j == i else {} for j in range(len(s.basis1))]
    )
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


def expand(flavor, degree, generator):
    """sum c symmetrize(flavor, k) over a coordinate map, as an Element."""
    f = Element(flavor, degree)
    for k, c in generator.items():
        f = f + symmetrize(flavor, k) * c
    return f


def test_generator_lists_digest():
    # pins every closed-form generator, term by term, for t <= 40
    digest = hashlib.sha256()
    for case in ALL_CASES:
        for t in range(1, 41):
            h0, h1 = homology_generators(case, t)
            rendered = (
                case.key,
                t,
                [render_element(expand(case.flavor, t, g)) for g in h0],
                [render_element(expand(case.flavor, t - 1, g)) for g in h1],
            )
            digest.update(repr(rendered).encode())
    assert digest.hexdigest() == (
        "f2b2ca825c3ad4edc366ff6b879893d2c25a0654a41cb31baa670d4ada308422"
    )


def test_generator_degrees():
    for case in ALL_CASES:
        for t in range(1, 15):
            h0, h1 = homology_generators(case, t)
            assert all(sum(k) == t for g in h0 for k in g)
            assert all(sum(k) == t - 1 for g in h1 for k in g)


def assert_generators_match_the_element_oracle(case, t):
    got = homology_generators(case, t)
    want = tuple(
        [basis_coordinates(g) for g in gens] for gens in element_generators(case, t)
    )
    assert got == want, (case.key, t)


def test_generators_match_the_element_oracle():
    # the coordinate maps against the Element products they replace
    for case in ALL_CASES:
        for t in range(1, 41):
            assert_generators_match_the_element_oracle(case, t)


@settings(max_examples=5, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(ALL_CASES), t=st.integers(41, 80))
def test_generators_match_the_element_oracle_past_the_exhaustive_range(case, t):
    assert_generators_match_the_element_oracle(case, t)


@pytest.fixture
def elements_built(monkeypatch):
    """A list that grows by one for every Element constructed."""
    built = []
    init = algebra.Element.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(algebra.Element, "__init__", counted)
    return built


def test_no_element_on_the_verify_path(elements_built):
    # the generators and a clean report run on coordinate maps and matrices
    for case in ALL_CASES:
        for t in range(1, 31):
            homology_generators(case, t)
    slice_ = build_slice(CASE_EE, 8)
    assert homology_basis_report(slice_) == []
    assert elements_built == []
    # the counter sees an Element where one is built: a problem line's text
    assert homology_basis_report(build_slice(CASE_OE, 13))
    assert elements_built


def test_hodge_degree_follows_the_integral_rule():
    # an integral t is taken as its int; True is no t = 1, and t >= 1
    for six in (6.0, Fraction(12, 2)):
        assert homology_generators(CASE_OO, six) == homology_generators(CASE_OO, 6)
        assert verify_homology_basis(CASE_OO, six)
        assert homology_basis_report(build_slice(CASE_OE, six + 7)) == (
            homology_basis_report(build_slice(CASE_OE, 13))
        )
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
    problems = homology_basis_report(build_slice(CASE_OE, 13))
    assert any("not a cycle" in p for p in problems)


def test_report_lines_digest():
    # pins the report's text, line by line, for every case and t <= 40; the
    # digest was recorded while the H1 cycle test still ran the Element
    # differential, so it also pins that d1's matrix gives the same verdicts
    digest = hashlib.sha256()
    for case in ALL_CASES:
        for t in range(1, 41):
            lines = homology_basis_report(build_slice(case, t))
            digest.update(repr((case.key, t, lines)).encode())
    assert digest.hexdigest() == (
        "626633546939160632f233a75c50e5e632608a21bc107d3183959cbdca5dcc22"
    )
    assert homology_basis_report(build_slice(CASE_OE, 13)) == [
        "H1 generator 2*xi1^5*xi2^5*xi3^2 - xi1^5*xi2^4*xi3^3 + xi1^5*xi2^3*xi3^4"
        " - 2*xi1^5*xi2^2*xi3^5 + xi1^4*xi2^5*xi3^3 + xi1^4*xi2^3*xi3^5"
        " + xi1^3*xi2^5*xi3^4 - xi1^3*xi2^4*xi3^5 + 2*xi1^2*xi2^5*xi3^5"
        " is not a cycle"
    ]


def test_report_clean_on_good_slice():
    assert homology_basis_report(build_slice(CASE_EE, 8)) == []


def test_one_slice_build_per_check(monkeypatch):
    # verify_homology_basis builds its slice once; the report reads the one
    # it is given and builds none
    built = []

    def counting(case, t):
        built.append((case, t))
        return build_slice(case, t)

    monkeypatch.setattr(homology, "build_slice", counting)
    assert not verify_homology_basis(CASE_OE, 13)
    assert built == [(CASE_OE, 13)]
    slice_ = build_slice(CASE_OE, 17)
    assert homology_basis_report(slice_)
    assert built == [(CASE_OE, 13)]


def test_report_names_each_problem(monkeypatch):
    # eo at t = 11 (Sym[xi], a = 2, b = 0); each substituted H0 or H1 list
    # breaks one check of the report, which names it.  A triple of the wrong
    # degree, an unsorted one or a mirror-odd one is outside the basis.
    case, t = CASE_EO, 11
    slice_ = build_slice(case, t)
    good, h1 = homology_generators(case, t)
    flavor = case.flavor
    assert is_admissible(flavor, (7, 3, 1)) and mirror_sign(flavor, (7, 3, 1)) == -1
    for h0, line in (
        ([], "H0 at t=11: 0 generators listed, rank is 2"),
        (
            [good[0], {(6, 4, 0): 1}],
            "sticks out of the space (component (6, 4, 0))",
        ),
        (
            [good[0], {(0, 0, 11): 1}],
            "sticks out of the space (component (0, 0, 11))",
        ),
        (
            [good[0], {(7, 3, 1): 1}],
            "sticks out of the space (component (7, 3, 1))",
        ),
        ([good[0], good[0]], "H0 at t=11: generators are dependent modulo boundaries"),
    ):
        monkeypatch.setattr(homology, "homology_generators", lambda case, t, h0=h0: (h0, h1))
        problems = homology_basis_report(slice_)
        assert any(line in p for p in problems), (line, problems)
        assert not verify_homology_basis(case, t)
    # substituted H1 lists, with b = 0: a generator that d1 does not kill is
    # named as no cycle; one of the wrong degree has no coordinate column, so
    # it gets its sticks-out line and no cycle verdict
    not_a_cycle = render_element(symmetrize(SYM_ODD, (10, 0, 0)))
    wrong_degree = render_element(symmetrize(SYM_ODD, (9, 0, 0)))
    for h1, want in (
        (
            [{(10, 0, 0): 1}],
            [
                "H1 at t=11: 1 generators listed, rank is 0",
                f"H1 generator {not_a_cycle} is not a cycle",
            ],
        ),
        (
            [{(9, 0, 0): 1}],
            [
                "H1 at t=11: 1 generators listed, rank is 0",
                f"H1 generator {wrong_degree} sticks out of the space "
                "(component (9, 0, 0))",
            ],
        ),
    ):
        monkeypatch.setattr(homology, "homology_generators", lambda case, t, h1=h1: (good, h1))
        assert homology_basis_report(slice_) == want
        assert not verify_homology_basis(case, t)
