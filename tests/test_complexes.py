import collections
import hashlib
import itertools
import json
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from theta_homology.algebra import (
    ASYM_ODD,
    SYM,
    SYM_ODD,
    Element,
    basis_coordinates,
    crossing,
    is_admissible,
    mirror,
    mirror_sign,
    mul_e1,
    symmetrize,
)
from theta_homology import complexes, homology
from theta_homology.algebra import ASYM, FLAVORS, Flavor, orbit
from theta_homology.cases import ALL_CASES, CASE_EE, CASE_EO, CASE_OE, CASE_OO
from theta_homology.complexes import (
    ComplexConsistencyError,
    HodgeSlice,
    apply_defect1,
    apply_defect2,
    build_slice,
    defect0_basis,
    defect1_basis,
    defect2_basis,
    slice_as_dict,
)
from theta_homology.linalg import RationalMatrix, is_zero_composition
from element_oracle import admissible_basis, vandermonde
from word_oracle import word_mirror, word_mul


# --- the odd-generator differentials through the word-level oracle ---------


E1 = {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(1), (0, 0, 1): Fraction(1)}


def oracle_defect1(case, coeffs):
    product = word_mul(E1, coeffs)
    mirrored = word_mirror(product)
    keys = set(product) | set(mirrored)
    sign = -1 if (case.m_odd and case.n_odd) else 1
    out = {}
    for mono in keys:
        c = (product.get(mono, Fraction(0)) + mirrored.get(mono, Fraction(0))) / 2
        if c:
            out[mono] = sign * c
    return out


def oracle_defect2(case, coeffs, degree):
    sign = Fraction(2)
    if case.n_odd:
        sign = -sign
    if degree % 2:
        sign = -sign
    return {m: sign * c for m, c in word_mul(coeffs, E1).items()}


# --- bases -------------------------------------------------------------------


def test_basis_dimensions_examples():
    assert defect2_basis(CASE_OO, 3) == ((1, 0, 0),)
    assert defect1_basis(CASE_OO, 3) == ((2, 0, 0), (1, 1, 0))
    assert defect0_basis(CASE_OO, 3) == ()
    assert defect1_basis(CASE_EO, 1) == ((0, 0, 0),)
    assert defect2_basis(CASE_EO, 1) == ()
    assert defect0_basis(CASE_EO, 1) == ()
    assert defect0_basis(CASE_OE, 2) == ((1, 1, 0),)
    assert defect2_basis(CASE_OE, 2) == ()
    assert defect1_basis(CASE_OE, 2) == ()


def test_basis_degree_follows_the_integral_rule():
    # each basis reads t under the integral rule, with no lower bound, so
    # defect0_basis(case, 0) stays ()
    for basis in (defect0_basis, defect1_basis, defect2_basis):
        for six in (6.0, Fraction(12, 2)):
            assert basis(CASE_OO, six) == basis(CASE_OO, 6)
        for bad in (True, 1.5, None, "6"):
            with pytest.raises(ValueError, match="Hodge degree t"):
                basis(CASE_OO, bad)
    assert defect0_basis(CASE_OO, 0) == ()


def test_defect2_basis_is_the_eigenspace():
    for case in ALL_CASES:
        for t in range(2, 12):
            chosen = set(defect2_basis(case, t))
            for triple in admissible_basis(case.flavor, t - 2):
                sign = mirror_sign(case.flavor, triple)
                assert (triple in chosen) == (sign == case.defect2_mirror_sign)


def test_defect0_basis_is_mirror_even():
    for case in ALL_CASES:
        for t in range(1, 12):
            for triple in defect0_basis(case, t):
                f = symmetrize(case.flavor, triple)
                assert mirror(f) == f


def test_reference_c1_partition_counts():
    # the odd-flavor degree-d space splits as (e1 multiples from degree d-1)
    # + near-diagonal triples + diagonal-pair triples, one leading term each
    for flavor, near_parity in ((SYM_ODD, 1), (ASYM_ODD, 0)):
        for d in range(22):
            near = sum(
                1
                for k2 in range(d + 1)
                for k3 in range(k2)
                if 2 * k2 + k3 + 1 == d and k2 % 2 == near_parity
            )
            diag = sum(
                1
                for k2 in range(d + 1)
                for k3 in range(k2 + 1)
                if 2 * k2 + k3 == d
                and k2 % 2 != near_parity
                and is_admissible(flavor, (k2, k2, k3))
            )
            assert len(admissible_basis(flavor, max(d - 1, -1))) + near + diag == len(
                admissible_basis(flavor, d)
            ), (flavor, d)


# --- differentials -----------------------------------------------------------


def test_apply_defect2_examples():
    e1 = symmetrize(SYM, (1, 0, 0))
    image = apply_defect2(CASE_OO, e1)
    assert image == e1 * e1 * -2
    delta = vandermonde()
    assert apply_defect2(CASE_EE, delta) == delta * e1 * 2
    # odd flavor, odd degree: the supergrading flips the sign back to +2
    f = symmetrize(SYM_ODD, (3, 0, 0))
    expected = (f * symmetrize(SYM_ODD, (1, 0, 0))) * 2
    assert apply_defect2(CASE_EO, f).coeffs == expected.coeffs


def test_apply_defect2_rejects_wrong_eigenspace_or_flavor():
    e2_elt = symmetrize(SYM, (1, 1, 0))
    with pytest.raises(ValueError):
        apply_defect2(CASE_OO, e2_elt)  # mirror-even, needs the -1 eigenspace
    with pytest.raises(ValueError):
        apply_defect2(CASE_OO, vandermonde())  # ASym element in a Sym case
    with pytest.raises(ValueError):
        apply_defect2(CASE_EO, symmetrize(SYM_ODD, (1, 0, 0)))  # mirror-odd


def test_apply_defect1_examples():
    e1 = symmetrize(SYM, (1, 0, 0))
    assert apply_defect1(CASE_OO, e1) == (e1 * e1) * -1
    # in the odd flavors e1^2 = xi1^2+xi2^2+xi3^2 is mirror-odd, so d1(e1) = 0
    assert apply_defect1(CASE_EO, symmetrize(SYM_ODD, (1, 0, 0))).is_zero()
    image = apply_defect1(CASE_EO, symmetrize(SYM_ODD, (2, 1, 0)))
    assert basis_coordinates(image) == {(2, 2, 0): Fraction(2)}
    with pytest.raises(ValueError):
        apply_defect1(CASE_EO, vandermonde())


def test_differentials_match_word_oracle():
    rng = random.Random(79)
    for case, flavor in ((CASE_EO, SYM_ODD), (CASE_OE, ASYM_ODD)):
        for _ in range(30):
            degree = rng.randrange(0, 7)
            triples = admissible_basis(flavor, degree)
            if not triples:
                continue
            f = Element(flavor, degree)
            for triple in triples:
                f = f + symmetrize(flavor, triple) * rng.randrange(-2, 3)
            assert apply_defect1(case, f).coeffs == oracle_defect1(case, f.coeffs)
            eigen = [
                tr
                for tr in triples
                if mirror_sign(flavor, tr) == case.defect2_mirror_sign
            ]
            g = Element(flavor, degree)
            for triple in eigen:
                g = g + symmetrize(flavor, triple) * rng.randrange(-2, 3)
            assert apply_defect2(case, g).coeffs == oracle_defect2(
                case, g.coeffs, degree
            )


def test_composition_vanishes_elementwise():
    for case in ALL_CASES:
        for t in range(2, 14):
            for triple in defect2_basis(case, t):
                f = symmetrize(case.flavor, triple)
                assert apply_defect1(case, apply_defect2(case, f)).is_zero(), (
                    case.key,
                    t,
                    triple,
                )


# --- assembled slices --------------------------------------------------------


def element_matrix_of(case, source, target, differential):
    """A differential's matrix through the Element algebra, column by column:
    symmetrize, apply_defect2 or apply_defect1, basis_coordinates."""
    index = {triple: i for i, triple in enumerate(target)}
    columns = []
    for triple in source:
        image = differential(case, symmetrize(case.flavor, triple))
        columns.append({index[rep]: c for rep, c in basis_coordinates(image).items()})
    return RationalMatrix(len(target), columns)


def test_assembly_matches_element_oracle():
    for case in ALL_CASES:
        for t in [*range(1, 41), 64, 97]:
            s = build_slice(case, t)
            d2 = element_matrix_of(case, s.basis2, s.basis1, apply_defect2)
            d1 = element_matrix_of(case, s.basis1, s.basis0, apply_defect1)
            assert s.d2 == d2, (case.key, t)
            assert s.d1 == d1, (case.key, t)


def assembly_memos(module=complexes):
    """{name: memo} of every attribute of module with cache_clear."""
    return {
        name: value
        for name, value in vars(module).items()
        if hasattr(value, "cache_clear")
    }


def clear_assembly_memos():
    for module in (complexes, homology):
        for memo in assembly_memos(module).values():
            memo.cache_clear()


@pytest.fixture
def fresh_equivariance_memo():
    # every memo of complexes and homology: rules, kept degrees or e2 chains
    # derived under a monkeypatched crossing, _act, orbit or mirror_sign must
    # not outlive their test
    clear_assembly_memos()
    yield
    clear_assembly_memos()


def test_assembly_memos_are_the_rules_and_the_kept_degrees():
    # a new memo is cleared by the fixture without a change here; this pins
    # the set, so adding one is a decision a reviewer sees
    assert set(assembly_memos()) == {"_rules", "_degree"}
    # the e2 chains of the closed-form generators are products by the rules
    assert set(assembly_memos(homology)) == {"_chain"}
    # one slice reads degrees t-2, t-1 and t; the next reuses two of them
    assert complexes._degree.cache_parameters()["maxsize"] == 3


@pytest.mark.parametrize(
    "wrong",
    [
        lambda a, b: 1,  # no odd sign at all
        lambda a, b: -1 if (b[0] * (a[1] + a[2])) % 2 else 1,  # drops b2 a3
        lambda a, b: -1 if (b[0] * a[2] + b[1] * a[2]) % 2 else 1,  # drops b1 a2
    ],
    ids=["no_sign", "drops_b2a3", "drops_b1a2"],
)
def test_equivariance_check_catches_a_wrong_crossing_rule(
    monkeypatch, fresh_equivariance_memo, wrong
):
    # the left side is checked first; a rule wrong only where the unit
    # generator is the right factor passes it and is caught on the right
    def right_only(a, b):
        return wrong(a, b) if sum(b) == 1 and sum(a) != 1 else crossing(a, b)

    for rule, side in ((wrong, "left"), (right_only, "right")):
        monkeypatch.setattr(complexes, "crossing", rule)
        for flavor in (SYM_ODD, ASYM_ODD):
            message = f"does not commute with {side} multiplication by e1 in {flavor}"
            with pytest.raises(ComplexConsistencyError, match=re.escape(message)):
                complexes._rules(flavor)
        with pytest.raises(ComplexConsistencyError, match="does not commute"):
            build_slice(CASE_EO, 5)
        # the commuting flavors never read the odd sign
        for flavor in (SYM, ASYM):
            complexes._rules(flavor)


def test_a_failed_derivation_caches_nothing(monkeypatch, fresh_equivariance_memo):
    monkeypatch.setattr(complexes, "crossing", lambda a, b: 1)
    for _ in range(2):
        with pytest.raises(ComplexConsistencyError, match="does not commute"):
            complexes._rules(SYM_ODD)
        with pytest.raises(ComplexConsistencyError, match="does not commute"):
            build_slice(CASE_EO, 5)
    monkeypatch.undo()
    assert complexes._rules(SYM_ODD).stencil["left"]


def test_equivariance_check_passes_on_every_flavor(fresh_equivariance_memo):
    for flavor in FLAVORS:
        for _ in range(2):
            rules = complexes._rules(flavor)
        assert len(rules.sign) == 100
        assert set(rules.stencil) == {"left", "right"}
        assert all(len(table) == 32 for table in rules.stencil.values())
    # the checks and tables run once per flavor, for both sides
    assert complexes._rules.cache_info().misses == 4
    assert complexes._rules.cache_info().currsize == 4


# SHA-256 of each flavor's sign table and left and right stencil tables
# (rules_table_digest), recorded once, so that a faster derivation cannot
# drift from the tables the checked rules gave
RULES_DIGESTS = {
    SYM: (
        "60194e06ee04b6c27e8166dec317473b4aea6a92a2c5d4e8dfcdb4e13535679f",
        "4750545946dd58552b119840fe1e37e2e2f1e512383ba83613457a3a64619db0",
        "4750545946dd58552b119840fe1e37e2e2f1e512383ba83613457a3a64619db0",
    ),
    ASYM: (
        "32aef179ae0abf5548756f3ed716609d57119da6598af83803d3a41a54fbe8a7",
        "c7b8a29e08d9217ee5ae271f5531fe32c1e985b537bdb57c81b0f60a9d576793",
        "c7b8a29e08d9217ee5ae271f5531fe32c1e985b537bdb57c81b0f60a9d576793",
    ),
    SYM_ODD: (
        "65cc684d93b54b0c84e000a45f411993a8a28dc47d968baa1df14d9d1643a496",
        "23ffdccd45ddcc291cd4c2c7828e4e432d3d4f3e7529ddfbc1b0110e0e5ce2d5",
        "8bc9309c0f064a4dcd8e57f262466fd31d7d6479e2ec251dfb129162e0d96852",
    ),
    ASYM_ODD: (
        "c9f58bae0bcaf8c36fee6f9aabb8ebf1198e31f24164f0c36431e58e6733b0a5",
        "6dc75ba8187a804cb9a9fb31d2cf157a3265ef9b2deb44331a9e231335e73ede",
        "e16946f8936aff6045185a25897bff2bc01aeda82074dcdf3631217d64ab75f2",
    ),
}


def rules_table_digest(table):
    """SHA-256 of the repr of a _rules table's sorted items, each stencil
    column sorted too, so that insertion order does not count."""
    items = sorted(
        (key, sorted(value.items()) if isinstance(value, dict) else value)
        for key, value in table.items()
    )
    return hashlib.sha256(repr(items).encode()).hexdigest()


def test_rules_tables_equal_the_recorded_digests(fresh_equivariance_memo):
    for flavor in FLAVORS:
        rules = complexes._rules(flavor)
        tables = (rules.sign, rules.stencil["left"], rules.stencil["right"])
        digests = tuple(rules_table_digest(table) for table in tables)
        assert digests == RULES_DIGESTS[flavor], flavor


def test_equivariance_check_catches_a_non_action(monkeypatch, fresh_equivariance_memo):
    # one 3-cycle acting with the wrong sign on one parity class breaks
    # sigma(tau mu) = (sigma tau) mu, whichever side the check is asked for
    act = complexes._act

    def broken(flavor, perm, mono):
        image, sign = act(flavor, perm, mono)
        return image, -sign if perm == (1, 2, 0) and mono == (1, 0, 0) else sign

    monkeypatch.setattr(complexes, "_act", broken)
    message = "the S3 action of Sym[x] is not a group action on (0, 0, 1)"
    with pytest.raises(ComplexConsistencyError, match=re.escape(message)):
        complexes._rules(SYM)
    with pytest.raises(ComplexConsistencyError, match="is not a group action"):
        build_slice(CASE_OO, 5)


def random_admissible_triples(flavor, count, rng):
    """count sorted admissible triples of degree < 1000, small gaps favoured."""
    triples = []
    while len(triples) < count:
        k3 = rng.randrange(167)
        b, a = (rng.choice((0, 1, 2, 3, rng.randrange(167))) for _ in range(2))
        triple = (k3 + b + a, k3 + b, k3)
        if is_admissible(flavor, triple):
            triples.append(triple)
    return triples


def test_stencil_table_equals_the_orbit_path_far_out():
    # the key decides the column: the table, derived at triples with entries
    # below 14, equals the orbit path and the Element product up to degree
    # 1000, on each side of every flavor, so also where the commuting
    # flavors file one table under both sides
    rng = random.Random(16)
    for flavor in FLAVORS:
        triples = random_admissible_triples(flavor, 500, rng)
        for side in ("left", "right"):
            table = complexes._rules(flavor).stencil[side]
            for triple in triples:
                column = table[complexes._stencil_key(triple)]
                rows = {
                    tuple(map(operator.add, triple, e)): c for e, c in column.items()
                }
                assert rows == complexes._orbit_product(flavor, {triple: 1}, E1, side)
                image = mul_e1(symmetrize(flavor, triple), side)
                assert rows == basis_coordinates(image), (flavor, side, triple)


# the sorted triples of degree 1 to 3: e1, e2, e3 and the Vandermonde
# element are the symmetrized ones admissible in their flavor
SMALL_TRIPLES = ((1, 0, 0), (2, 0, 0), (1, 1, 0), (3, 0, 0), (2, 1, 0), (1, 1, 1))
GAPS = st.one_of(st.integers(0, 3), st.integers(0, 50))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    flavor=st.sampled_from(FLAVORS),
    k3=st.integers(0, 50),
    b=GAPS,
    a=GAPS,
    antisymmetric=st.booleans(),
    small=st.sampled_from(SMALL_TRIPLES),
    side=st.sampled_from(("left", "right")),
)
def test_orbit_product_equals_the_element_product(
    flavor, k3, b, a, antisymmetric, small, side
):
    # the one product, for any symmetrized multiplier of degree 1 to 3 and
    # either character, against basis_coordinates of the Element product
    triple = (k3 + b + a, k3 + b, k3)
    multiplier_flavor = Flavor(flavor.odd, antisymmetric)
    assume(is_admissible(flavor, triple) and is_admissible(multiplier_flavor, small))
    f = symmetrize(flavor, triple)
    g = symmetrize(multiplier_flavor, small)
    product = g * f if side == "left" else f * g
    got = complexes._orbit_product(flavor, {triple: 1}, orbit(multiplier_flavor, small), side)
    assert got == basis_coordinates(product)


def test_stencil_table_rejects_disagreeing_representatives(
    monkeypatch, fresh_equivariance_memo
):
    # (8, 6, 4) is the shifted representative of key (0, 0, 0, 2, 2) only
    orbit = complexes.orbit

    def flipped(flavor, triple):
        signs = orbit(flavor, triple)
        if triple == (8, 6, 4):
            return {mu: -c for mu, c in signs.items()}
        return signs

    monkeypatch.setattr(complexes, "orbit", flipped)
    message = (
        "left multiplication by e1 in Sym[x] differs between two triples of "
        "stencil key (0, 0, 0, 2, 2)"
    )
    with pytest.raises(ComplexConsistencyError, match=re.escape(message)):
        complexes._rules(SYM)


def test_orbit_is_read_only_to_derive_the_tables(monkeypatch, fresh_equivariance_memo):
    calls = []
    orbit = complexes.orbit

    def counted(flavor, triple):
        calls.append((flavor, triple))
        return orbit(flavor, triple)

    monkeypatch.setattr(complexes, "orbit", counted)
    # derives the right (d2) and the left (d1) table, from one orbit of a
    # base and one of its shift per stencil key
    build_slice(CASE_EO, 30)
    assert len(calls) == 2 * 32
    build_slice(CASE_EO, 31)
    build_slice(CASE_EO, 64)
    assert len(calls) == 2 * 32


def test_commuting_flavors_share_one_e1_table(monkeypatch, fresh_equivariance_memo):
    # left and right multiplication by e1 are one map when the generators
    # commute, so the left table is derived once and filed under both sides;
    # test_stencil_table_equals_the_orbit_path_far_out checks both sides.
    # The odd flavors derive both of theirs from the same orbits, and the
    # parity-class checks read _act from one table per flavor
    calls = collections.Counter()
    acts = collections.Counter()
    orbit, act = complexes.orbit, complexes._act

    def counted(flavor, triple):
        calls[flavor] += 1
        return orbit(flavor, triple)

    def counted_act(flavor, perm, mono):
        acts[flavor] += 1
        return act(flavor, perm, mono)

    monkeypatch.setattr(complexes, "orbit", counted)
    monkeypatch.setattr(complexes, "_act", counted_act)
    for flavor in FLAVORS:
        stencil = complexes._rules(flavor).stencil
        assert (stencil["right"] is stencil["left"]) is not flavor.odd
    # a base and its shift per stencil key: 256 in all
    assert calls == dict.fromkeys(FLAVORS, 64)
    # S3 on the 8 parity classes and their 12 other unit shifts
    assert acts == dict.fromkeys(FLAVORS, 6 * 20)


def test_fresh_memo_fixture_clears_the_stencil_tables(request):
    complexes._rules(SYM)
    assert complexes._rules.cache_info().currsize > 0
    request.getfixturevalue("fresh_equivariance_memo")
    assert complexes._rules.cache_info().currsize == 0


def test_fresh_memo_fixture_clears_the_kept_degrees(request):
    build_slice(CASE_EO, 6)
    assert complexes._degree.cache_info().currsize > 0
    assert complexes._rules.cache_info().currsize > 0
    request.getfixturevalue("fresh_equivariance_memo")
    assert complexes._degree.cache_info().currsize == 0
    assert complexes._rules.cache_info().currsize == 0


def test_fresh_memo_fixture_clears_the_e2_chains(request):
    homology.homology_generators(CASE_OO, 12)
    assert homology._chain.cache_info().currsize > 0
    request.getfixturevalue("fresh_equivariance_memo")
    assert homology._chain.cache_info().currsize == 0


def residue_key(triple):
    k1, k2, k3 = triple
    return k1 & 3, k2 & 3, k3 & 3, k1 == k2, k2 == k3


def test_basis_rules_are_read_only_to_derive_the_residue_table(
    monkeypatch, fresh_equivariance_memo
):
    # mirror_sign and is_admissible run only on the base triples of _rules
    # and their shifts, at most twice per residue key; the kept degrees, C0,
    # C2 and d1's drop set read its sign table, and new degrees call neither
    calls = {"mirror_sign": [], "is_admissible": []}

    def counting(name):
        rule = getattr(complexes, name)

        def counted(flavor, triple):
            calls[name].append((flavor, triple))
            return rule(flavor, triple)

        return counted

    for name in calls:
        monkeypatch.setattr(complexes, name, counting(name))
    for t in range(1, 21):
        build_slice(CASE_EO, t)
    bases = set(complexes._BASES)
    bases |= {tuple(k + 4 for k in base) for base in bases}
    for counted in calls.values():
        assert counted and {flavor for flavor, _ in counted} == {SYM_ODD}
        assert {triple for _, triple in counted} <= bases
        per_key = collections.Counter(residue_key(triple) for _, triple in counted)
        assert max(per_key.values()) <= 2
    assert len(calls["is_admissible"]) == 2 * 100
    for counted in calls.values():
        counted.clear()
    for t in range(21, 41):
        build_slice(CASE_EO, t)
    assert calls == {"mirror_sign": [], "is_admissible": []}


def assert_degree_matches_the_rules(flavor, d):
    degree = complexes._degree(flavor, d)
    basis = tuple(admissible_basis(flavor, d))
    assert degree.basis == basis, (flavor, d)
    for sign in (1, -1):
        assert degree.by_sign[sign] == tuple(
            triple for triple in basis if mirror_sign(flavor, triple) == sign
        ), (flavor, d, sign)


def test_degree_equals_admissible_basis_and_mirror_sign():
    # the residue-table walk against the per-triple rules, every degree <= 120
    for flavor in FLAVORS:
        for d in range(121):
            assert_degree_matches_the_rules(flavor, d)


@settings(max_examples=5, derandomize=True, database=None, deadline=None)
@given(flavor=st.sampled_from(FLAVORS), d=st.integers(121, 600))
def test_degree_equals_the_rules_past_the_exhaustive_range(flavor, d):
    # a walk that goes wrong only at large degrees, such as one dropping
    # (d, 0, 0) for d >= 210, passes every sampled range above
    assert_degree_matches_the_rules(flavor, d)


def test_residue_table_rejects_disagreeing_representatives(
    monkeypatch, fresh_equivariance_memo
):
    # a mirror sign that flips only for k1 >= 4 splits the base (0, 0, 0)
    # from its shift (4, 4, 4)
    sign = complexes.mirror_sign

    def flipped(flavor, triple):
        return -sign(flavor, triple) if triple[0] >= 4 else sign(flavor, triple)

    monkeypatch.setattr(complexes, "mirror_sign", flipped)
    message = (
        "admissibility or the mirror sign in Sym[x] differs between two "
        "triples of residue key (0, 0, 0, True, True)"
    )
    with pytest.raises(ComplexConsistencyError, match=re.escape(message)):
        complexes._rules(SYM)
    with pytest.raises(ComplexConsistencyError, match="residue key"):
        build_slice(CASE_OO, 3)


def test_d1_drops_only_mirror_odd_basis_triples(monkeypatch):
    # a stencil fault that emits a non-admissible component is caught, even
    # where that component is mirror-odd and so was once dropped as the
    # projection's
    # the fault adds (2, 1, 1) to the image of (2, 1, 0)
    key, fault = (0, 1, 0, 1, 1), {(0, 0, 1): 1}
    assert complexes._stencil_key((2, 1, 0)) == key
    assert not is_admissible(SYM_ODD, (2, 1, 1))
    assert mirror_sign(SYM_ODD, (2, 1, 1)) == -1
    rules = complexes._rules

    def faulty(flavor):
        found = rules(flavor)
        if flavor != SYM_ODD:
            return found
        left = dict(found.stencil["left"])
        assert fault.keys().isdisjoint(left[key])
        left[key] = {**left[key], **fault}
        return found._replace(stencil={**found.stencil, "left": left})

    monkeypatch.setattr(complexes, "_rules", faulty)
    with pytest.raises(ComplexConsistencyError) as caught:
        build_slice(CASE_EO, 4)
    error = caught.value
    assert (error.case, error.t, error.triple, error.component) == (
        CASE_EO,
        4,
        (2, 1, 0),
        (2, 1, 1),
    )
    assert str(error) == "image component (2, 1, 1) of (2, 1, 0) misses the target basis"


def test_graded_mirror_law_makes_d1_d2_vanish_at_every_t():
    """mirror(ab) = (-1)^(|a||b|) mirror(b) mirror(a) on normal-form monomials
    of the odd flavors, and mirror(ab) = mirror(a) mirror(b) in the commuting
    ones, with ab = crossing(a, b) (a + b) and mirror diagonal (mirror_sign).

    Both sides read the exponents mod 4 only: mirror_sign reads k(k+1)/2 mod 2
    of each exponent, which k mod 4 fixes, and crossing and |a||b| read
    parities.  So the 4096 pairs of triples in {0..3}^3 cover every pair of
    monomials, and by bilinearity every pair of elements.

    Then d1 d2 f = +-[e1 f e1]_mirror-even is 0 for every f in C2, at every t.
    With mirror(e1) = -e1 and mirror(f) = f (C2's eigenvalue in the odd
    flavors), the law gives mirror(e1 (f e1)) = (-1)^(|f|+1) mirror(f e1)(-e1)
    = (-1)^(|f|+1) (-1)^|f| (-e1) f (-e1) = -e1 f e1.  In the commuting
    flavors mirror(f) = -f and mirror(e1 f e1) = e1 mirror(f) e1 = -e1 f e1.
    Either way e1 f e1 is mirror-odd.  build_slice's is_zero_composition
    stays as the sampled check.
    """
    residues = list(itertools.product(range(4), repeat=3))
    for flavor in FLAVORS:
        for a, b in itertools.product(residues, repeat=2):
            ab = tuple(x + y for x, y in zip(a, b))
            left = mirror_sign(flavor, ab)
            right = mirror_sign(flavor, a) * mirror_sign(flavor, b)
            if flavor.odd:
                left *= crossing(a, b)
                right *= crossing(b, a) * (-1) ** (sum(a) * sum(b))
            assert left == right, (flavor, a, b)


def test_d2_columns_lead_on_distinct_rows_at_every_t():
    """At the first base of each of the 32 stencil keys, on both sides of
    every flavor: if the base is admissible, its stencil has a nonzero entry
    on e_0 and base + e_0 is admissible; if not, the stencil has no e_0 entry.

    Then rank d2 = c2, and so h2 = 0, at every t.  d2's column of a source k
    of C2 is the stencil of k's key times a nonzero scalar, in the rows of
    k + e_i; _rules' shift check makes the stencil a function of the key.
    C1's rows run in descending lex order, and k + e_0 precedes k + e_1 and
    k + e_2, so k + e_0 is the column's leading row: its entry is nonzero,
    and it is a row of C1, which holds every admissible triple of degree
    t - 1.  Distinct sources have distinct k + e_0, so the columns have
    distinct leading rows and are independent.  One base stands for its
    whole stencil key: admissibility reads only the parities and which gaps
    are 0 (_rules), and the stencil key fixes both, for k and for k + e_0.
    """
    e0 = (1, 0, 0)
    first = {}
    for base in complexes._BASES:
        first.setdefault(complexes._stencil_key(base), base)
    assert len(first) == 32
    for flavor in FLAVORS:
        rules = complexes._rules(flavor)
        for side, (key, base) in itertools.product(("left", "right"), first.items()):
            column = rules.stencil[side][key]
            if rules.sign[residue_key(base)]:
                lead = (base[0] + 1, base[1], base[2])
                assert column.get(e0, 0) != 0, (flavor, side, base)
                assert rules.sign[residue_key(lead)] != 0, (flavor, side, base)
            else:
                assert e0 not in column, (flavor, side, base)


def test_commuting_flavors_mirror_by_the_degree_parity():
    """In Sym[x] and ASym[x] every residue key's sign is (-1)^(k1+k2+k3)
    when the key is admissible and 0 otherwise.  Every key is admissible in
    Sym[x]; in ASym[x] a key is when neither equality flag is set, that is
    when the triple is strictly decreasing.

    So in oo and ee, C0 (the mirror-even part of degree t) is all of degree
    t when t is even and empty when t is odd, and C2 (the eigenvalue -1 part
    of degree t - 2) is the reverse: all of degree t - 2 when t is odd.
    """
    for flavor in (SYM, ASYM):
        sign = complexes._rules(flavor).sign
        assert len(sign) == 100
        for key, value in sign.items():
            admissible = flavor == SYM or not any(key[3:])
            assert value == ((-1) ** sum(key[:3]) if admissible else 0), (flavor, key)


def test_assembly_errors_say_where():
    # an image component of d2 missing from the target basis
    basis2, basis1 = defect2_basis(CASE_OO, 5), defect1_basis(CASE_OO, 5)
    assert basis2[0] == (3, 0, 0) and basis1[0] == (4, 0, 0)
    with pytest.raises(ComplexConsistencyError) as caught:
        complexes._matrix_of(CASE_OO, 5, basis2, basis1[1:], 2)
    error = caught.value
    assert (error.case, error.t, error.triple, error.component) == (
        CASE_OO,
        5,
        (3, 0, 0),
        (4, 0, 0),
    )
    assert str(error) == "image component (4, 0, 0) of (3, 0, 0) misses the target basis"
    # the same for d1, with the mirror-odd triples its projection drops
    basis1, basis0 = defect1_basis(CASE_OO, 4), defect0_basis(CASE_OO, 4)
    assert basis1[0] == (3, 0, 0) and basis0[0] == (4, 0, 0)
    odd = complexes._degree(CASE_OO.flavor, 4).by_sign[-1]
    with pytest.raises(ComplexConsistencyError) as caught:
        complexes._matrix_of(CASE_OO, 4, basis1, basis0[1:], 1, odd)
    error = caught.value
    assert (error.case, error.t, error.triple, error.component) == (
        CASE_OO,
        4,
        (3, 0, 0),
        (4, 0, 0),
    )
    assert str(error) == "image component (4, 0, 0) of (3, 0, 0) misses the target basis"


def test_build_slice_shapes_and_composition():
    for case in ALL_CASES:
        for t in range(1, 16):
            s = build_slice(case, t)
            assert s.d2.rows == len(s.basis1) and s.d2.cols == len(s.basis2)
            assert s.d1.rows == len(s.basis0) and s.d1.cols == len(s.basis1)
            assert is_zero_composition(s.d1, s.d2)
            assert s.d2.cols - s.d2.rank() == 0


def test_build_slice_rejects_nonpositive_degree():
    with pytest.raises(ValueError):
        build_slice(CASE_OO, 0)
    with pytest.raises(ValueError):
        build_slice(CASE_EE, -3)


def test_build_slice_rejects_non_integer_degree():
    # 2.7 is refused, not silently built as t = 2
    for t in (2.7, Fraction(5, 2), True, float("inf"), None, "2"):
        with pytest.raises(ValueError):
            build_slice(CASE_OO, t)
    want = build_slice(CASE_OO, 2)
    for two in (2.0, Fraction(4, 2)):
        s = build_slice(CASE_OO, two)
        assert s.t == 2 and type(s.t) is int
        for field in HodgeSlice.__slots__:  # a slice has no value equality
            assert getattr(s, field) == getattr(want, field), field


def test_slice_matrix_entries():
    s = build_slice(CASE_OO, 3)
    # d2(e1) = -2 e1^2 = -2 (2,0,0)-basis part ... expand over (2,0,0),(1,1,0)
    assert s.basis2 == ((1, 0, 0),)
    assert s.d2.entry(0, 0) == -2  # coefficient on (2,0,0)
    assert s.d2.entry(1, 0) == -4  # coefficient on (1,1,0); e1^2 has cross terms 2
    assert s.d1.rows == 0


def test_slice_as_dict_schema():
    s = build_slice(CASE_OE, 2)
    d = json.loads(json.dumps(slice_as_dict(s)))
    assert d == {
        "case": "oe",
        "t": 2,
        "c2": [],
        "c1": [],
        "c0": [[1, 1, 0]],
        "d2": [],
        "d1": [],
    }
    # JSON-serializable as is
    parsed = json.loads(json.dumps(slice_as_dict(build_slice(CASE_OO, 6))))
    assert parsed["case"] == "oo" and parsed["t"] == 6
    for row, col, value in parsed["d1"]:
        assert isinstance(row, int) and isinstance(col, int)
        Fraction(value)  # parses back


def list_layout(s):
    """slice_as_dict as it was built of lists: a new list per basis triple,
    and [row, col, str(value)] per nonzero entry, sorted by (row, col)."""

    def triplets(mat):
        return [[i, j, str(v)] for (i, j), v in sorted(mat.entries.items())]

    return {
        "case": s.case.key,
        "t": s.t,
        "c2": [list(triple) for triple in s.basis2],
        "c1": [list(triple) for triple in s.basis1],
        "c0": [list(triple) for triple in s.basis0],
        "d2": triplets(s.d2),
        "d1": triplets(s.d1),
    }


def test_slice_as_dict_dumps_as_the_list_layout():
    # the dict holds the slice's basis tuples and (row, col, text) tuples;
    # json writes them as arrays, so the text is the list layout's
    for case in ALL_CASES:
        for t in [*range(1, 41), 128]:
            s = build_slice(case, t)
            d = slice_as_dict(s)
            assert d["c2"] is s.basis2 and d["c1"] is s.basis1 and d["c0"] is s.basis0
            text = json.dumps(d, indent=2)
            assert text == json.dumps(list_layout(s), indent=2), (case.key, t)


def test_slices_are_frozen():
    s = build_slice(CASE_OO, 2)
    with pytest.raises(AttributeError):
        s.t = 3
    assert isinstance(s, HodgeSlice)


# --- reference differential row tables ---------------------------------------
#
# The two tables below transcribe the reference values for the defect-1
# differential on near-diagonal and diagonal-pair basis elements of the odd
# flavors.  Inadmissible targets are dropped (their symmetrization is zero).
#
# Two families are transcribed as printed but provably diverge from the
# differential (both reconfirmed against the independent word oracle above):
#
#   * ASym[xi] near-diagonal family (k2 even, k3 = 3 mod 4): printed with
#     image +2[k2+1,k2+1,k3], while the differential gives -2; see
#     test_divergent_family_sign.
#   * Sym[xi] diagonal-pair family (k2 even, k3 = 2 mod 4, k2 > k3): printed
#     with the leading term only, while the differential also produces a
#     trailing +[k2,k2,k3+1].  That target is mirror-even exactly when
#     k3 = 2, 3 mod 4, and for k2 = k3 it leaves the diagonal shape, which
#     is why the remaining rows of the family really are single-term.
#
# The comparisons below assert the mismatches are exactly those families and
# nothing else.


def eo_reference_rows(bound):
    for k2 in range(1, bound, 2):  # near-diagonal sources, k2 odd
        for k3 in range(k2):
            source = (k2 + 1, k2, k3)
            if k3 % 4 == 0:
                yield source, {(k2 + 1, k2 + 1, k3): 2}
            elif k3 % 4 == 1:
                yield source, {(k2 + 2, k2, k3): 1}
            elif k3 % 4 == 2:
                yield source, {(k2 + 2, k2, k3): 1, (k2 + 1, k2, k3 + 1): -1}
            else:
                yield source, {(k2 + 1, k2 + 1, k3): 2, (k2 + 1, k2, k3 + 1): -1}
    for k2 in range(0, bound, 2):  # diagonal-pair sources, k2 even
        for k3 in range(k2 + 1):
            source = (k2, k2, k3)
            if k3 % 4 == 0:
                yield source, {}
            elif k3 % 4 == 1:
                if k2 > k3:
                    yield source, {(k2 + 1, k2, k3): 1}
            elif k3 % 4 == 2:
                yield source, {(k2 + 1, k2, k3): 1}
            elif k2 > k3 + 1:
                yield source, {(k2, k2, k3 + 1): 1}
    for k3 in range(3, bound, 4):  # boundary row k2 = k3 + 1, k3 = 3 mod 4
        yield (k3 + 1, k3 + 1, k3), {(k3 + 1, k3 + 1, k3 + 1): 3}


def oe_reference_rows(bound):
    for k2 in range(0, bound, 2):  # near-diagonal sources, k2 even
        for k3 in range(k2):
            source = (k2 + 1, k2, k3)
            if k3 % 4 == 0:
                yield source, {(k2 + 1, k2 + 1, k3): -2, (k2 + 1, k2, k3 + 1): -1}
            elif k3 % 4 == 1:
                yield source, {(k2 + 2, k2, k3): 1, (k2 + 1, k2, k3 + 1): -1}
            elif k3 % 4 == 2:
                yield source, {(k2 + 2, k2, k3): 1}
            else:
                yield source, {(k2 + 1, k2 + 1, k3): 2}  # engine gives -2 here
    for k2 in range(1, bound, 2):  # diagonal-pair sources, k2 odd
        for k3 in range(k2 + 1):
            source = (k2, k2, k3)
            if k3 % 4 == 0:
                yield source, {(k2 + 1, k2, k3): 1}
            elif k3 % 4 == 1:
                yield source, {}
            elif k3 % 4 == 2:
                if k2 > k3 + 1:
                    yield source, {(k2, k2, k3 + 1): 1}
            elif k2 > k3:
                yield source, {(k2 + 1, k2, k3): 1, (k2, k2, k3 + 1): 1}
    for k3 in range(2, bound, 4):  # boundary row k2 = k3 + 1, k3 = 2 mod 4
        yield (k3 + 1, k3 + 1, k3), {(k3 + 1, k3 + 1, k3 + 1): 3}
    for k3 in range(3, bound, 4):  # fully diagonal row, k3 = 3 mod 4
        yield (k3, k3, k3), {(k3 + 1, k3, k3): 1}


def engine_d1_coordinates(case, source):
    image = apply_defect1(case, symmetrize(case.flavor, source))
    return {m: c for m, c in basis_coordinates(image).items()}


def admissible_part(flavor, predicted):
    return {
        mono: Fraction(c)
        for mono, c in predicted.items()
        if is_admissible(flavor, mono)
    }


def test_reference_d1_rows_sym_flavor():
    mismatches = []
    for source, predicted in eo_reference_rows(10):
        computed = engine_d1_coordinates(CASE_EO, source)
        expected = admissible_part(SYM_ODD, predicted)
        if computed != expected:
            mismatches.append((source, expected, computed))
    assert mismatches
    for source, expected, computed in mismatches:
        k1, k2, k3 = source
        assert k1 == k2 and k2 % 2 == 0 and k3 % 4 == 2 and k2 > k3, source
        assert computed == {**expected, (k2, k2, k3 + 1): Fraction(1)}, source


def test_reference_d1_rows_asym_flavor():
    mismatches = {}
    for source, predicted in oe_reference_rows(10):
        computed = engine_d1_coordinates(CASE_OE, source)
        expected = admissible_part(ASYM_ODD, predicted)
        if computed != expected:
            mismatches[source] = (expected, computed)
    # every divergence is the k3 = 3 mod 4 near-diagonal family, with the
    # leading coefficient flipped from +2 to -2; nothing else moves
    assert mismatches
    for (k1, k2, k3), (expected, computed) in mismatches.items():
        assert k1 == k2 + 1 and k2 % 2 == 0 and k3 % 4 == 3
        assert expected == {(k2 + 1, k2 + 1, k3): Fraction(2)}
        assert computed == {(k2 + 1, k2 + 1, k3): Fraction(-2)}


def test_divergent_family_sign():
    # smallest instance, pinned directly against the word oracle
    f = symmetrize(ASYM_ODD, (5, 4, 3))
    assert basis_coordinates(apply_defect1(CASE_OE, f)) == {(5, 5, 3): Fraction(-2)}
    assert oracle_defect1(CASE_OE, f.coeffs) == apply_defect1(CASE_OE, f).coeffs
