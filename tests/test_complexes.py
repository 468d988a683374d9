import json
import random
from fractions import Fraction

import pytest

from theta_homology.algebra import (
    ASYM_ODD,
    SYM,
    SYM_ODD,
    Element,
    admissible_basis,
    basis_coordinates,
    generator_sum,
    is_admissible,
    mirror,
    mirror_sign,
    symmetrize,
    vandermonde,
)
from theta_homology.cases import ALL_CASES, CASE_EE, CASE_EO, CASE_OE, CASE_OO
from theta_homology.complexes import (
    HodgeSlice,
    apply_defect1,
    apply_defect2,
    build_slice,
    defect0_basis,
    defect1_basis,
    defect2_basis,
    slice_as_dict,
)
from theta_homology.linalg import is_zero_composition


# --- word-level oracle for the odd-generator differentials -------------------


def word_normalize(word):
    word = list(word)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign = -sign
                changed = True
    return (word.count(1), word.count(2), word.count(3)), sign


def word_of(mono):
    return (1,) * mono[0] + (2,) * mono[1] + (3,) * mono[2]


def word_mul(fa, fb):
    out = {}
    for a, ca in fa.items():
        for b, cb in fb.items():
            mono, sign = word_normalize(word_of(a) + word_of(b))
            out[mono] = out.get(mono, Fraction(0)) + sign * ca * cb
    return {m: c for m, c in out.items() if c}


def word_mirror(coeffs):
    out = {}
    for mono, c in coeffs.items():
        reversed_word = ()
        acc = Fraction(c)
        for letter in word_of(mono):
            acc = acc * (-1) ** len(reversed_word) * (-1)
            reversed_word = (letter,) + reversed_word
        m, s = word_normalize(reversed_word)
        out[m] = out.get(m, Fraction(0)) + s * acc
    return {m: c for m, c in out.items() if c}


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
    e1 = generator_sum(SYM)
    image = apply_defect2(CASE_OO, e1)
    assert image == e1 * e1 * -2
    delta = vandermonde()
    assert apply_defect2(CASE_EE, delta) == delta * generator_sum(SYM) * 2
    # odd flavor, odd degree: the supergrading flips the sign back to +2
    f = symmetrize(SYM_ODD, (3, 0, 0))
    expected = (f * generator_sum(SYM_ODD)) * 2
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
    e1 = generator_sum(SYM)
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
            f = Element.zero(flavor, degree)
            for triple in triples:
                f = f + symmetrize(flavor, triple) * rng.randrange(-2, 3)
            assert apply_defect1(case, f).coeffs == oracle_defect1(case, f.coeffs)
            eigen = [
                tr
                for tr in triples
                if mirror_sign(flavor, tr) == case.defect2_mirror_sign
            ]
            g = Element.zero(flavor, degree)
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


def test_slice_matrix_entries():
    s = build_slice(CASE_OO, 3)
    # d2(e1) = -2 e1^2 = -2 (2,0,0)-basis part ... expand over (2,0,0),(1,1,0)
    assert s.basis2 == ((1, 0, 0),)
    assert s.d2.entry(0, 0) == -2  # coefficient on (2,0,0)
    assert s.d2.entry(1, 0) == -4  # coefficient on (1,1,0); e1^2 has cross terms 2
    assert s.d1.rows == 0


def test_slice_as_dict_schema():
    s = build_slice(CASE_OE, 2)
    d = slice_as_dict(s)
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
