"""The package's value types: the interned flavors and parity cases, and the
immutable slices and rank rows."""

import copy
import pickle

import pytest

from theta_homology.algebra import ASYM, ASYM_ODD, FLAVORS, SYM, SYM_ODD, Flavor
from theta_homology.cases import (
    ALL_CASES,
    CASE_EE,
    CASE_EO,
    CASE_OE,
    CASE_OO,
    ParityCase,
    case_from_key,
)
from theta_homology.complexes import build_slice
from theta_homology.homology import homology_ranks


def test_constructors_return_the_interned_instances():
    # one instance per parity pair, so equality and hashing are by identity
    assert Flavor(False, False) is SYM and Flavor(False, True) is ASYM
    assert Flavor(True, False) is SYM_ODD and Flavor(odd=True, antisymmetric=True) is ASYM_ODD
    assert ParityCase(True, True) is CASE_OO and ParityCase(False, False) is CASE_EE
    assert ParityCase(False, True) is CASE_EO and ParityCase(m_odd=True, n_odd=False) is CASE_OE
    for value in FLAVORS + ALL_CASES:
        assert copy.copy(value) is value and copy.deepcopy(value) is value
        assert pickle.loads(pickle.dumps(value)) is value
    for case in ALL_CASES:
        assert case_from_key(case.key) is case
    assert len(set(FLAVORS)) == len(set(ALL_CASES)) == 4
    for make in (Flavor, ParityCase):
        with pytest.raises(ValueError, match="is a pair of bools, got \\(2, 0\\)"):
            make(2, 0)


def test_cases_store_what_follows_from_their_parities():
    table = {
        "oo": (CASE_OO, SYM, -1),
        "ee": (CASE_EE, ASYM, -1),
        "eo": (CASE_EO, SYM_ODD, 1),
        "oe": (CASE_OE, ASYM_ODD, 1),
    }
    for key, (case, flavor, sign) in table.items():
        assert (case.key, case.flavor, case.defect2_mirror_sign) == (key, flavor, sign)
        assert str(case) == key


def test_text_forms():
    assert repr(SYM_ODD) == "Flavor(odd=True, antisymmetric=False)"
    assert [str(flavor) for flavor in FLAVORS] == ["Sym[x]", "ASym[x]", "Sym[xi]", "ASym[xi]"]
    assert repr(CASE_EO) == "ParityCase(m_odd=False, n_odd=True)"


def test_value_types_refuse_assignment_and_deletion():
    values = (
        (SYM, "odd"),
        (CASE_OO, "flavor"),
        (build_slice(CASE_EO, 5), "d2"),
        (homology_ranks(build_slice(CASE_EO, 5)), "a"),
    )
    for value, field in values:
        before = getattr(value, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            value.extra = 1
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
        assert getattr(value, field) is before
        assert not hasattr(value, "__dict__")


def test_copies_and_pickles_hold_the_same_fields():
    for value in (build_slice(CASE_EO, 5), homology_ranks(build_slice(CASE_EO, 5))):
        for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(other) is type(value)
            for field in type(value).__slots__:
                assert getattr(other, field) == getattr(value, field), field
