"""The package's records: the slotted ones compare, hash and refuse
assignment as frozen dataclasses did, and validate with the same
messages."""
from __future__ import annotations

import pytest

from heckelab.cli import CheckRecord, VerificationReport
from heckelab.cyclotomic import Cyc
from heckelab.finite_groups import FiniteGroup, dihedral
from heckelab.padic_groups import iwahori_scheme
from heckelab.representations import Representation
from heckelab.root_datum import WeylElement, WeylGroup, datum_general_linear


def test_weyl_elements_compare_and_hash_on_perm_alone():
    group = WeylGroup(datum_general_linear(3))
    longest = max(group.elements, key=lambda w: w.length)
    assert len(longest.word) == 3
    # s0 s1 s0 = s1 s0 s1: another reduced word of the same element
    other = WeylElement(longest.perm, tuple(1 - i for i in longest.word))
    assert other.word != longest.word
    assert other == longest and hash(other) == hash(longest)
    assert len({longest, other}) == 1
    assert longest != group.identity


def test_root_datum_equality_ignores_its_coefficient_memo():
    filled, fresh = datum_general_linear(3), datum_general_linear(3)
    assert filled.simple_coefficients(filled.roots[0]) is not None
    assert filled._coeff_cache and not fresh._coeff_cache
    assert filled == fresh and hash(filled) == hash(fresh)
    assert filled != datum_general_linear(4)


def test_equality_ignores_the_derived_caches():
    d8 = dihedral(4)
    assert FiniteGroup(d8.table, d8.label) == d8
    assert FiniteGroup(d8.table, "other") != d8
    sign = [[[Cyc.rational(2, -1)]], [[Cyc.rational(2, -1)]]]
    rep, twin = (Representation.from_generators(d8, [1, 4], sign, 2)
                 for _ in range(2))
    rep.character()
    assert rep._char and not twin._char
    assert rep == twin


def _records():
    group = WeylGroup(datum_general_linear(2))
    return {
        "RootDatum": (group.datum, "label"),
        "RootDatum memo": (group.datum, "_coeff_cache"),
        "WeylElement": (group.identity, "perm"),
        "WeylElement word": (group.identity, "word"),
        "FiniteGroup": (dihedral(4), "table"),
        "FiniteGroup inverse": (dihedral(4), "_inverse"),
        "CheckRecord": (CheckRecord("x", "PASS"), "status"),
        "VerificationReport": (VerificationReport("s", ()), "data"),
        "ValuationGroupScheme": (iwahori_scheme(2), "bounds"),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_fields_cannot_be_assigned_or_deleted(name):
    record, field = _records()[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.new_attribute = 1
    assert getattr(record, field) is before


def test_check_record_refusals_keep_their_messages():
    with pytest.raises(ValueError, match=r"^bad status 'BAD'$"):
        CheckRecord("x", "BAD")
    with pytest.raises(ValueError, match=r"^FAIL requires a witness$"):
        CheckRecord("x", "FAIL")
    assert CheckRecord("x", "FAIL", {}).witness == {}


def test_records_print_as_dataclasses_did():
    assert repr(CheckRecord("x", "PASS")) == \
        "CheckRecord(name='x', status='PASS', witness=None)"
    assert repr(iwahori_scheme(1)) == "ValuationGroupScheme(bounds=((0,),))"
    assert VerificationReport("s", ()).data == {}
    assert VerificationReport("s", ()).data is not VerificationReport("s", ()).data
