"""The record types: constructor signatures and defaults, field names,
equality, hashing and immutability."""

from __future__ import annotations

import pickle
from fractions import Fraction as F

import pytest

from umbral import IdentityCase, IdentityReport, InvalidParameterError, SequenceFamily, family
from umbral.sheffer import FamilyRow, OrthogonalityCase, OrthogonalityReport


def triangle(n_max):
    return n_max


def delta(trunc):
    return trunc


CASE = dict(n=3, m=2, k=1, lhs=F(7, 2), rhs=F(7, 2), equal=True, interpretation="indexed",
            diagnostics=(((1, 1), F(7, 4)), ((2, 0), F(7, 4))))
ORTHOGONALITY_CASE = dict(n=2, k=1, value=F(0), expected=F(0), ok=True)

# each record with every field given by keyword
RECORDS = [
    (IdentityCase, CASE),
    (IdentityReport, dict(identity="T1", params={"n_max": 3}, cases=(IdentityCase(**CASE),))),
    (OrthogonalityCase, ORTHOGONALITY_CASE),
    (OrthogonalityReport, dict(cases=(OrthogonalityCase(**ORTHOGONALITY_CASE),))),
    (FamilyRow, dict(table="t", names=("t",), closed_triangle=triangle, delta=delta,
                     takes_a=True)),
    (SequenceFamily, dict(name="abel", a=F(2, 3))),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_records_keep_their_fields(cls, fields):
    record = cls(**fields)
    assert {name: getattr(record, name) for name in fields} == fields
    assert record == cls(*fields.values())


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_records_compare_and_hash_by_value(cls, fields):
    record, twin = cls(**fields), cls(**dict(fields))
    assert record is not twin
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert len({record, twin}) == 1


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_records_are_immutable(cls, fields):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert {name: getattr(record, name) for name in fields} == fields


def test_records_differ_when_a_compared_field_differs():
    assert IdentityCase(**CASE) != IdentityCase(**{**CASE, "rhs": F(1), "equal": False})
    report = IdentityReport("T1", {}, (IdentityCase(**CASE),))
    assert report != IdentityReport("T2", {}, (IdentityCase(**CASE),))
    assert report != IdentityReport("T1", {}, ())
    assert SequenceFamily("abel", F(2)) != SequenceFamily("abel", F(3))
    assert SequenceFamily("lah") != SequenceFamily("mittag-leffler")


def test_record_defaults():
    case = IdentityCase(1, 1, 1, F(1), F(1), True)
    assert (case.interpretation, case.diagnostics) == (None, None)
    assert IdentityReport("T1", {}).cases == ()
    assert FamilyRow("t", (), triangle, None).takes_a is False
    assert SequenceFamily("lah").a is None


def test_report_params_stay_out_of_equality_and_hash():
    cases = (IdentityCase(**CASE),)
    first = IdentityReport("T3", {"n_max": 3, "a": "1"}, cases)
    second = IdentityReport("T3", {"n_max": 30, "a": "2/3", "extra": None}, cases)
    assert first == second
    assert hash(first) == hash(second)
    assert first.params != second.params


def test_records_survive_pickling():
    for cls, fields in RECORDS:
        record = cls(**fields)
        assert pickle.loads(pickle.dumps(record)) == record


def test_sequence_family_refusals():
    with pytest.raises(InvalidParameterError, match="unknown family 'nope'"):
        SequenceFamily("nope")
    # only the canonical name builds a family directly; ``family`` resolves aliases
    with pytest.raises(InvalidParameterError, match="unknown family 'lah-signed'"):
        SequenceFamily("lah-signed")
    assert family("lah-signed") == SequenceFamily("lah")
    for a in (None, F(0)):
        with pytest.raises(InvalidParameterError, match="abel family needs a nonzero parameter"):
            SequenceFamily("abel", a)
    with pytest.raises(InvalidParameterError, match="family 'lah' takes no parameter"):
        SequenceFamily("lah", F(2))


def test_sequence_family_equals_its_lookup():
    assert family("abel", 2) == SequenceFamily("abel", F(2))
    assert hash(family("abel", 2)) == hash(SequenceFamily("abel", F(2)))
    assert family("mittag-leffler") == SequenceFamily("mittag-leffler", None)
