"""The record base (zpcount.core._Record): immutable, slotted values that
compare, hash, print and pickle like frozen dataclasses, checked against
real dataclasses built here from the same fields."""

import copy
import dataclasses
import pickle
import random
import subprocess
import sys

import pytest

from conftest import subprocess_env
from zpcount import (
    AffineMap, PointVerdict, SearchReport, Subset, TheoremVerdict, minimize_sk, orbit_catalog,
    verify_thm_knot1,
)
from zpcount.core import _Record, prime_context
from zpcount.fourier import F_value, TGoodPoint
from zpcount.pollard import EqualityCase, EqualityTag, threshold_profile


def _samples() -> list:
    return [
        Subset(7, 0b1011),
        prime_context(5),
        AffineMap(13, 15, -8),
        orbit_catalog(7, 3),
        minimize_sk(7, 3, 2),
        PointVerdict(3, "holds", {"k": 3}),
        verify_thm_knot1(7, 3, range(2, 5)),
        EqualityCase(EqualityTag.LARGE_SUM, (EqualityTag.LARGE_SUM,), common_difference=2),
        threshold_profile([Subset.interval(7, 3), Subset(7, 0b1101)]),
        F_value(Subset.interval(7, 3), 3, precision=64),
        TGoodPoint(1, 2, 15, -1, True),
    ]


def _twin(record):
    """A frozen dataclass of the record's class name and fields, holding its values."""
    twin = dataclasses.make_dataclass(type(record).__name__, record._fields, frozen=True)
    return twin(*[getattr(record, name) for name in record._fields])


def _hashable(record) -> bool:
    try:
        hash(record)
    except TypeError:
        return False
    return True


def test_non_subset_reprs_and_hashes_are_those_of_a_frozen_dataclass():
    for record in _samples()[1:]:
        twin = _twin(record)
        assert repr(record) == repr(twin)
        assert _hashable(record) == _hashable(twin)
        if _hashable(record):
            assert hash(record) == hash(twin)
    assert repr(AffineMap(13, 15, -8)) == "AffineMap(p=13, xi=2, eta=5)"


def test_subset_keeps_its_repr_and_the_dataclass_hash():
    s = Subset(7, 0b1011)
    assert repr(s) == "Subset(p=7, {0, 1, 3})"
    assert hash(s) == hash(_twin(s)) == hash((7, 0b1011))


def test_records_round_trip_through_pickle_and_deepcopy():
    for record in _samples():
        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                      copy.copy(record)):
            assert type(clone) is type(record)
            assert clone == record
            assert repr(clone) == repr(record)
            if hasattr(record, "to_json"):
                assert clone.to_json() == record.to_json()


def test_fields_cannot_be_assigned_or_deleted():
    for record in _samples():
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_records_of_different_classes_are_unequal():
    class Left(_Record):
        __slots__ = _fields = ("x", "y")

    class Right(_Record):
        __slots__ = _fields = ("x", "y")

    class Sub(Subset):
        __slots__ = ()

    assert Left(1, 2) == Left(1, 2) and Left(1, 2) != Left(1, 3)
    assert Left(1, 2) != Right(1, 2)
    assert Subset(7, 3) != Sub(7, 3) and Sub(7, 3) != Subset(7, 3)
    assert Subset(7, 3) != (7, 3)


def test_subsets_sort_by_modulus_then_mask():
    rng = random.Random(5)
    subsets = [Subset(p, rng.randrange(1 << p)) for p in (5, 7, 11) for _ in range(20)]
    rng.shuffle(subsets)
    assert sorted(subsets) == sorted(subsets, key=lambda s: (s.p, s.mask))
    a, b = Subset(7, 5), Subset(5, 9)
    assert b < a and b <= a and a > b and a >= b and a <= a and a >= a
    assert not (a < a) and not (a > a)
    with pytest.raises(TypeError):
        a < (7, 6)


def test_defaults_apply():
    report = SearchReport(7, (3,), 2, 5, (), "orbit", "m", 1)
    assert report.extremal_configs == () and report.attainer_count == 0
    assert report == SearchReport(7, (3,), 2, 5, (), "orbit", "m", 1, (), 0)
    first, second = PointVerdict(2, "holds"), PointVerdict(2, "holds")
    assert first.details == {} and first.details is not second.details
    case = EqualityCase(EqualityTag.NONE, ())
    assert (case.reflection_point, case.complement_point, case.common_difference) == \
        (None, None, None)


def test_the_generic_constructor_takes_each_field_once():
    args = (7, (3,), 2, 5, (), "orbit", "m")
    assert SearchReport(*args, checked=1) == SearchReport(*args, 1)
    with pytest.raises(TypeError):
        SearchReport(*args)  # checked has no default
    with pytest.raises(TypeError):
        SearchReport(*args, 1, checked=1)
    with pytest.raises(TypeError):
        SearchReport(*args, 1, bogus=1)
    with pytest.raises(TypeError):
        TheoremVerdict("id", {}, (), None, True, 1)


def test_non_integer_fields_are_rejected():
    # a bool is refused too, although operator.index(True) is 1
    for make in (lambda: Subset(7, 3.0), lambda: Subset(7, "3"), lambda: Subset(7, True),
                 lambda: AffineMap(13, 2.5, 1), lambda: AffineMap(13, 2, 1.0)):
        with pytest.raises(TypeError) as info:
            make()
        assert "must be an integer" in str(info.value) and "\n" not in str(info.value)


def test_non_integer_fields_are_rejected_under_optimize():
    script = (
        "from zpcount import AffineMap, Subset\n"
        "for make in (lambda: Subset(7, 3.0), lambda: AffineMap(13, 2.5, 1)):\n"
        "    try:\n"
        "        make()\n"
        "    except TypeError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=subprocess_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["mask must be an integer, got 3.0",
                                        "xi must be an integer, got 2.5"]
