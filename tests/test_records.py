"""The contract every exported record class keeps.

The ten records are plain ``__slots__`` classes on ``Record``.  Each compares
and hashes by its ``_fields`` through the one ``__eq__`` and ``__hash__`` of
``Record``, refuses assignment, pickles through its constructor (reports
cross the worker pool) and copies with changes through ``replace``, which
validates the copy again.
"""

from __future__ import annotations

import importlib
import pickle
import pkgutil

import pytest

import qident
from qident.identities import Entry
from qident.lpi import LpiError, LpiSpec, gap4_ideal
from qident.multisum import MultiSumSpec, SumNode
from qident.partitions import InvalidOverpartition, Overpartition, PartStats
from qident.products import PochSpec
from qident.record import Record
from qident.report import IdentityReport
from qident.series import Mismatch, SeriesError, VarSet


def _runner(order: int) -> tuple[bool, str | None]:
    """A module-level runner, so that an Entry holding it pickles."""
    return True, None


_IDEAL = gap4_ideal()

# (class, constructor arguments, a valid change, an invalid change and its error or None)
RECORDS = [
    (VarSet, (("q", "x"),), {"names": ("q", "y")}, ({"names": ("x", "q")}, SeriesError)),
    (Mismatch, ((1, 2), 3, 4), {"left": 5}, None),
    (
        Overpartition, (((1, True), (2, False)),), {"parts": ((3, False),)},
        ({"parts": ((0, False),)}, InvalidOverpartition),
    ),
    (PartStats, (5, 1, 1, 0, 0, 1), {"over": 0}, None),
    (PochSpec, ((1, 1), 2, None, -1), {"step": 3}, ({"step": 0}, SeriesError)),
    (
        MultiSumSpec, (((2,),), (1,), ((1,),)), {"bases": (2,)},
        ({"alpha": ((-1,),)}, SeriesError),
    ),
    (SumNode, ((0, 0), (1, 2)), {"beta": (3, 4)}, None),
    (
        LpiSpec, (_IDEAL.blocks, _IDEAL.linking, _IDEAL.modulus), {"modulus": 5},
        ({"modulus": 0}, LpiError),
    ),
    (Entry, ("e", 1, 2, "d", None, _runner), {"max_order": 3}, None),
    (
        IdentityReport, ("x", 3, True), {"order": 4},
        ({"passed": False}, ValueError),  # a failed report needs a witness
    ),
]
_IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, args, change, invalid", RECORDS, ids=_IDS)
def test_record_contract(cls, args, change, invalid):
    a, b = cls(*args), cls(*args)

    # equal fields give equal records and hashes; a change makes them differ
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != b.replace(**change)

    # the hash is that of the field tuple, but no record equals one of another
    # class, nor the tuple of its own fields
    fields = tuple(getattr(a, name) for name in cls._fields)
    assert hash(a) == hash(fields) and a == a and not a != a
    assert not isinstance(a, tuple) and a != fields and a != args
    for other_cls, other_args, *_ in RECORDS:
        if other_cls is not cls:
            assert a != other_cls(*other_args)

    # assigning or deleting a field raises and leaves it as it was
    assert not hasattr(a, "__dict__")
    for name in cls.__slots__:
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, before)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is before
    with pytest.raises(AttributeError):
        a.extra = 1

    # a pickle round trip gives an equal record, derived slots included
    c = pickle.loads(pickle.dumps(a))
    assert type(c) is cls and c == a
    assert all(getattr(c, name) == getattr(a, name) for name in cls.__slots__)

    # replace copies through the constructor, which validates the copy again
    d = a.replace(**change)
    assert type(d) is cls and d == cls(**(dict(zip(cls._fields, fields)) | change))
    assert a == b and a.replace() == a
    with pytest.raises(TypeError):
        a.replace(no_such_field=1)
    if invalid is not None:
        bad, error = invalid
        with pytest.raises(error):
            a.replace(**bad)


def _package_records() -> set[type]:
    """Every class under ``Record``, at any depth, that a module of the qident package defines."""
    for module in pkgutil.iter_modules(qident.__path__):
        importlib.import_module(f"qident.{module.name}")
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    return {cls for cls in found if cls.__module__.startswith("qident.")}


def test_every_record_class_has_a_row():
    assert _package_records() == {cls for cls, *_ in RECORDS}


def test_only_record_defines_equality_and_hash():
    own = sorted(
        f"{cls.__qualname__}.{name}"
        for cls in _package_records()
        for name in ("__eq__", "__hash__")
        if name in vars(cls)
    )
    assert own == []
    assert "__eq__" in vars(Record) and "__hash__" in vars(Record)
