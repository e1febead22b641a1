"""The package's value types: every Record copies, pickles, hashes and
prints like the frozen dataclass it stands for, and equality never
crosses types."""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import itertools
import pickle
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icosym
from icosym import Record
from icosym.chartab import ClassFunction
from icosym.isobaric import Symbol


def record_types() -> list[type]:
    """Every record class with fields of its own (not the Symbol base)."""
    for info in pkgutil.iter_modules(icosym.__path__):
        importlib.import_module(f"icosym.{info.name}")
    found, todo = [], Record.__subclasses__()
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls is not Symbol:
            found.append(cls)
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


RECORDS = record_types()

# hashable, picklable field values
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.tuples(inner, inner),
    max_leaves=4,
)


def fields_of(cls: type) -> st.SearchStrategy:
    if cls is ClassFunction:  # the one record that checks its field
        return st.tuples(st.lists(st.integers(-9, 9), min_size=9, max_size=9).map(
            lambda values: ClassFunction.of(values).values
        ))
    return st.tuples(*[VALUES] * len(cls.__slots__))


def test_every_value_type_is_a_record():
    assert len(RECORDS) == 25
    assert all(cls.__module__.startswith("icosym.") for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
@settings(max_examples=25)
@given(data=st.data())
def test_record_round_trips_and_stays_immutable(cls, data):
    values = data.draw(fields_of(cls))
    record = cls(*values)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls
        assert twin == record
        assert hash(twin) == hash(record)
        assert twin == record  # again, with the hashes computed
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    # the repr is the one a frozen dataclass with these fields prints
    twin = dataclasses.make_dataclass(cls.__qualname__, cls.__slots__, frozen=True)
    assert repr(record) == repr(twin(*values))


def plain_fields(cls: type) -> tuple:
    """One value a field, in slot order, that the constructor accepts."""
    if cls is ClassFunction:
        return (ClassFunction.of(range(9)).values,)
    return tuple(range(len(cls.__slots__)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_constructor_takes_keywords_and_defaults(cls):
    values = plain_fields(cls)
    assert cls(**dict(zip(cls.__slots__, values))) == cls(*values)
    with pytest.raises(TypeError):
        cls(*values, None)
    if "__init__" in vars(cls):  # a constructor written out, defaults in its signature
        return
    required = [name for name in cls.__slots__ if name not in cls._defaults]
    if required:
        with pytest.raises(TypeError):
            cls(**{name: None for name in cls.__slots__ if name != required[-1]})


# records whose constructor is written out with the fields as its parameters
# (BaseCusp's takes *args and binds through Record's)
WRITTEN_OUT = [
    cls for cls in RECORDS
    if "__init__" in vars(cls)
    and all(p.kind is p.POSITIONAL_OR_KEYWORD for p in inspect.signature(cls).parameters.values())
]


@pytest.mark.parametrize("cls", WRITTEN_OUT, ids=lambda cls: cls.__qualname__)
def test_a_written_out_constructor_binds_as_record_does(cls):
    """By position, by keyword and with defaults omitted, a written-out
    constructor builds the fields that Record's generic binding builds from
    the same call, given the defaults in its signature; both refuse an
    unknown keyword."""
    params = inspect.signature(cls).parameters
    assert tuple(params) == cls.__slots__
    defaults = {name: p.default for name, p in params.items() if p.default is not p.empty}
    generic = type(cls.__qualname__, (Record,), {"__slots__": cls.__slots__, "_defaults": defaults})
    values = plain_fields(cls)
    named = dict(zip(cls.__slots__, values))
    required = len(cls.__slots__) - len(defaults)
    calls = [
        (values, {}),
        ((), named),
        (values[:1], dict(list(named.items())[1:])),
        (values[:required], {}),
        ((), dict(list(named.items())[:required])),
    ]
    for args, kwargs in calls:
        assert cls._key(cls(*args, **kwargs)) == generic._key(generic(*args, **kwargs))
    for build in (cls, generic):
        with pytest.raises(TypeError):
            build(*values, unknown=None)


def test_written_out_constructors_keep_their_defaults():
    from icosym.isobaric import CharWord, Constituent, Verdict

    assert Verdict in WRITTEN_OUT
    assert CharWord() == CharWord(())
    assert Constituent(None) == Constituent(None, CharWord())
    assert Verdict("cuspidal", "structural") == Verdict("cuspidal", "structural", (), (), None)


def test_class_function_keeps_its_nine_value_check():
    with pytest.raises(ValueError, match="need 9 values, got 8"):
        ClassFunction(tuple(ClassFunction.of([0] * 9).values[:8]))


@settings(max_examples=50)
@given(values=st.tuples(VALUES, VALUES, VALUES))
def test_records_of_different_types_never_compare_equal(values):
    for a, b in itertools.combinations([c for c in RECORDS if c is not ClassFunction], 2):
        n = len(a.__slots__)
        if n == len(b.__slots__) and n <= len(values):
            x, y = a(*values[:n]), b(*values[:n])
            assert x != y and not x == y
            assert {x: 1}.get(y) is None

