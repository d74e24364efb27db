"""Field reader: ``decode_field`` is ``decode_any`` for one field.

The space matches, indexes and fair-shares on values read straight from
stored frames, so the reader must produce exactly the value a whole
decode would assign — same type, same bits — for every registered entry
class, for pickle-fallback frames and for names the entry lacks.  The
space's frame matcher must in turn agree with
:func:`~repro.tuplespace.entry.matches` on decoded instances, ``values_equal``
semantics included (1 == 1.0 == True, -0.0 == 0.0, NaN != NaN, arrays).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.entries  # noqa: F401  (registers the framework entries)
from repro.errors import EntryError
from repro.tuplespace.entry import Entry, match_items, matches
from repro.tuplespace.space import _matches, _Stored
from repro.util import codec
from repro.util.codec import MISSING, decode_any, decode_field, encode_entry
from repro.util.serialization import serialize
from tests.tuplespace.entries import TaskEntry


class Label(str):
    """A str subclass: rides the pickle value tag, not the ``s`` tag."""


ENTRY_CLASSES = sorted(
    (cls for cls in codec._BY_CLASS
     if issubclass(cls, Entry) and "<locals>" not in cls.__qualname__),
    key=lambda cls: f"{cls.__module__}.{cls.__qualname__}",
)

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2 ** 80), 2 ** 80),
    st.sampled_from([0, 1, -1, 1.0, 0.0, -0.0, float("nan"), float("inf")]),
    st.floats(),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.text(max_size=4).map(Label),
    st.lists(st.integers(-3, 3), max_size=3),
    st.lists(st.integers(-3, 3), max_size=3).map(np.array),
)


def same(a, b) -> bool:
    """Identical values: the same type and the same pickled bits."""
    return type(a) is type(b) and serialize(a) == serialize(b)


@st.composite
def frames(draw):
    """(class, instance) — compact, or pickle-fallback via a grown or a
    dropped attribute."""
    cls = draw(st.sampled_from(ENTRY_CLASSES))
    entry = cls.__new__(cls)
    for name in codec.registered_fields(cls):
        setattr(entry, name, draw(values))
    shape = draw(st.sampled_from(["compact", "grown", "dropped"]))
    if shape == "grown":
        entry.extra = draw(values)
    elif shape == "dropped":
        delattr(entry, draw(st.sampled_from(codec.registered_fields(cls))))
    return cls, entry


def test_every_registered_entry_class_is_covered():
    names = {cls.__qualname__ for cls in ENTRY_CLASSES}
    assert {"TaskEntry", "ResultEntry", "DeadLetterEntry",
            "MasterCheckpointEntry", "PriorityTask"} <= names


@given(frame=frames())
@settings(max_examples=300)
def test_decode_field_equals_the_whole_decode(frame):
    cls, entry = frame
    data = encode_entry(entry)
    decoded = vars(decode_any(data))
    for name in (*codec.registered_fields(cls), "extra", "absent"):
        got = decode_field(data, name)
        if name in decoded:
            assert same(got, decoded[name]), name
        else:
            assert got is MISSING, name


@given(frame=frames(), picks=st.lists(st.integers(0, 3), min_size=8,
                                       max_size=8),
       others=st.lists(values, min_size=8, max_size=8))
@settings(max_examples=300)
def test_frame_matching_agrees_with_matches(frame, picks, others):
    cls, entry = frame
    data = encode_entry(entry)
    candidate = decode_any(data)
    template = cls.__new__(cls)
    for i, name in enumerate(codec.registered_fields(cls)):
        own = vars(candidate).get(name)
        # wildcard / the entry's own value / an equal value of another
        # type / any other value
        choice = [None, own, _equal_other_type(own), others[i % 8]][
            picks[i % 8]]
        setattr(template, name, choice)
    stored = _Stored(1, type(candidate), data, lease=None)
    assert _matches(match_items(template), stored) == \
        matches(template, candidate)


def test_decode_field_skips_earlier_values_and_takes_memoryviews():
    data = encode_entry(TaskEntry("app", 2 ** 70, [1, 2]))
    assert decode_field(memoryview(data), "payload") == [1, 2]
    assert decode_field(data, "task_id") == 2 ** 70


def test_corrupt_tag_before_the_field_raises():
    frame = bytearray(encode_entry(TaskEntry("a", 1, None)))
    frame[5] = 0x7A  # 'z' — not a value tag, in the skipped prefix
    with pytest.raises(EntryError):
        decode_field(bytes(frame), "payload")


def _equal_other_type(value):
    if type(value) in (bool, int):
        return float(value)
    if type(value) is float and value == value and value.is_integer():
        return int(value)
    return value
