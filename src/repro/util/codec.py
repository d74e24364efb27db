"""Compact self-describing entry codec: the one entry format.

Pickle is general but pays for that generality on every entry: each frame
re-describes the class, the field names, and the object protocol.  Space
entries are the opposite of general — a handful of flat classes whose
instances differ only in field *values*.  This module exploits that: a
class registers its field schema once (:func:`register_entry`), and an
encoded entry is then just a 5-byte header plus the field values in
schema order.  These frames are what proxies send, what the space
stores, and what the WAL persists.

Frame format (little-endian throughout)::

    +------+----------------+----------------------------------+
    | 0xC3 | fingerprint u32| value_0 value_1 ... value_{n-1}  |
    +------+----------------+----------------------------------+

The fingerprint is ``crc32("<module>.<qualname>:<field,field,...>")`` —
a pure function of the class identity and its schema, so it is stable
across processes and registration orders (no sequence-number coupling).
Each value is a tag byte plus payload:

    ``N`` None                ``T``/``F`` bool
    ``i`` int64 ``<q``        ``I`` big int  (u32 length + signed bytes)
    ``f`` float64 ``<d``      ``s`` str      (u32 length + UTF-8)
    ``b`` bytes   (u32 + raw) ``p`` pickle value (u32 length + pickle bytes)

    Containers and any other non-scalar value ride in a ``p`` tag — the
    C pickler encodes a payload list faster than a per-element Python
    loop, and its bytes are equally canonical for plain containers.

Every encoder is deterministic, which gives the *canonical encoding*
contract the determinism checker relies on: the same entry value always
encodes to the same bytes, in every process, on every run.

Unregistered classes and registered instances whose attribute set has
drifted from the schema fall back to a whole-object pickle frame, so the
codec is total over picklable objects: it never changes *what*
round-trips, only how fast and how small.  :func:`decode_any` tells the
two frame kinds apart by their first byte — ``0xC3`` here, pickle's
``PROTO`` opcode ``0x80`` for the fallback.

:func:`decode_field` reads one value out of a compact frame without
building the instance: every value before it is skipped by its tag and
length, so matching a template field never unpickles a payload.
"""

from __future__ import annotations

import struct
from typing import Any, Optional
from zlib import crc32

from repro.errors import EntryError
from repro.util.serialization import deserialize, serialize

__all__ = [
    "MAGIC",
    "register_entry",
    "registered_fields",
    "encode_entry",
    "decode_any",
    "decode_field",
    "MISSING",
    "is_compact",
    "peek_class",
]

#: First byte of every compact frame.  Anything else is assumed to be a
#: pickle frame (``serialize`` always emits protocol ≥ 2, whose first
#: byte is the PROTO opcode ``0x80``).
MAGIC = 0xC3
_MAGIC_BYTE = bytes([MAGIC])

_pack_u32 = struct.Struct("<I").pack
_pack_i64 = struct.Struct("<q").pack
_pack_f64 = struct.Struct("<d").pack
_unpack_u32 = struct.Struct("<I").unpack_from
_unpack_i64 = struct.Struct("<q").unpack_from
_unpack_f64 = struct.Struct("<d").unpack_from

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


class _Missing:
    """Type of :data:`MISSING`."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "MISSING"


#: What :func:`decode_field` returns for a name the entry does not carry.
MISSING = _Missing()


class _Schema:
    __slots__ = ("cls", "fields", "positions", "fingerprint", "header")

    def __init__(self, cls: type, fields: tuple[str, ...]) -> None:
        self.cls = cls
        self.fields = fields
        self.positions = {name: i for i, name in enumerate(fields)}
        self.fingerprint = schema_fingerprint(cls, fields)
        self.header = _MAGIC_BYTE + _pack_u32(self.fingerprint)


_BY_CLASS: dict[type, _Schema] = {}
_BY_FINGERPRINT: dict[int, _Schema] = {}


def schema_fingerprint(cls: type, fields: tuple[str, ...]) -> int:
    """Stable 32-bit identity of ``(class, schema)``.

    A pure function of the dotted class name and the ordered field list:
    independent of registration order and process, which is what lets
    two processes that merely import the same entry modules exchange
    frames.
    """
    text = f"{cls.__module__}.{cls.__qualname__}:{','.join(fields)}"
    return crc32(text.encode("utf-8"))


def register_entry(cls: type, fields: Optional[tuple[str, ...]] = None) -> type:
    """Register ``cls`` for compact encoding; returns ``cls`` (decorator-friendly).

    ``fields`` fixes the schema order.  When omitted it is derived from
    the ``__init__`` parameter names (excluding ``self``), which matches
    the convention that entry constructors assign each parameter to the
    same-named attribute.  Instances whose attribute set deviates from
    the schema are not broken — they fall back to pickle frames.
    """
    if fields is None:
        import inspect

        params = list(inspect.signature(cls.__init__).parameters.values())[1:]
        if any(p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD) for p in params):
            raise EntryError(
                f"cannot derive schema for {cls.__name__}: "
                "variadic __init__; pass fields= explicitly"
            )
        fields = tuple(p.name for p in params)
    schema = _Schema(cls, tuple(fields))
    other = _BY_FINGERPRINT.get(schema.fingerprint)
    if other is not None and other.cls is not cls:
        raise EntryError(
            f"schema fingerprint collision: {cls.__qualname__} vs "
            f"{other.cls.__qualname__}"
        )
    _BY_CLASS[cls] = schema
    _BY_FINGERPRINT[schema.fingerprint] = schema
    return cls


def registered_fields(cls: type) -> Optional[tuple[str, ...]]:
    """The registered schema fields of ``cls``, or None."""
    schema = _BY_CLASS.get(cls)
    return schema.fields if schema is not None else None


# ---------------------------------------------------------------- encoding --


def _encode_value(out: list, value: Any) -> None:
    # Exact-class dispatch: a bool is not an int here, an Entry subclass
    # of str would not be a str — subtyping games go to the pickle tag,
    # which preserves exact semantics.
    vcls = value.__class__
    if value is None:
        out.append(b"N")
    elif vcls is str:
        raw = value.encode("utf-8")
        out.append(b"s" + _pack_u32(len(raw)) + raw)
    elif vcls is int:
        if _I64_MIN <= value <= _I64_MAX:
            out.append(b"i" + _pack_i64(value))
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "little",
                                 signed=True)
            out.append(b"I" + _pack_u32(len(raw)) + raw)
    elif vcls is float:
        out.append(b"f" + _pack_f64(value))
    elif vcls is bool:
        out.append(b"T" if value else b"F")
    elif vcls is bytes:
        out.append(b"b" + _pack_u32(len(value)) + value)
    else:
        # Containers (list/tuple/dict) deliberately take the pickle tag:
        # the C pickler beats a per-element Python loop by ~3x on the
        # payload shapes entries actually carry, and pickle bytes for
        # plain containers are just as canonical (insertion-order
        # deterministic, no memo effects on fresh values).
        raw = serialize(value)
        out.append(b"p" + _pack_u32(len(raw)) + raw)


def encode_entry(entry: Any) -> bytes:
    """Canonical bytes for ``entry``: compact if registered, else pickle.

    The compact path requires the instance to carry exactly the schema
    attributes (entry constructors guarantee this); anything else — an
    unregistered class, a dynamically grown instance — takes the pickle
    fallback, so ``encode_entry`` is total over picklable objects.
    """
    schema = _BY_CLASS.get(entry.__class__)
    if schema is None:
        return serialize(entry)
    attrs = entry.__dict__
    fields = schema.fields
    if len(attrs) != len(fields):
        return serialize(entry)
    out = [schema.header]
    append = out.append
    pack_u32, pack_i64 = _pack_u32, _pack_i64
    try:
        # The common field kinds (None / str / small int) are inlined;
        # everything else drops into the generic encoder.
        for name in fields:
            value = attrs[name]
            if value is None:
                append(b"N")
            elif value.__class__ is str:
                raw = value.encode("utf-8")
                append(b"s" + pack_u32(len(raw)) + raw)
            elif value.__class__ is int and _I64_MIN <= value <= _I64_MAX:
                append(b"i" + pack_i64(value))
            else:
                _encode_value(out, value)
    except KeyError:
        return serialize(entry)
    return b"".join(out)


# ---------------------------------------------------------------- decoding --


def _decode_value(data: bytes, pos: int) -> tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == 0x4E:  # N
        return None, pos
    if tag == 0x73:  # s
        n, = _unpack_u32(data, pos)
        pos += 4
        return str(data[pos:pos + n], "utf-8"), pos + n
    if tag == 0x69:  # i
        value, = _unpack_i64(data, pos)
        return value, pos + 8
    if tag == 0x66:  # f
        value, = _unpack_f64(data, pos)
        return value, pos + 8
    if tag == 0x54:  # T
        return True, pos
    if tag == 0x46:  # F
        return False, pos
    if tag == 0x62:  # b
        n, = _unpack_u32(data, pos)
        pos += 4
        return bytes(data[pos:pos + n]), pos + n
    if tag == 0x49:  # I
        n, = _unpack_u32(data, pos)
        pos += 4
        return int.from_bytes(data[pos:pos + n], "little", signed=True), pos + n
    if tag == 0x70:  # p
        n, = _unpack_u32(data, pos)
        pos += 4
        return deserialize(bytes(data[pos:pos + n])), pos + n
    raise EntryError(f"corrupt compact frame: unknown value tag {tag:#x}")


#: Bytes to skip after each value tag: a fixed width, or -1 for a
#: ``u32`` length prefix followed by that many bytes.  None: unknown tag.
_SKIP: list[Optional[int]] = [None] * 256
for _tag, _width in ((b"N", 0), (b"T", 0), (b"F", 0), (b"i", 8), (b"f", 8),
                     (b"s", -1), (b"b", -1), (b"I", -1), (b"p", -1)):
    _SKIP[_tag[0]] = _width
del _tag, _width


def _schema_of(data) -> _Schema:
    fingerprint, = _unpack_u32(data, 1)
    schema = _BY_FINGERPRINT.get(fingerprint)
    if schema is None:
        raise EntryError(
            f"compact frame with unregistered schema {fingerprint:#x}"
        )
    return schema


def decode_field(data, name: str) -> Any:
    """The value ``decode_any(data)`` would assign to field ``name``.

    Compact frames decode only that value: the values before it are
    skipped by tag and length, so a field ahead of a pickled payload
    never pays for the payload.  A name outside the schema yields
    :data:`MISSING`.  A pickle-fallback frame has no layout to skip
    through and decodes whole (its instance attributes are the fields).
    """
    if not data:
        raise EntryError("cannot deserialize empty payload")
    if data[0] != MAGIC:
        return vars(deserialize(data)).get(name, MISSING)
    index = _schema_of(data).positions.get(name)
    if index is None:
        return MISSING
    pos = 5
    while index:
        width = _SKIP[data[pos]]
        pos += 1
        if width is None:
            raise EntryError(
                f"corrupt compact frame: unknown value tag {data[pos - 1]:#x}"
            )
        if width < 0:
            n, = _unpack_u32(data, pos)
            width = 4 + n
        pos += width
        index -= 1
    return _decode_value(data, pos)[0]


def is_compact(data) -> bool:
    """True iff ``data`` is a compact frame (vs a pickle-fallback frame)."""
    return len(data) > 0 and data[0] == MAGIC


def peek_class(data) -> Optional[type]:
    """The entry class of a compact frame without decoding its values.

    Returns None for pickle frames (whose class costs a full load) and
    raises :class:`EntryError` for a compact frame whose schema is not
    registered in this process.
    """
    if not is_compact(data):
        return None
    return _schema_of(data).cls


def decode_any(data) -> Any:
    """Decode a compact frame or a pickle-fallback frame (first-byte dispatch).

    ``bytes`` or ``memoryview`` accepted.  Compact frames reconstruct
    the instance without running ``__init__`` — fields are assigned
    directly in schema order.
    """
    if not data:
        raise EntryError("cannot deserialize empty payload")
    if data[0] != MAGIC:
        return deserialize(data)
    schema = _schema_of(data)
    cls = schema.cls
    obj = cls.__new__(cls)
    attrs = obj.__dict__
    pos = 5
    unpack_u32, unpack_i64 = _unpack_u32, _unpack_i64
    # Scalar tags inlined to keep the per-field cost at dict-assignment
    # level; containers and rarities recurse through _decode_value.
    for name in schema.fields:
        tag = data[pos]
        pos += 1
        if tag == 0x4E:  # N
            attrs[name] = None
        elif tag == 0x73:  # s
            n, = unpack_u32(data, pos)
            pos += 4
            attrs[name] = str(data[pos:pos + n], "utf-8")
            pos += n
        elif tag == 0x69:  # i
            attrs[name], = unpack_i64(data, pos)
            pos += 8
        else:
            attrs[name], pos = _decode_value(data, pos - 1)
    return obj
