"""Entry model and associative template matching.

JavaSpaces semantics: a template ``T`` matches a candidate entry ``E`` iff
``E`` is of ``T``'s class or a subclass, and every non-``None`` public
field of ``T`` equals the corresponding field of ``E``.  ``None`` fields
are wildcards.

Matching is the innermost loop of every space operation, so this module
avoids building a dict per candidate: ``matches`` walks ``vars()``
directly, and ``match_items`` lets the space hoist the template's
non-``None`` fields out of the candidate loop entirely.
``entry_fields`` keeps its public dict-returning API but serves the field
*names* from a per-class cache.
"""

from __future__ import annotations

import sys
from typing import Any

__all__ = [
    "Entry",
    "entry_fields",
    "match_items",
    "matches",
    "values_equal",
]


class Entry:
    """Base class for space entries.

    Subclasses are plain Python classes; every instance attribute whose
    name does not start with ``_`` is a *public field* that participates
    in matching.  Entries must be picklable (enforced at ``write``).
    """

    def shard_key(self) -> Any:
        """The routable key for sharded spaces.

        The default routes on ``task_id`` when the entry declares one
        (``TaskEntry``/``ResultEntry`` pairs land on the same shard, so a
        take-task + write-result transaction stays shard-local).
        Subclasses may override to route on another field.  ``None``
        means *no route*: as an entry, write to the class's home shard;
        as a template, scatter-gather across all shards.
        """
        return getattr(self, "task_id", None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{k}={v!r}" for k, v in entry_fields(self).items())
        return f"{type(self).__name__}({fields})"


#: cls → (public field names, total attr count when cached).  Instances of
#: one class almost always share an attribute layout; the count check
#: detects the rare instance that diverges and falls back to a recompute.
_FIELDS_CACHE: dict[type, tuple[tuple[str, ...], int]] = {}


def entry_fields(entry: Entry) -> dict[str, Any]:
    """Public (matchable) fields of an entry instance."""
    attrs = vars(entry)
    cls = type(entry)
    cached = _FIELDS_CACHE.get(cls)
    if cached is not None:
        names, total = cached
        if total == len(attrs):
            try:
                return {name: attrs[name] for name in names}
            except KeyError:
                pass
    names = tuple(k for k in attrs if not k.startswith("_"))
    _FIELDS_CACHE[cls] = (names, len(attrs))
    return {name: attrs[name] for name in names}


def values_equal(a: Any, b: Any) -> bool:
    """Field equality that is safe for numpy arrays and containers.

    The tuple-space core has no hard numpy dependency: an ndarray can
    only reach a field if *something* already imported numpy, so the
    array check consults ``sys.modules`` instead of importing — a plain
    dict lookup on the hot path, and no import when numpy is absent.
    """
    np = sys.modules.get("numpy")
    if np is not None and (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        try:
            return bool(np.array_equal(a, b))
        except Exception:
            return False
    try:
        return bool(a == b)
    except Exception:
        return False


def match_items(template: Entry) -> list[tuple[str, Any]]:
    """The template's non-``None`` public fields as ``(name, value)`` pairs.

    Computing this once per operation (instead of per candidate) is what
    makes a scan over a large bucket cheap.
    """
    return [
        (name, value)
        for name, value in vars(template).items()
        if value is not None and not name.startswith("_")
    ]


def matches(template: Entry, candidate: Entry) -> bool:
    """True iff ``template`` matches ``candidate`` under JavaSpaces rules."""
    if not isinstance(candidate, type(template)):
        return False
    candidate_attrs = vars(candidate)
    for name, value in vars(template).items():
        if value is None or name.startswith("_"):
            continue
        if name not in candidate_attrs:
            return False
        if not values_equal(candidate_attrs[name], value):
            return False
    return True
