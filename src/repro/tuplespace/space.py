"""The tuple space engine (in-process JavaSpace).

Concurrency: one monitor lock guards the store.  Blocked ``read``/``take``
callers park on *per-template-class wait queues* — a visibility change
(write, commit, abort-restore, read-lock release) wakes only the waiters
whose template class and field values can match the affected entry, not
the whole herd.  Each waiter has its own condition sharing the store lock,
so a targeted ``notify`` costs O(matching waiters) instead of the old
``notify_all`` cost of O(all waiters) re-scans per write.

Entries are kept in per-class buckets scanned in insertion order, which
makes matching deterministic (JavaSpaces itself promises no order;
determinism is a strict strengthening that experiments rely on).  An
``entry_id → _Stored`` map gives O(1) transaction bookkeeping, and lease
expiry is driven by a deadline min-heap: ``_reap_expired`` is O(expired)
per call and free when every lease is FOREVER.

Isolation: entries are serialized at ``write`` and only the stored frame
is kept.  Matching, indexing and fair share read the template's fields
straight from the frame (:func:`~repro.util.codec.decode_field`), each
field decoded at most once per entry and cached; a class-only template
decodes nothing.  An entry instance is built only to hand a fresh copy
to an in-process ``read``/``take`` caller, the behaviour of the real
JavaSpaces proxy, so callers never share mutable state through the space.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections.abc import Mapping
from heapq import heappop, heappush
from typing import Any, Callable, Collection, Iterator, Optional

from repro.errors import SpaceError
from repro.runtime.base import Runtime
from repro.tuplespace.entry import Entry, match_items, values_equal
from repro.tuplespace.events import EventRegistration, RemoteEvent
from repro.tuplespace.lease import FOREVER, Lease
from repro.tuplespace.transaction import Transaction
from repro.util.codec import (
    MISSING, decode_any, decode_field, encode_entry, peek_class,
)
# Unused here, but the host-time ledger patches this name by module.
from repro.util.serialization import serialize  # noqa: F401

__all__ = ["JavaSpace"]


#: Stat keys, in exposition order.  Each maps to a plain ``_stat_<key>``
#: int attribute on the space (cheaper to bump on the hot path than a
#: dict item) and surfaces in the telemetry registry as ``space.<key>``.
STAT_KEYS = ("writes", "reads", "takes", "expired", "events",
             "bytes_written", "wakeups", "listener_errors")


class _SpaceStats(Mapping):
    """Read-through dict view over the space's ``_stat_*`` attributes.

    Keeps the historical ``space.stats["writes"]`` API (tests and
    benchmarks read it) while the counters themselves live as plain
    attributes that cost one integer add per operation.
    """

    __slots__ = ("_space",)

    def __init__(self, space: "JavaSpace") -> None:
        self._space = space

    def __getitem__(self, key: str) -> int:
        if key not in STAT_KEYS:
            raise KeyError(key)
        return getattr(self._space, "_stat_" + key)

    def __iter__(self) -> Iterator[str]:
        return iter(STAT_KEYS)

    def __len__(self) -> int:
        return len(STAT_KEYS)

    def __repr__(self) -> str:
        return repr(dict(self))

_AVAILABLE = "available"
_PENDING_WRITE = "pending-write"
_TAKEN = "taken"


class _FrameFields(dict):
    """Field values of one stored frame, each decoded on first lookup
    (:data:`MISSING` for a name the entry lacks)."""

    __slots__ = ("data",)

    def __missing__(self, name: str) -> Any:
        value = self[name] = decode_field(self.data, name)
        return value


class _Stored:
    """One entry in the store, with its lock state.

    ``fields`` caches the field values decoded from ``data`` so far;
    :func:`_fields` creates it on first use.  ``cls`` and ``index_keys``
    are recorded at insert time so class-only matching and removal never
    decode anything.
    """

    __slots__ = (
        "entry_id", "cls", "data", "lease", "state", "owner_txn",
        "read_lockers", "index_keys", "fields",
    )

    def __init__(self, entry_id: int, cls: type, data: bytes, lease: Lease) -> None:
        self.entry_id = entry_id
        self.cls = cls                # entry class (pickle preserves identity)
        self.data = data              # serialized form returned to clients
        self.lease = lease
        self.state = _AVAILABLE
        self.owner_txn: Optional[Transaction] = None
        # Lazily-allocated (None ≡ empty): most entries are never read
        # under a transaction nor indexed, and the write path is hot.
        self.read_lockers: Optional[set[int]] = None  # txn ids, shared locks
        self.index_keys: Optional[list[tuple[str, Any]]] = None
        self.fields: Optional[_FrameFields] = None


def _fields(stored: _Stored) -> _FrameFields:
    """The field cache of ``stored``, created on first use."""
    fields = stored.fields
    if fields is None:
        fields = stored.fields = _FrameFields()
        fields.data = stored.data
    return fields


def _matches(items: list[tuple[str, Any]], stored: _Stored) -> bool:
    """Field-wise match of precomputed ``match_items`` against a stored
    entry, with :func:`~repro.tuplespace.entry.matches` semantics.

    The caller is responsible for the class check (an equivalent
    bucket-level ``issubclass`` test).
    """
    fields = _fields(stored)
    for name, value in items:
        got = fields[name]
        if got is MISSING or not values_equal(got, value):
            return False
    return True


def _frame_class(data: bytes) -> type:
    """Entry class of a frame: read from a compact frame's header, or
    decoded whole from a pickle-fallback frame."""
    cls = peek_class(data)
    if cls is None:
        cls = type(decode_any(data))
    if not (isinstance(cls, type) and issubclass(cls, Entry)):
        raise SpaceError(f"not an Entry: {cls.__name__}")
    return cls


def _insert_ordered(ids: dict[int, None], entry_id: int) -> None:
    """Add ``entry_id`` to an index bucket, keeping its ids ascending.

    New entries always carry the highest id, so this is an append; only
    WAL replay and replication insert behind the tail, and then only the
    ids larger than ``entry_id`` move.
    """
    if ids and entry_id < next(reversed(ids)):
        tail = []
        while ids:
            key = ids.popitem()[0]
            if key < entry_id:
                ids[key] = None
                break
            tail.append(key)
        ids[entry_id] = None
        for key in reversed(tail):
            ids[key] = None
    else:
        ids[entry_id] = None


class _ScanList:
    """Insertion-order scan index for one class bucket.

    CPython dicts never shrink and their iteration walks the dead slots
    that ``pop`` leaves behind, so a FIFO drain of a large bucket would
    make every subsequent scan start with a tombstone march.  Scans
    therefore walk this id list instead: ``head`` lazily retires the
    leading removed ids (O(1) amortized for FIFO removal, the dominant
    pattern), and ``stale`` counts mid-list removals so the list is
    rebuilt — live ids only — once they outnumber the remainder.
    """

    __slots__ = ("ids", "head", "stale")

    def __init__(self) -> None:
        self.ids: list[int] = []
        self.head = 0
        self.stale = 0


class _Waiter:
    """One blocked ``read``/``take`` caller, parked on its own condition."""

    __slots__ = ("template_cls", "items", "cond", "take", "txn", "woken")

    def __init__(
        self,
        template_cls: type,
        items: list[tuple[str, Any]],
        cond: Any,
        take: bool,
        txn: Optional[Transaction],
    ) -> None:
        self.template_cls = template_cls
        self.items = items            # precomputed non-None template fields
        self.cond = cond              # shares the space lock
        self.take = take
        self.txn = txn
        self.woken = False            # set by the waker; at most one notify


class _TxnOps:
    """Per-transaction bookkeeping inside one space."""

    __slots__ = ("writes", "takes", "reads")

    def __init__(self) -> None:
        self.writes: list[int] = []
        self.takes: list[int] = []
        self.reads: list[int] = []


class JavaSpace:
    """A shared, associative, transactional object repository."""

    #: When true, committed state changes are reported to ``_journal_ops``
    #: (overridden by :class:`repro.tuplespace.durable.DurableSpace`); the
    #: base space never pays for the hook.
    journaling = False

    def __init__(self, runtime: Runtime, name: str = "JavaSpaces") -> None:
        self.runtime = runtime
        self.name = name
        self._lock = runtime.lock()
        self._buckets: dict[type, dict[int, _Stored]] = {}
        self._scan_lists: dict[type, _ScanList] = {}  # FIFO scan order
        self._by_id: dict[int, _Stored] = {}  # O(1) entry_id lookup
        # Per-class field-value index: cls → field → value → {entry ids}.
        # Built *lazily*: a (class, field) index materializes the first
        # time a template selects on that field (one bucket scan), and
        # only those activated fields are maintained on later writes.
        # The write hot path therefore pays nothing for indexing until a
        # selective reader proves the field is worth it — eager all-field
        # indexing was the single largest cost in the write/take profile.
        # Only hashable field values are indexed; templates fall back to a
        # scan for the rest.  Cuts selective matching from O(bucket) to
        # O(candidates) — measured by bench_micro_space_template_selectivity.
        # Each value's ids are an insertion-ordered dict (id → None): ids
        # arrive in ascending order, so a bucket is FIFO as it stands.
        self._indexes: dict[type, dict[str, dict[Any, dict[int, None]]]] = {}
        # Fields that ever held an unhashable value (per class): the index
        # is incomplete for them (an ndarray can still equal a hashable
        # template value), so matching falls back to scanning.
        self._unindexable: dict[type, set[str]] = {}
        # Blocked callers keyed by template class; a visibility change only
        # touches the queues along the entry class's MRO.
        self._waiters: dict[type, list[_Waiter]] = {}
        # Lease bookkeeping: (expiration_ms, entry_id) min-heap for finite
        # leases plus a list of explicitly cancelled entry ids, so reaping
        # is O(expired) and skips entirely when every lease is FOREVER.
        self._lease_heap: list[tuple[float, int]] = []
        self._lease_cancelled: list[int] = []
        self._ids = itertools.count(1)
        self._last_id = 0  # highest id ever issued (snapshot/replay resume)
        self._txn_ops: dict[int, _TxnOps] = {}
        self._registrations: list[EventRegistration] = []
        self._reg_ids = itertools.count(1)
        self._stat_writes = 0
        self._stat_reads = 0
        self._stat_takes = 0
        self._stat_expired = 0
        self._stat_events = 0
        self._stat_bytes_written = 0
        self._stat_wakeups = 0
        self._stat_listener_errors = 0
        self.stats = _SpaceStats(self)
        # Weighted fair-share dispatch (deficit round-robin across tenants).
        # ``None`` keeps the single-tenant fast path: _find never inspects
        # tenant fields.
        self._fair_shares: Optional[dict[str, float]] = None
        self._fair_default_share = 1.0
        self._fair_class_names: frozenset[str] = frozenset()
        self._drr_deficit: dict[str, float] = {}
        #: Observational counters (``grants:<tenant>`` per DRR selection);
        #: not part of STAT_KEYS so existing telemetry goldens hold.
        self.fair_stats: dict[str, int] = {}

    # ------------------------------------------------------------------ write --

    def write(
        self,
        entry: Entry,
        txn: Optional[Transaction] = None,
        lease_ms: float = FOREVER,
        requeue: bool = False,
    ) -> Lease:
        """Store ``entry``; returns its lease.

        ``requeue`` is accepted for client-API parity with
        :class:`~repro.tuplespace.proxy.SpaceProxy` and ignored here:
        admission control is a *server* concern, and the in-process
        space has no admission controller in front of it.

        Under a transaction the entry stays invisible to other transactions
        until commit.
        """
        if not isinstance(entry, Entry):
            raise SpaceError(f"not an Entry: {type(entry).__name__}")
        data = encode_entry(entry)              # enforces serializability
        with self._lock:
            stored = self._store(type(entry), data, lease_ms)
            if txn is not None:
                txn._enlist(self)
                stored.state = _PENDING_WRITE
                stored.owner_txn = txn
                self._ops(txn).writes.append(stored.entry_id)
            else:
                self._entry_became_visible(stored)
                if self.journaling:
                    self._journal_ops([
                        ("write", stored.entry_id, data, stored.lease.expiration_ms)
                    ])
            return stored.lease

    def write_encoded(
        self,
        data: bytes,
        txn: Optional[Transaction] = None,
        lease_ms: float = FOREVER,
    ) -> Lease:
        """Store an already-encoded entry without re-serializing it.

        The zero-copy server path: a proxy client encoded the entry once,
        the bytes travelled the wire, and the space stores them verbatim
        (compact frames don't even decode — the class comes from the
        frame header; pickle-fallback frames decode once for the class).
        """
        cls = _frame_class(data)
        with self._lock:
            stored = self._store(cls, data, lease_ms)
            if txn is not None:
                txn._enlist(self)
                stored.state = _PENDING_WRITE
                stored.owner_txn = txn
                self._ops(txn).writes.append(stored.entry_id)
            else:
                self._entry_became_visible(stored)
                if self.journaling:
                    self._journal_ops([
                        ("write", stored.entry_id, data, stored.lease.expiration_ms)
                    ])
            return stored.lease

    def _store(self, cls: type, data: bytes, lease_ms: float) -> _Stored:
        """Insert one serialized entry (store, id map, index, lease heap).

        Index values come from ``data``, never from the writer's
        instance, which the writer may mutate after the write.
        """
        entry_id = next(self._ids)
        self._last_id = entry_id
        cancelled = self._lease_cancelled
        lease = Lease(
            self.runtime, lease_ms,
            on_cancel=lambda eid=entry_id: cancelled.append(eid),
        )
        stored = _Stored(entry_id, cls, data, lease)
        bucket = self._buckets.get(cls)
        if bucket is None:
            bucket = self._buckets[cls] = {}
            self._scan_lists[cls] = _ScanList()
        bucket[entry_id] = stored
        self._scan_lists[cls].ids.append(entry_id)
        self._by_id[entry_id] = stored
        if self._indexes.get(cls):
            self._index_entry(stored)
        if lease.expiration_ms != FOREVER:
            heappush(self._lease_heap, (lease.expiration_ms, entry_id))
        self._stat_writes += 1
        self._stat_bytes_written += len(data)
        return stored

    # -------------------------------------------------------------- read/take --

    def read(
        self,
        template: Entry,
        txn: Optional[Transaction] = None,
        timeout_ms: Optional[float] = None,
    ) -> Optional[Entry]:
        """Return a copy of a matching entry, waiting up to ``timeout_ms``.

        ``timeout_ms=None`` waits forever; ``0`` polls.  Under a transaction
        the entry gets a shared lock until the transaction completes.
        """
        got = self._acquire_batch(template, txn, timeout_ms, take=False, max_entries=1)
        return got[0] if got else None

    def take(
        self,
        template: Entry,
        txn: Optional[Transaction] = None,
        timeout_ms: Optional[float] = None,
    ) -> Optional[Entry]:
        """Remove and return a matching entry (exactly-once semantics)."""
        got = self._acquire_batch(template, txn, timeout_ms, take=True, max_entries=1)
        return got[0] if got else None

    def read_if_exists(self, template: Entry, txn: Optional[Transaction] = None) -> Optional[Entry]:
        return self.read(template, txn, timeout_ms=0.0)

    def exists(self, template: Entry, txn: Optional[Transaction] = None,
               timeout_ms: Optional[float] = None) -> bool:
        """Non-consuming presence check: a ``read`` that reports only
        whether a match was seen (scatter clients camp on this)."""
        return self.read(template, txn, timeout_ms=timeout_ms) is not None

    def take_if_exists(self, template: Entry, txn: Optional[Transaction] = None) -> Optional[Entry]:
        return self.take(template, txn, timeout_ms=0.0)

    # -- encoded (zero-copy) variants: results are the stored frames ----------

    def read_encoded(
        self,
        template: Entry,
        txn: Optional[Transaction] = None,
        timeout_ms: Optional[float] = None,
    ) -> Optional[bytes]:
        """Like :meth:`read`, but returns the stored frame bytes."""
        got = self._acquire_batch(template, txn, timeout_ms, take=False,
                                  max_entries=1, raw=True)
        return got[0] if got else None

    def take_encoded(
        self,
        template: Entry,
        txn: Optional[Transaction] = None,
        timeout_ms: Optional[float] = None,
    ) -> Optional[bytes]:
        """Like :meth:`take`, but returns the stored frame bytes."""
        got = self._acquire_batch(template, txn, timeout_ms, take=True,
                                  max_entries=1, raw=True)
        return got[0] if got else None

    def take_multiple_encoded(
        self,
        template: Entry,
        max_entries: int,
        txn: Optional[Transaction] = None,
        timeout_ms: Optional[float] = None,
    ) -> list[bytes]:
        """Like :meth:`take_multiple`, but returns stored frame bytes."""
        if max_entries < 1:
            raise SpaceError(f"max_entries must be >= 1: {max_entries}")
        return self._acquire_batch(template, txn, timeout_ms, take=True,
                                   max_entries=max_entries, raw=True)

    def snapshot(self, template: Entry) -> Entry:
        """Pre-serialized template (here: an isolated copy)."""
        return decode_any(encode_entry(template))

    # -- batch operations (JavaSpaces05-style extensions) ---------------------

    def write_all(
        self,
        entries: list[Entry],
        txn: Optional[Transaction] = None,
        lease_ms: float = FOREVER,
        requeue: bool = False,
    ) -> list[Lease]:
        """Write a batch of entries in one monitor pass.

        Serialization happens before the lock is taken; the store/index
        inserts share one lock acquisition, and each blocked waiter is
        woken at most once for the whole batch (it leaves its queue on the
        first notify).  Under a transaction the batch commits or rolls
        back atomically.
        """
        for entry in entries:
            if not isinstance(entry, Entry):
                raise SpaceError(f"not an Entry: {type(entry).__name__}")
        serialized = [encode_entry(entry) for entry in entries]
        with self._lock:
            ops = None
            if txn is not None:
                txn._enlist(self)
                ops = self._ops(txn)
            leases: list[Lease] = []
            journal: list[tuple] = []
            for entry, data in zip(entries, serialized):
                stored = self._store(type(entry), data, lease_ms)
                leases.append(stored.lease)
                if ops is not None:
                    stored.state = _PENDING_WRITE
                    stored.owner_txn = txn
                    ops.writes.append(stored.entry_id)
                else:
                    self._entry_became_visible(stored)
                    if self.journaling:
                        journal.append(
                            ("write", stored.entry_id, data,
                             stored.lease.expiration_ms)
                        )
            if journal:
                self._journal_ops(journal)
            return leases

    def write_all_encoded(
        self,
        datas: list[bytes],
        txn: Optional[Transaction] = None,
        lease_ms: float = FOREVER,
    ) -> list[Lease]:
        """Batch form of :meth:`write_encoded` (one monitor pass)."""
        resolved = [(_frame_class(data), data) for data in datas]
        with self._lock:
            ops = None
            if txn is not None:
                txn._enlist(self)
                ops = self._ops(txn)
            leases: list[Lease] = []
            journal: list[tuple] = []
            for cls, data in resolved:
                stored = self._store(cls, data, lease_ms)
                leases.append(stored.lease)
                if ops is not None:
                    stored.state = _PENDING_WRITE
                    stored.owner_txn = txn
                    ops.writes.append(stored.entry_id)
                else:
                    self._entry_became_visible(stored)
                    if self.journaling:
                        journal.append(
                            ("write", stored.entry_id, data,
                             stored.lease.expiration_ms)
                        )
            if journal:
                self._journal_ops(journal)
            return leases

    def take_multiple(
        self,
        template: Entry,
        max_entries: int,
        txn: Optional[Transaction] = None,
        timeout_ms: Optional[float] = None,
    ) -> list[Entry]:
        """Take up to ``max_entries`` matches in one monitor pass.

        JavaSpaces05 semantics: blocks (up to ``timeout_ms``) until at
        least one entry matches, then drains whatever is immediately
        available up to the cap — it does not wait for the cap to fill.
        The drain happens under a single lock acquisition instead of N
        re-entries.
        """
        if max_entries < 1:
            raise SpaceError(f"max_entries must be >= 1: {max_entries}")
        return self._acquire_batch(template, txn, timeout_ms, take=True,
                                   max_entries=max_entries)

    def contents(
        self, template: Entry, txn: Optional[Transaction] = None
    ) -> list[Entry]:
        """Copies of every currently visible matching entry (a snapshot
        iterator; does not lock or remove anything)."""
        with self._lock:
            self._reap_expired()
            return [decode_any(stored.data)
                    for stored in self._iter_matching(template, txn)]

    def _acquire_batch(
        self,
        template: Entry,
        txn: Optional[Transaction],
        timeout_ms: Optional[float],
        take: bool,
        max_entries: int,
        raw: bool = False,
    ) -> list:
        if not isinstance(template, Entry):
            raise SpaceError(f"template is not an Entry: {type(template).__name__}")
        if txn is not None:
            txn.ensure_active()
        deadline = None if timeout_ms is None else self.runtime.now() + timeout_ms
        template_cls = type(template)
        items = match_items(template)
        waiter: Optional[_Waiter] = None
        with self._lock:
            while True:
                if self._lease_cancelled or self._lease_heap:
                    self._reap_expired()
                out: list = []
                if max_entries == 1:
                    stored = self._find(template_cls, items, txn, take)
                    if stored is not None:
                        out.append(self._claim(stored, txn, take, raw))
                elif self._fair_applies(template_cls, items, take):
                    # DRR selection depends on what each claim consumes,
                    # so the fair path claims as it goes.
                    while len(out) < max_entries:
                        stored = self._find(template_cls, items, txn, take)
                        if stored is None:
                            break
                        out.append(self._claim(stored, txn, take, raw))
                else:
                    # Drain in one pass: the candidate sets (index buckets
                    # or the class bucket) are walked once for the whole
                    # batch instead of once per taken entry.
                    for stored in self._find_many(template_cls, items, txn,
                                                  take, max_entries):
                        out.append(self._claim(stored, txn, take, raw))
                if out:
                    return out
                remaining: Optional[float] = None
                if deadline is not None:
                    remaining = deadline - self.runtime.now()
                    if remaining <= 0:
                        return []
                if waiter is None:
                    waiter = _Waiter(template_cls, items,
                                     self.runtime.condition(self._lock), take, txn)
                    if txn is not None:
                        # Enlist before parking so the transaction's
                        # completion reaches _wake_txn_waiters even if this
                        # blocked call was its only contact with the space.
                        txn._enlist(self)
                queue = self._waiters.setdefault(template_cls, [])
                waiter.woken = False
                queue.append(waiter)
                try:
                    waiter.cond.wait(remaining)
                finally:
                    # On timeout (no targeted notify) we are still queued.
                    if not waiter.woken and waiter in queue:
                        queue.remove(waiter)
                if txn is not None:
                    txn.ensure_active()

    def _claim(self, stored: _Stored, txn: Optional[Transaction], take: bool,
               raw: bool = False):
        if take:
            self._stat_takes += 1
            if txn is None:
                self._remove(stored)
                if self.journaling:
                    self._journal_ops([("take", stored.entry_id)])
            else:
                txn._enlist(self)
                stored.state = _TAKEN
                stored.owner_txn = txn
                self._ops(txn).takes.append(stored.entry_id)
        else:
            self._stat_reads += 1
            if txn is not None:
                txn._enlist(self)
                lockers = stored.read_lockers
                if lockers is None:
                    lockers = stored.read_lockers = set()
                if txn.txn_id not in lockers:
                    lockers.add(txn.txn_id)
                    self._ops(txn).reads.append(stored.entry_id)
        if raw:
            # Zero-copy reply path: the stored bytes ship as-is and the
            # far side decodes once.  Isolation holds — bytes are immutable.
            return stored.data
        return decode_any(stored.data)

    # ----------------------------------------------------------------- notify --

    def notify(
        self,
        template: Entry,
        listener: Callable[[RemoteEvent], Any],
        lease_ms: float = FOREVER,
    ) -> EventRegistration:
        """Register ``listener`` for entries that become visible and match.

        Events are delivered asynchronously (outside the space monitor);
        listeners must not block.
        """
        with self._lock:
            reg = EventRegistration(
                next(self._reg_ids),
                self.snapshot(template),
                listener,
                Lease(self.runtime, lease_ms),
            )
            self._registrations.append(reg)
            return reg

    # ------------------------------------------------------------ transactions --

    def _ops(self, txn: Transaction) -> _TxnOps:
        ops = self._txn_ops.get(txn.txn_id)
        if ops is None:
            ops = _TxnOps()
            self._txn_ops[txn.txn_id] = ops
        return ops

    def _complete_transaction(self, txn: Transaction, commit: bool) -> None:
        """Called by Transaction.commit/abort with the outcome."""
        with self._lock:
            # Waiters blocked *under* this transaction can never succeed
            # once it completes; wake them so they observe the abort/commit
            # instead of sleeping to their timeout.
            self._wake_txn_waiters(txn)
            ops = self._txn_ops.pop(txn.txn_id, None)
            if ops is None:
                return
            by_id = self._by_id
            # One commit = one journal batch: the transaction's *net*
            # committed effect.  Writes taken back inside the same txn and
            # anything an aborting txn touched never reach the log.
            journal: list[tuple] = []
            for entry_id in ops.writes:
                stored = by_id.get(entry_id)
                if stored is None:
                    continue
                if stored.state == _TAKEN:
                    # Written then taken inside the same transaction: the
                    # entry never becomes visible; the takes loop below
                    # settles its fate.
                    continue
                if commit:
                    stored.state = _AVAILABLE
                    stored.owner_txn = None
                    self._entry_became_visible(stored)
                    if self.journaling:
                        journal.append(
                            ("write", entry_id, stored.data,
                             stored.lease.expiration_ms)
                        )
                else:
                    self._remove(stored)
            written_here = set(ops.writes)
            for entry_id in ops.takes:
                stored = by_id.get(entry_id)
                if stored is None:
                    continue
                if commit or entry_id in written_here:
                    # Commit consumes the take; on abort, an entry this same
                    # transaction wrote was never visible, so discard it too.
                    self._remove(stored)
                    if self.journaling and commit and entry_id not in written_here:
                        journal.append(("take", entry_id))
                elif stored.lease.is_expired():
                    # The lease ran out while the take was pending; the
                    # restored entry would be invisible, so reap it now.
                    self._stat_expired += 1
                    self._remove(stored)
                else:
                    stored.state = _AVAILABLE
                    stored.owner_txn = None
                    self._wake_waiters(stored)
            for entry_id in ops.reads:
                stored = by_id.get(entry_id)
                if stored is None:
                    continue
                if stored.read_lockers is not None:
                    stored.read_lockers.discard(txn.txn_id)
                # Releasing the last shared lock can unblock a taker.
                if (not stored.read_lockers and stored.state == _AVAILABLE
                        and not stored.lease.is_expired()):
                    self._wake_waiters(stored)
            if journal:
                self._journal_ops(journal)

    def _journal_ops(self, ops: list[tuple]) -> None:
        """Hook: one atomic batch of committed state changes.

        Called under the space lock with ``("write", entry_id, data,
        expiration_ms)`` / ``("take", entry_id)`` tuples.  No-op here;
        ``DurableSpace`` appends them to its write-ahead log.
        """

    # ------------------------------------------------------- recovery internals --

    def _restore(self, entry_id: int, data: bytes, expiration_ms: float) -> None:
        """Re-insert one committed entry with its original id and absolute
        lease deadline (WAL replay / snapshot install; caller holds the
        lock or owns the space exclusively).

        The log carries commits in commit order, which is not id order:
        a transaction's write can commit after a later plain write.  The
        entry therefore goes in at its id's place in the scan list and
        the index buckets (the class bucket is an id map whose order no
        scan reads), so a recovered space or a standby serves entries in
        the same order as the primary did.
        """
        cancelled = self._lease_cancelled
        lease = Lease(
            self.runtime,
            expiration_ms if expiration_ms == FOREVER
            # Clamp at zero: an entry whose deadline passed while the space
            # was down restores as already expired and reaps lazily.
            else max(0.0, expiration_ms - self.runtime.now()),
            on_cancel=lambda eid=entry_id: cancelled.append(eid),
        )
        cls = _frame_class(data)
        stored = _Stored(entry_id, cls, data, lease)
        bucket = self._buckets.get(cls)
        if bucket is None:
            bucket = self._buckets[cls] = {}
            self._scan_lists[cls] = _ScanList()
        bucket[entry_id] = stored
        sl = self._scan_lists[cls]
        if sl.ids and entry_id < sl.ids[-1]:
            insort(sl.ids, entry_id, lo=sl.head)
        else:
            sl.ids.append(entry_id)
        self._by_id[entry_id] = stored
        if self._indexes.get(cls):
            self._index_entry(stored)
        if lease.expiration_ms != FOREVER:
            heappush(self._lease_heap, (lease.expiration_ms, entry_id))
        if entry_id > self._last_id:
            self._last_id = entry_id
            self._ids = itertools.count(entry_id + 1)

    def _discard(self, entry_id: int) -> None:
        """Remove an entry by id if present (WAL replay of a take)."""
        stored = self._by_id.get(entry_id)
        if stored is not None:
            self._remove(stored)

    def _reset_state(self) -> None:
        """Drop every stored entry and index (snapshot install on a
        standby); waiters, registrations and stats are left alone."""
        self._buckets.clear()
        self._scan_lists.clear()
        self._by_id.clear()
        self._indexes.clear()
        self._unindexable.clear()
        self._lease_heap.clear()
        self._lease_cancelled.clear()

    def _committed_state(self) -> tuple[int, list[tuple[int, bytes, float]]]:
        """``(last_id, [(entry_id, data, expiration_ms), ...])`` for every
        committed, unexpired entry.

        An entry under an open take (``_TAKEN``) is committed state — the
        take hasn't happened yet; a pending write is not.  Caller holds
        the lock.
        """
        entries: list[tuple[int, bytes, float]] = []
        for entry_id, stored in self._by_id.items():
            if stored.state == _PENDING_WRITE or stored.lease.is_expired():
                continue
            entries.append((entry_id, stored.data, stored.lease.expiration_ms))
        return self._last_id, entries

    # ---------------------------------------------------------------- internals --

    @staticmethod
    def _hashable(value: Any) -> bool:
        try:
            hash(value)
            return True
        except TypeError:
            return False

    def _index_entry(self, stored: _Stored) -> None:
        """Maintain the *activated* field indexes for one inserted entry.

        Called from ``_store``/``_restore`` only when the class already
        has at least one activated index (``_build_index`` activated it
        on behalf of a selective reader) — the common write never gets
        here.  Each indexed value is read from the stored frame (and
        stays cached for the confirming match).  The indexed
        ``(field, value)`` pairs are recorded on ``stored`` so removal
        never recomputes them.  The index is only ever a pre-filter:
        ``_matches`` still confirms with ``values_equal``.
        """
        cls = stored.cls
        index = self._indexes.get(cls)
        if not index:
            return
        keys = stored.index_keys
        if keys is None:
            keys = stored.index_keys = []
        fields = _fields(stored)
        dropped: list[str] = []
        for name, by_value in index.items():
            value = fields[name]
            if value is None or value is MISSING:
                continue
            try:
                ids = by_value.get(value)
            except TypeError:
                # Unhashable value: poison the field and stop maintaining
                # its index — _candidate_ids falls back to scanning.
                self._unindexable.setdefault(cls, set()).add(name)
                dropped.append(name)
                continue
            if ids is None:
                by_value[value] = ids = {}
            _insert_ordered(ids, stored.entry_id)
            keys.append((name, value))
        for name in dropped:
            del index[name]

    def _build_index(
        self, cls: type, name: str
    ) -> Optional[dict[Any, dict[int, None]]]:
        """Activate the ``(cls, name)`` index: one scan over the bucket.

        Lazy-index activation point — the first template that selects on
        ``name`` pays one O(bucket) build (one field read per entry), and
        every later write maintains the index incrementally.  The scan
        walks the bucket in id order, so each value's ids come out
        ascending.  Returns None (and poisons the field) if any current
        value is unhashable.
        """
        by_value: dict[Any, dict[int, None]] = {}
        indexed: list[tuple[_Stored, Any]] = []
        bucket = self._buckets.get(cls)
        if bucket:
            for stored in self._scan_bucket(cls, bucket):
                value = _fields(stored)[name]
                if value is None or value is MISSING:
                    continue
                try:
                    ids = by_value.get(value)
                except TypeError:
                    self._unindexable.setdefault(cls, set()).add(name)
                    return None
                if ids is None:
                    by_value[value] = ids = {}
                ids[stored.entry_id] = None
                indexed.append((stored, value))
        for stored, value in indexed:
            if stored.index_keys is None:
                stored.index_keys = []
            stored.index_keys.append((name, value))
        index = self._indexes.get(cls)
        if index is None:
            index = self._indexes[cls] = {}
        index[name] = by_value
        return by_value

    def _unindex_entry(self, stored: _Stored) -> None:
        if not stored.index_keys:
            return
        index = self._indexes.get(stored.cls)
        if index is None:
            return
        for name, value in stored.index_keys:
            by_value = index.get(name)
            ids = by_value.get(value) if by_value is not None else None
            if ids is not None:
                ids.pop(stored.entry_id, None)
                if not ids:
                    del by_value[value]

    def _candidate_ids(
        self, cls: type, items: list[tuple[str, Any]]
    ) -> Optional[Collection[int]]:
        """Entry ids pre-filtered by the indexed template fields, in id
        (FIFO) order.

        Selecting on a field that has no index yet *activates* it (one
        bucket scan via ``_build_index``); after that the lookup is a
        pair of dict probes.  One indexed field returns its live index
        bucket as it stands — callers iterate it without mutating the
        space; several intersect by walking the smallest bucket.  Returns
        None when no indexed field narrows the search (scan the bucket);
        an empty result means a definite miss.
        """
        poisoned = self._unindexable.get(cls)
        found: list[dict[int, None]] = []
        index = self._indexes.get(cls)
        for name, value in items:
            if (poisoned is not None and name in poisoned) or not self._hashable(value):
                continue
            by_value = index.get(name) if index is not None else None
            if by_value is None:
                by_value = self._build_index(cls, name)
                if by_value is None:
                    poisoned = self._unindexable.get(cls)
                    continue
                index = self._indexes.get(cls)
            matching = by_value.get(value)
            if not matching:
                return ()
            found.append(matching)
        if len(found) < 2:
            return found[0] if found else None
        found.sort(key=len)
        smallest, others = found[0], found[1:]
        return [i for i in smallest if all(i in ids for ids in others)]

    # ----------------------------------------------------- fair-share dispatch --

    def configure_fair_share(
        self,
        shares: dict[str, float],
        default_share: float = 1.0,
        class_names: tuple[str, ...] = ("TaskEntry",),
    ) -> None:
        """Enable weighted fair-share ``take`` dispatch across tenants.

        Competing takes whose template is one of ``class_names`` and does
        not pin a ``tenant`` are served by deficit round-robin: each
        selection visits the tenants that currently have a matching entry
        in sorted-name order, replenishing each visited tenant's deficit
        by ``share`` normalized to the largest present share, and serves
        the first tenant whose deficit covers one task.  Long-run grants
        converge to the configured weights; FIFO order is preserved
        within a tenant.  Entries without a tenant participate as the
        pseudo-tenant ``""`` at ``default_share``.
        """
        for tenant, share in shares.items():
            if share <= 0:
                raise SpaceError(f"tenant share must be > 0: {tenant}={share}")
        if default_share <= 0:
            raise SpaceError(f"default_share must be > 0: {default_share}")
        with self._lock:
            self._fair_shares = dict(shares)
            self._fair_default_share = float(default_share)
            self._fair_class_names = frozenset(class_names)

    def _share_of(self, tenant: str) -> float:
        shares = self._fair_shares or {}
        return shares.get(tenant, self._fair_default_share)

    def _find_fair(
        self,
        template_cls: type,
        items: list[tuple[str, Any]],
        txn: Optional[Transaction],
    ) -> Optional[_Stored]:
        """First matching entry per DRR tenant selection (take path only).

        One pass collects the FIFO-first candidate of every tenant with a
        visible match; the deficit counters then pick the tenant.  The
        pass reads every visible entry's ``tenant`` field, which is why
        fair share is opt-in per space.
        """
        candidates: dict[str, _Stored] = {}
        for cls, bucket in self._buckets.items():
            if not bucket or not issubclass(cls, template_cls):
                continue
            for stored in self._scan_bucket(cls, bucket):
                if not self._visible(stored, txn):
                    continue
                if stored.read_lockers and not self._takeable(stored, txn):
                    continue
                if items and not _matches(items, stored):
                    continue
                tenant = _fields(stored)["tenant"]
                if tenant is MISSING or not tenant:
                    tenant = ""
                if tenant not in candidates:
                    candidates[tenant] = stored
        if not candidates:
            return None
        if len(candidates) == 1:
            (tenant, stored), = candidates.items()
            self._drr_deficit.pop(tenant, None)  # classic DRR: reset solo queue
            key = f"grants:{tenant or '-'}"
            self.fair_stats[key] = self.fair_stats.get(key, 0) + 1
            return stored
        chosen = self._drr_select(sorted(candidates))
        return candidates[chosen]

    def _drr_select(self, present: list[str]) -> str:
        """Deficit-round-robin tenant pick among the tenants ``present``.

        Deficits of tenants that dropped out (drained queue) reset to
        zero, the classic DRR rule that stops an idle tenant hoarding
        unbounded credit.
        """
        deficit = self._drr_deficit
        for tenant in list(deficit):
            if tenant not in present:
                del deficit[tenant]
        quantum = 1.0 / max(self._share_of(t) for t in present)
        while True:
            for tenant in present:
                if deficit.get(tenant, 0.0) >= 1.0:
                    deficit[tenant] -= 1.0
                    key = f"grants:{tenant or '-'}"
                    self.fair_stats[key] = self.fair_stats.get(key, 0) + 1
                    return tenant
            for tenant in present:
                deficit[tenant] = (deficit.get(tenant, 0.0)
                                   + self._share_of(tenant) * quantum)

    def _fair_applies(
        self, template_cls: type, items: list[tuple[str, Any]], take: bool
    ) -> bool:
        return (take and self._fair_shares is not None
                and template_cls.__name__ in self._fair_class_names
                and not any(name == "tenant" for name, _ in items))

    def _scan_bucket(self, cls: type, bucket: dict[int, _Stored]) -> Iterator[_Stored]:
        """Live entries of ``bucket`` in insertion order (scan-list walk);
        leading dead ids are retired as a side effect."""
        sl = self._scan_lists[cls]
        ids = sl.ids
        get = bucket.get
        i = sl.head
        n = len(ids)
        at_head = True
        while i < n:
            stored = get(ids[i])
            i += 1
            if stored is None:
                if at_head:
                    sl.head = i
                    sl.stale -= 1
                continue
            at_head = False
            yield stored

    def _find(
        self,
        template_cls: type,
        items: list[tuple[str, Any]],
        txn: Optional[Transaction],
        take: bool,
    ) -> Optional[_Stored]:
        if self._fair_shares is not None and self._fair_applies(
                template_cls, items, take):
            return self._find_fair(template_cls, items, txn)
        for cls, bucket in self._buckets.items():
            if not bucket or not issubclass(cls, template_cls):
                continue
            if items:
                candidates = self._candidate_ids(cls, items)
                if candidates is not None:
                    for entry_id in candidates:
                        stored = bucket[entry_id]
                        state = stored.state
                        if state != _AVAILABLE:
                            if state == _TAKEN or txn is None or stored.owner_txn is not txn:
                                continue
                        if stored.lease.is_expired():
                            continue
                        if take and stored.read_lockers and not self._takeable(stored, txn):
                            continue
                        if _matches(items, stored):
                            return stored
                    continue
            # Insertion-order walk over the scan list, inlined rather than
            # through _scan_bucket: this loop is the per-op hot path and
            # in the common case returns its very first live entry.
            sl = self._scan_lists[cls]
            ids = sl.ids
            get = bucket.get
            i = sl.head
            n = len(ids)
            at_head = True
            while i < n:
                stored = get(ids[i])
                i += 1
                if stored is None:
                    if at_head:
                        sl.head = i
                        sl.stale -= 1
                    continue
                at_head = False
                # _visible, inlined.
                state = stored.state
                if state != _AVAILABLE:
                    if state == _TAKEN or txn is None or stored.owner_txn is not txn:
                        continue
                if stored.lease.is_expired():
                    continue
                if take and stored.read_lockers and not self._takeable(stored, txn):
                    continue
                # Class-only templates match without decoding a field.
                if not items or _matches(items, stored):
                    return stored
        return None

    def _find_many(
        self,
        template_cls: type,
        items: list[tuple[str, Any]],
        txn: Optional[Transaction],
        take: bool,
        limit: int,
    ) -> list[_Stored]:
        """Up to ``limit`` matches in one walk (``take_multiple`` drain).

        Same candidate machinery as :meth:`_find`, but the index buckets
        (or class buckets) are traversed once for the whole batch —
        claims happen after collection, which is equivalent because a
        claim never changes another collected entry's visibility.
        """
        out: list[_Stored] = []
        for cls, bucket in self._buckets.items():
            if not bucket or not issubclass(cls, template_cls):
                continue
            if items:
                candidates = self._candidate_ids(cls, items)
                stored_iter: Any = (
                    self._scan_bucket(cls, bucket)
                    if candidates is None
                    else map(bucket.__getitem__, candidates)
                )
            else:
                stored_iter = self._scan_bucket(cls, bucket)
            for stored in stored_iter:
                if not self._visible(stored, txn):
                    continue
                if take and stored.read_lockers and not self._takeable(stored, txn):
                    continue
                if not items or _matches(items, stored):
                    out.append(stored)
                    if len(out) >= limit:
                        return out
        return out

    def _iter_matching(
        self, template: Entry, txn: Optional[Transaction]
    ) -> Iterator[_Stored]:
        """Visible entries matching ``template``, index-prefiltered, FIFO
        within each class bucket (shared by ``contents`` and ``count``)."""
        template_cls = type(template)
        items = match_items(template)
        for cls, bucket in self._buckets.items():
            if not bucket or not issubclass(cls, template_cls):
                continue
            candidates = self._candidate_ids(cls, items) if items else None
            stored_iter: Any = (
                self._scan_bucket(cls, bucket)
                if candidates is None
                else map(bucket.__getitem__, candidates)
            )
            for stored in stored_iter:
                if not self._visible(stored, txn):
                    continue
                if not items or _matches(items, stored):
                    yield stored

    def _visible(self, stored: _Stored, txn: Optional[Transaction]) -> bool:
        state = stored.state
        if state == _TAKEN:
            return False  # gone from every view
        if stored.lease.is_expired():
            return False
        if state == _AVAILABLE:
            return True
        return txn is not None and stored.owner_txn is txn  # _PENDING_WRITE

    def _takeable(self, stored: _Stored, txn: Optional[Transaction]) -> bool:
        """Shared read locks by *other* transactions block a take."""
        own = txn.txn_id if txn is not None else None
        return all(locker == own for locker in stored.read_lockers)

    # ----------------------------------------------------------------- wakeups --

    def _wake_waiters(self, stored: _Stored) -> None:
        """Wake every parked waiter whose template can match ``stored``.

        Only the wait queues along the entry class's MRO are consulted, and
        each woken waiter leaves its queue — so a burst of writes notifies
        a given waiter at most once, and non-matching waiters never wake.
        """
        waiters = self._waiters
        if not waiters:
            return
        wakeups = 0
        for cls in stored.cls.__mro__:
            queue = waiters.get(cls)
            if not queue:
                continue
            woke_here = False
            for waiter in queue:
                if waiter.woken:
                    continue
                if not waiter.items or _matches(waiter.items, stored):
                    waiter.woken = True
                    waiter.cond.notify()
                    wakeups += 1
                    woke_here = True
            if woke_here:
                queue[:] = [w for w in queue if not w.woken]
        if wakeups:
            self._stat_wakeups += wakeups

    def _wake_txn_waiters(self, txn: Transaction) -> None:
        """Wake waiters blocked under ``txn`` so they observe its end."""
        for queue in self._waiters.values():
            woke_here = False
            for waiter in queue:
                if waiter.txn is txn and not waiter.woken:
                    waiter.woken = True
                    waiter.cond.notify()
                    self._stat_wakeups += 1
                    woke_here = True
            if woke_here:
                queue[:] = [w for w in queue if not w.woken]

    def _entry_became_visible(self, stored: _Stored) -> None:
        self._wake_waiters(stored)
        if not self._registrations:
            return
        alive: list[EventRegistration] = []
        for reg in self._registrations:
            if not reg.active():
                continue
            alive.append(reg)
            if not issubclass(stored.cls, type(reg.template)):
                continue
            reg_items = match_items(reg.template)
            if not reg_items or _matches(reg_items, stored):
                event = RemoteEvent(self.name, reg.registration_id, reg.next_sequence())
                self._stat_events += 1
                # Deliver outside the monitor; listeners must not block, and
                # a listener's failure is its own problem, not the space's.
                self.runtime.call_later(
                    0.0, lambda r=reg, e=event: self._deliver_event(r, e)
                )
        self._registrations = alive

    def _deliver_event(self, registration: EventRegistration, event: RemoteEvent) -> None:
        try:
            registration.listener(event)
        except Exception:
            self._stat_listener_errors += 1

    # ------------------------------------------------------------------ expiry --

    def _remove(self, stored: _Stored) -> None:
        cls = stored.cls
        bucket = self._buckets.get(cls)
        if bucket is not None and bucket.pop(stored.entry_id, None) is not None:
            self._by_id.pop(stored.entry_id, None)
            self._unindex_entry(stored)
            sl = self._scan_lists.get(cls)
            if sl is not None:
                sl.stale += 1
                # Mid-list staleness (selective takes): rebuild once the
                # dead outnumber what is left to scan.  Head retirement
                # decrements ``stale``, so pure FIFO drains never rebuild.
                if sl.stale >= 64 and sl.stale * 2 >= len(sl.ids) - sl.head:
                    sl.ids = [i for i in sl.ids[sl.head:] if i in bucket]
                    sl.head = 0
                    sl.stale = 0

    def _reap_expired(self) -> None:
        """Collect expired and cancelled entries.

        O(reaped): cancelled ids arrive via lease ``on_cancel`` hooks, and
        finite-lease deadlines sit in a min-heap — when every lease is
        FOREVER and nothing was cancelled this is two empty checks.
        """
        cancelled = self._lease_cancelled
        if cancelled:
            # Explicit cancellations are journaled: unlike natural expiry
            # (an absolute deadline that replays by itself), a cancel is an
            # external state change the log must carry.
            journal: list[tuple] = []
            for entry_id in cancelled:
                stored = self._by_id.get(entry_id)
                if stored is not None and stored.state != _TAKEN:
                    self._stat_expired += 1
                    self._remove(stored)
                    if self.journaling and stored.state != _PENDING_WRITE:
                        journal.append(("take", entry_id))
            cancelled.clear()
            if journal:
                self._journal_ops(journal)
        heap = self._lease_heap
        if not heap:
            return
        now = self.runtime.now()
        while heap and heap[0][0] <= now:
            _, entry_id = heappop(heap)
            stored = self._by_id.get(entry_id)
            if stored is None:
                continue  # already taken/cancelled/removed
            lease = stored.lease
            if not lease.is_expired():
                # Renewed since it was queued; re-arm at the new deadline.
                if lease.expiration_ms != FOREVER:
                    heappush(heap, (lease.expiration_ms, entry_id))
                continue
            if stored.state != _TAKEN:
                self._stat_expired += 1
                self._remove(stored)
            # _TAKEN: the owning transaction settles its fate; an expired
            # restore is reaped in _complete_transaction.

    # ------------------------------------------------------------------- misc --

    def count(self, template: Entry, txn: Optional[Transaction] = None) -> int:
        """Number of visible entries matching ``template`` (diagnostic)."""
        with self._lock:
            self._reap_expired()
            return sum(1 for _ in self._iter_matching(template, txn))
