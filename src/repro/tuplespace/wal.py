"""Write-ahead log for the durable tuple space.

The unit of durability is the :class:`CommitRecord`: an atomic batch of
``("write", entry_id, data, expiration_ms)`` / ``("take", entry_id)``
operations appended exactly when they become *committed* state — a bare
``write`` logs one record, a transaction logs a single record with its
whole net effect at commit.  Operations of a transaction that never
commits are never logged, which is what makes recovery roll open
transactions back for free.

Storage sits behind :class:`WalStore` so "the disk" can be whatever
survives the failure being modelled: the in-memory store survives a
``SpaceServer.crash()`` plus the loss of the space object (machine loss
in the simulation), while :class:`FileWalStore` puts the same bytes on a
real filesystem.  A periodic *snapshot* — the serialized committed store
— bounds replay time: installing one truncates every record it already
covers.

Group commit & fsync policy
---------------------------
Every store takes an ``fsync_policy``:

* ``"always"`` (default) — each appended record is persisted *and*
  fsynced before the append returns.  An acknowledged commit survives
  power loss; every commit pays one durability barrier.
* ``"group"`` — records buffer and are persisted+fsynced together when
  the group reaches ``group_size`` records (or when the owning
  :class:`WriteAheadLog`'s ``group_ms`` time watermark fires, or on an
  explicit :meth:`WalStore.sync`).  One barrier amortizes over the whole
  group, multiplying commit throughput — the tradeoff is that commits
  acknowledged after the last barrier can vanish on *power loss* (they
  still survive a process crash, which keeps the OS page cache).
* ``"os"`` — persist to the OS (write+flush) per record, never fsync.
  Fast, survives process crashes, loses the tail since the last explicit
  barrier on power loss.

Snapshot compaction is crash-safe: pending records are synced, the new
snapshot is written to a temp file, fsynced, and atomically renamed into
place *before* the log is truncated (itself via temp-write → fsync →
rename).  A crash at any point leaves either the old snapshot with the
full log or the new snapshot with a (possibly still-full) log — both
recover to the same committed state, since replay skips records at or
below the snapshot LSN.

The log is also the replication feed: a hot standby subscribes and
receives every appended record in commit order (see
:mod:`repro.tuplespace.durable`).  Replication is independent of the
fsync policy — records ship as they commit, not as they hit the disk.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import SpaceError

__all__ = ["CommitRecord", "WalStore", "FileWalStore", "WriteAheadLog",
           "record_frame", "decode_log", "WAL_MAGIC",
           "OP_WRITE", "OP_TAKE", "FSYNC_POLICIES"]

OP_WRITE = "write"
OP_TAKE = "take"

#: Valid values for the ``fsync_policy`` knob, strongest first.
FSYNC_POLICIES = ("always", "group", "os")


@dataclass(frozen=True)
class CommitRecord:
    """One atomic batch of committed operations.

    ``ops`` is a tuple of ``(OP_WRITE, entry_id, data, expiration_ms)``
    and ``(OP_TAKE, entry_id)`` tuples; ``expiration_ms`` is *absolute*
    virtual time (``math.inf`` for FOREVER) so replay reconstructs the
    remaining lease instead of restarting it.
    """

    lsn: int
    ops: tuple[tuple, ...]
    #: Primary epoch under which the batch committed.  Monotonically
    #: non-decreasing along the log; a promoted standby bumps it before
    #: serving, which fences the deposed primary (see ``failover.py``).
    #: Defaults to 0 so logs written before fencing existed still load.
    epoch: int = 0


# -------------------------------------------------------------- WAL frames --
#
# Compact frame layout (little-endian)::
#
#     +------+------------+------------------------------------------+
#     | 0xC4 | u32 length | i64 lsn  i64 epoch  u32 nops  op_0..op_n |
#     +------+------------+------------------------------------------+
#
#     op_write:  'W'  i64 entry_id  f64 exp  u32 data_len  data
#                'w'  i64 entry_id  i64 exp  u32 data_len  data
#     op_take:   't'  i64 entry_id
#
# The two write tags keep integer expirations round-tripping as ints
# (replay must not turn them into floats) while the common float case
# — absolute virtual time, ``math.inf`` for FOREVER — packs in one
# struct call.  The entry ``data`` bytes are spliced in verbatim:
# whatever the entry codec produced is what hits the disk, with no
# intermediate pickling of the containing record.  ``length`` covers
# the body only, which is what lets ``decode_log`` treat a short read
# as a torn tail frame.

#: First byte of a compact WAL frame.  Distinct from the entry codec's
#: ``0xC3`` (frames of both kinds can sit in one buffer during replay)
#: and from pickle's PROTO opcode ``0x80``.
WAL_MAGIC = 0xC4

_pack_u32 = struct.Struct("<I").pack
_pack_i64 = struct.Struct("<q").pack
_unpack_u32 = struct.Struct("<I").unpack_from
_unpack_i64 = struct.Struct("<q").unpack_from
_HDR = struct.Struct("<BIqqI")           # magic, body_len, lsn, epoch, nops
_W_FLOAT = struct.Struct("<qdI")         # entry_id, exp, data_len
_W_INT = struct.Struct("<qqI")
_unpack_w_float = _W_FLOAT.unpack_from
_unpack_w_int = _W_INT.unpack_from
#: Whole frame head for the dominant record shape — one float-expiry
#: write op — packed in a single struct call.
_ONE_WRITE = struct.Struct("<BIqqIcqdI")
_ONE_WRITE_BODY = 20 + 21                # qqI header body + 'W' op head

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def _encode_compact(record: CommitRecord) -> Optional[bytes]:
    """The compact frame for ``record``, or None if any op does not fit
    the fixed layout (unknown op kind, non-bytes payload, oversized id).
    The caller falls back to a pickle frame in that case, so exotic
    records are never lost — just slower."""
    ops = record.ops
    if len(ops) == 1:
        op = ops[0]
        if op[0] == OP_WRITE and len(op) == 4:
            _, entry_id, data, exp = op
            if (data.__class__ is bytes and exp.__class__ is float
                    and _I64_MIN <= entry_id <= _I64_MAX):
                n = len(data)
                return _ONE_WRITE.pack(
                    WAL_MAGIC, _ONE_WRITE_BODY + n, record.lsn,
                    record.epoch, 1, b"W", entry_id, exp, n) + data
    # The header is packed last (its length field needs the body size),
    # so slot 0 is reserved and back-filled.
    parts: list = [b""]
    append = parts.append
    size = 0
    for op in record.ops:
        kind = op[0]
        if kind == OP_WRITE and len(op) == 4:
            _, entry_id, data, exp = op
            if data.__class__ is not bytes or not (
                    _I64_MIN <= entry_id <= _I64_MAX):
                return None
            if exp.__class__ is float:
                head = b"W" + _W_FLOAT.pack(entry_id, exp, len(data))
            elif exp.__class__ is int and _I64_MIN <= exp <= _I64_MAX:
                head = b"w" + _W_INT.pack(entry_id, exp, len(data))
            else:
                return None
            append(head)
            append(data)
            size += len(head) + len(data)
        elif kind == OP_TAKE and len(op) == 2:
            entry_id = op[1]
            if not (_I64_MIN <= entry_id <= _I64_MAX):
                return None
            append(b"t" + _pack_i64(entry_id))
            size += 9
        else:
            return None
    parts[0] = _HDR.pack(WAL_MAGIC, size + 20, record.lsn, record.epoch,
                         len(record.ops))
    return b"".join(parts)


def record_frame(record: CommitRecord) -> bytes:
    """The on-disk frame for ``record``, encoded once and cached.

    Group commit concatenates cached frames instead of re-serializing
    the batch, and a record replicated to a standby's store reuses the
    frame the primary encoded.
    """
    frame = record.__dict__.get("_frame")
    if frame is not None:
        return frame
    frame = _encode_compact(record)
    if frame is None:
        frame = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    # Frozen dataclass: the cache slot is set through the back door and
    # excluded from equality/hash (it never reaches __eq__ — instances
    # compare by declared fields only).
    object.__setattr__(record, "_frame", frame)
    return frame


def _decode_compact_body(view, start: int, end: int) -> Optional[CommitRecord]:
    """Parse one compact frame body; None means a torn/corrupt frame."""
    try:
        pos = start
        lsn, = _unpack_i64(view, pos)
        epoch, = _unpack_i64(view, pos + 8)
        nops, = _unpack_u32(view, pos + 16)
        pos += 20
        ops = []
        for _ in range(nops):
            kind = view[pos]
            pos += 1
            if kind == 0x57 or kind == 0x77:  # W (float exp) / w (int exp)
                if kind == 0x57:
                    entry_id, exp, n = _unpack_w_float(view, pos)
                else:
                    entry_id, exp, n = _unpack_w_int(view, pos)
                pos += 20
                if pos + n > end:
                    return None
                ops.append((OP_WRITE, entry_id, bytes(view[pos:pos + n]), exp))
                pos += n
            elif kind == 0x74:  # t
                entry_id, = _unpack_i64(view, pos)
                pos += 8
                ops.append((OP_TAKE, entry_id))
            else:
                return None
        if pos != end:
            return None
        return CommitRecord(lsn, tuple(ops), epoch)
    except (struct.error, IndexError):
        return None


def decode_log(raw: bytes) -> list[CommitRecord]:
    """Decode a log buffer of compact and pickle-fallback frames.

    Stops at the first torn or unrecognizable frame (a mid-write crash
    may leave a partial final frame; everything before it is intact
    because frames are appended sequentially).
    """
    records: list[CommitRecord] = []
    view = memoryview(raw)
    pos, size = 0, len(raw)
    while pos < size:
        first = raw[pos]
        if first == WAL_MAGIC:
            if pos + 5 > size:
                break  # torn header
            length, = _unpack_u32(view, pos + 1)
            start = pos + 5
            end = start + length
            if end > size:
                break  # torn body
            record = _decode_compact_body(view, start, end)
            if record is None:
                break
            records.append(record)
            pos = end
        else:
            fh = io.BytesIO(raw)
            fh.seek(pos)
            try:
                record = pickle.load(fh)
            except Exception:
                # EOFError / UnpicklingError / attribute lookups on
                # garbage bytes — all mean a torn tail frame.
                break
            records.append(record)
            pos = fh.tell()
    return records


class WalStore:
    """In-memory durable medium: a snapshot slot plus the record tail.

    The object models the disk — hand the *same store* to a recovering
    space after discarding the crashed one and the committed state comes
    back (that models a process/machine crash, which preserves the OS
    page cache).  :meth:`power_loss` models losing power as well: every
    record past the last durability barrier is discarded, which is
    exactly what the ``group`` and ``os`` policies risk.

    Subclasses persist the same structure elsewhere.
    """

    def __init__(self, fsync_policy: str = "always",
                 group_size: int = 64) -> None:
        if fsync_policy not in FSYNC_POLICIES:
            raise SpaceError(
                f"unknown fsync_policy {fsync_policy!r}; "
                f"expected one of {FSYNC_POLICIES}"
            )
        if group_size < 1:
            raise SpaceError(f"group_size must be >= 1: {group_size}")
        self.fsync_policy = fsync_policy
        self.group_size = group_size
        self.snapshot: Optional[tuple[int, bytes]] = None  # (lsn, state)
        #: Highest primary epoch this store has durably observed.  It is
        #: replayed on recovery so a restarted primary knows whether it
        #: has been superseded while down.
        self.epoch = 0
        self.records: list[CommitRecord] = []
        #: Records in ``records[:_synced]`` are behind a durability
        #: barrier; the tail is pending (buffered or OS-cached only).
        self._synced = 0
        #: Durability barriers issued (fsyncs, for the file store).
        self.syncs = 0
        #: Cached :meth:`last_lsn` — read on every append (LSN
        #: assignment), so it must not scan.
        self._last_lsn = 0

    # -- appending ----------------------------------------------------------

    def set_epoch(self, epoch: int) -> None:
        """Adopt ``epoch`` if it is newer; epochs never move backwards."""
        if epoch > self.epoch:
            self.epoch = epoch
            self._persist_epoch()

    def _persist_epoch(self) -> None:
        """Make the epoch durable (overridden by :class:`FileWalStore`)."""

    def append(self, record: CommitRecord) -> None:
        if record.epoch > self.epoch:
            self.set_epoch(record.epoch)
        self.records.append(record)
        if record.lsn > self._last_lsn:
            self._last_lsn = record.lsn
        if self.fsync_policy == "group":
            if len(self.records) - self._synced >= self.group_size:
                self.sync()
        else:
            self._persist([record])
            if self.fsync_policy == "always":
                self._synced = len(self.records)
                self._fsync()

    def pending(self) -> int:
        """Records appended but not yet behind a durability barrier."""
        return len(self.records) - self._synced

    def sync(self) -> None:
        """Durability barrier: persist and fsync everything pending."""
        if self.fsync_policy == "group":
            tail = self.records[self._synced:]
            if tail:
                self._persist(tail)
        self._synced = len(self.records)
        self._fsync()

    # -- persistence hooks (overridden by FileWalStore) ----------------------

    def _persist(self, records: list[CommitRecord]) -> None:
        """Hand ``records`` to the medium (OS write; in-memory: no-op)."""

    def _fsync(self) -> None:
        self.syncs += 1

    # -- failure modelling ----------------------------------------------------

    def power_loss(self) -> int:
        """Discard every record not behind a durability barrier.

        Models power loss (as opposed to a process crash, which this
        object survives wholesale).  Returns how many acknowledged
        commits vanished — 0 under ``fsync_policy="always"``.
        """
        lost = len(self.records) - self._synced
        del self.records[self._synced:]
        self._refresh_last_lsn()
        return lost

    def _refresh_last_lsn(self) -> None:
        if self.records:
            self._last_lsn = self.records[-1].lsn
        elif self.snapshot is not None:
            self._last_lsn = self.snapshot[0]
        else:
            self._last_lsn = 0

    # -- snapshotting ---------------------------------------------------------

    def install_snapshot(self, lsn: int, state: bytes) -> None:
        """Persist ``state`` covering everything up to ``lsn`` and drop
        the records it makes redundant.  Acts as a durability barrier:
        the snapshot is durable before the log loses anything."""
        self.sync()
        self.snapshot = (lsn, state)
        self.records = [r for r in self.records if r.lsn > lsn]
        self._synced = len(self.records)
        self._refresh_last_lsn()

    def last_lsn(self) -> int:
        return self._last_lsn


class FileWalStore(WalStore):
    """File-backed store: a pickled snapshot and a log of record frames.

    Layout: ``<path>.snap`` holds a pickled ``(lsn, state)``;
    ``<path>.log`` holds consecutive :class:`CommitRecord` frames
    (:func:`record_frame`; both frame kinds are self-delimiting).  The
    WAL contract under the default ``fsync_policy="always"`` is that an
    acknowledged commit survives power loss — each append is written,
    flushed *and fsynced*.  See the module docstring for what ``group``
    and ``os`` trade away.
    """

    def __init__(self, path, fsync_policy: str = "always",
                 group_size: int = 64) -> None:
        super().__init__(fsync_policy=fsync_policy, group_size=group_size)
        path = os.fspath(path)
        self._snap_path = path + ".snap"
        self._log_path = path + ".log"
        self._epoch_path = path + ".epoch"
        self._load()
        self._log_fh = open(self._log_path, "ab")

    def _persist_epoch(self) -> None:
        # The epoch is a promise never to accept older writes, so it must
        # be durable *before* any commit made under it — atomic replace
        # keeps a crash from leaving a torn value.
        self._write_atomic(
            self._epoch_path,
            lambda fh: fh.write(str(self.epoch).encode("ascii")),
        )

    def _load(self) -> None:
        if os.path.exists(self._epoch_path):
            with open(self._epoch_path, "rb") as fh:
                self.epoch = int(fh.read().decode("ascii") or "0")
        if os.path.exists(self._snap_path):
            with open(self._snap_path, "rb") as fh:
                self.snapshot = pickle.load(fh)
        if os.path.exists(self._log_path):
            with open(self._log_path, "rb") as fh:
                self.records.extend(decode_log(fh.read()))
        if self.snapshot is not None:
            lsn = self.snapshot[0]
            self.records = [r for r in self.records if r.lsn > lsn]
        # Records written before the epoch sidecar existed (or by older
        # versions) may still carry a higher epoch than the sidecar.
        for record in self.records:
            if getattr(record, "epoch", 0) > self.epoch:
                self.epoch = record.epoch
        self._synced = len(self.records)
        self._refresh_last_lsn()

    def _persist(self, records: list[CommitRecord]) -> None:
        # One write per group: frames were (or are now) encoded exactly
        # once each, so a group commit is a concatenation, not a
        # re-serialization of the batch.
        if len(records) == 1:
            payload = record_frame(records[0])
        else:
            payload = b"".join(record_frame(r) for r in records)
        self._log_fh.write(payload)
        self._log_fh.flush()

    def _fsync(self) -> None:
        super()._fsync()
        os.fsync(self._log_fh.fileno())

    @staticmethod
    def _write_atomic(path: str, writer: Callable[[Any], None]) -> None:
        """temp-write → fsync → rename: the file at ``path`` is either
        the old complete version or the new complete version, never a
        torn intermediate."""
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            writer(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def install_snapshot(self, lsn: int, state: bytes) -> None:
        # Crash-safe compaction order: (1) pending records hit the disk,
        # (2) the new snapshot becomes durable atomically, (3) only then
        # is the log truncated (also atomically).  A crash between any
        # two steps recovers correctly — replay skips records <= lsn.
        self.sync()
        WalStore.install_snapshot(self, lsn, state)  # updates memory view
        self._write_atomic(
            self._snap_path,
            lambda fh: pickle.dump((lsn, state), fh,
                                   protocol=pickle.HIGHEST_PROTOCOL),
        )
        self._log_fh.close()

        def write_tail(fh) -> None:
            for record in self.records:
                fh.write(record_frame(record))

        self._write_atomic(self._log_path, write_tail)
        self._log_fh = open(self._log_path, "ab")
        self._synced = len(self.records)

    def close(self) -> None:
        self.sync()
        self._log_fh.close()


class WriteAheadLog:
    """Commit-ordered log with snapshot truncation and live subscribers.

    ``append`` assigns the next LSN; ``import_record`` preserves the LSN
    of a record replicated from a primary, so a promoted standby's log
    lines up with the stream it tailed.  Subscribers (replication
    channels) are invoked synchronously in commit order.

    With a ``runtime`` and ``group_ms``, a *time watermark* backs the
    store's size watermark under ``fsync_policy="group"``: the first
    record to buffer arms a one-shot flush ``group_ms`` later, so a lull
    in traffic can delay durability by at most that long.
    """

    def __init__(self, store: Optional[WalStore] = None,
                 runtime: Any = None,
                 group_ms: Optional[float] = None) -> None:
        self.store = store if store is not None else WalStore()
        self.group_ms = group_ms
        self._runtime = runtime
        self._flush_armed = False
        self._subscribers: list[Callable[[CommitRecord], None]] = []
        #: Optional telemetry tracer; when enabled, each commit/sync drops
        #: an instant marker under the ``"wal"`` trace.  Set by the
        #: framework — the log itself never requires telemetry.
        self.tracer: Any = None

    def bind(self, runtime: Any) -> None:
        """Late-bind the runtime that drives the time watermark."""
        if self._runtime is None:
            self._runtime = runtime

    # -- writing ------------------------------------------------------------

    def append(self, ops: tuple[tuple, ...]) -> CommitRecord:
        store = self.store
        record = CommitRecord(store._last_lsn + 1, tuple(ops), store.epoch)
        store.append(record)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant("wal.commit", trace_id="wal", proc="wal",
                           lsn=record.lsn, ops=len(record.ops))
        if self._subscribers:
            self._notify(record)
        if self.group_ms is not None:
            self._arm_flush()
        return record

    def import_record(self, record: CommitRecord) -> None:
        """Adopt a replicated record verbatim (standby tail path)."""
        if record.lsn <= self.store.last_lsn():
            raise SpaceError(
                f"stale replicated record lsn={record.lsn} "
                f"(log is at {self.store.last_lsn()})"
            )
        self.store.append(record)
        self._notify(record)
        self._arm_flush()

    def install_snapshot(self, lsn: int, state: bytes) -> None:
        self.store.install_snapshot(lsn, state)

    def sync(self) -> None:
        """Durability barrier: flush any buffered group to the medium."""
        self.store.sync()
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant("wal.sync", trace_id="wal", proc="wal",
                           lsn=self.store.last_lsn())

    def _arm_flush(self) -> None:
        if (self._runtime is None or self.group_ms is None
                or self._flush_armed or self.store.pending() == 0):
            return
        self._flush_armed = True
        self._runtime.call_later(self.group_ms, self._flush_due)

    def _flush_due(self) -> None:
        self._flush_armed = False
        if self.store.pending():
            self.store.sync()
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.instant("wal.sync", trace_id="wal", proc="wal",
                               lsn=self.store.last_lsn(), group_flush=True)

    # -- reading ------------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        return self.store.last_lsn()

    # -- epoch fencing ------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The primary epoch this log last committed (or adopted) under."""
        return self.store.epoch

    def set_epoch(self, epoch: int) -> None:
        """Adopt a newer epoch (monotonic; older values are ignored)."""
        self.store.set_epoch(epoch)

    def bump_epoch(self) -> int:
        """Durably advance to the next epoch and return it.

        Called by a standby at promotion time, *before* it starts
        serving — every commit it accepts is stamped with the new epoch,
        and the deposed primary's lower epoch can never pass the fence
        again."""
        self.store.set_epoch(self.store.epoch + 1)
        return self.store.epoch

    def records_since(self, lsn: int) -> list[CommitRecord]:
        """Every stored record with an LSN strictly greater than ``lsn``."""
        return [r for r in self.store.records if r.lsn > lsn]

    # -- replication feed ---------------------------------------------------

    def subscribe(self, callback: Callable[[CommitRecord], None]) -> None:
        if callback not in self._subscribers:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[CommitRecord], None]) -> None:
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    def _notify(self, record: CommitRecord) -> None:
        for callback in list(self._subscribers):
            callback(record)


def op_write(entry_id: int, data: bytes, expiration_ms: float) -> tuple:
    return (OP_WRITE, entry_id, data, expiration_ms)


def op_take(entry_id: int) -> tuple:
    return (OP_TAKE, entry_id)


def describe_ops(ops: tuple[tuple, ...]) -> str:
    """Compact human rendering used by logs and tests."""
    parts = []
    for op in ops:
        if op[0] == OP_WRITE:
            parts.append(f"w#{op[1]}")
        else:
            parts.append(f"t#{op[1]}")
    return ",".join(parts)


def state_of(obj: Any) -> bytes:  # pragma: no cover - convenience alias
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
