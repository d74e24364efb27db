"""WAL frames: compact records, their pickle fallback, and torn tails.

Every record is written as a compact frame (0xC4) unless it does not fit
the fixed layout, in which case it falls back to a pickle frame (0x80
PROTO).  ``decode_log`` dispatches per frame on the first byte, so both
kinds replay as one stream; these tests pin that down at the store
level and end-to-end through :class:`DurableSpace`.
"""

from __future__ import annotations

import pytest

from repro.runtime import SimulatedRuntime
from repro.tuplespace.durable import DurableSpace
from repro.tuplespace.entry import Entry
from repro.tuplespace.wal import (
    WAL_MAGIC,
    CommitRecord,
    FileWalStore,
    WriteAheadLog,
    decode_log,
    op_take,
    op_write,
    record_frame,
)
from repro.util.codec import encode_entry, is_compact
from tests.tuplespace.entries import TaskEntry


@pytest.fixture
def runtime():
    rt = SimulatedRuntime()
    yield rt
    rt.shutdown()


def run(runtime, fn, name="test-proc"):
    proc = runtime.kernel.spawn(fn, name=name)
    runtime.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    assert proc.finished
    return proc.result


def _records(n, start=1, epoch=0):
    return [CommitRecord(lsn=start + i,
                         ops=(op_write(start + i, b"x" * 20, float("inf")),),
                         epoch=epoch)
            for i in range(n)]


def _fallback_record(lsn):
    """A record the compact layout cannot hold: its entry id overflows
    int64, so ``record_frame`` falls back to a pickle frame."""
    return CommitRecord(lsn=lsn, ops=(op_write(2 ** 70, b"big", 5.0),
                                      op_take(2 ** 70)))


class Unregistered(Entry):
    """Never registered with the entry codec: stored as a pickle frame."""

    def __init__(self, key=None, payload=None):
        self.key = key
        self.payload = payload


# -- frame level ---------------------------------------------------------------


def test_mixed_frame_log_decodes_as_one_stream(tmp_path):
    path = tmp_path / "wal"
    store = FileWalStore(str(path))
    records = _records(2) + [_fallback_record(3)] + _records(2, start=4)
    for record in records:
        store.append(record)
    store.sync()
    store.close()

    raw = (path.parent / "wal.log").read_bytes()
    assert raw[0] == WAL_MAGIC  # compact frames lead the file
    assert record_frame(records[2])[0] == 0x80  # the fallback is pickle
    assert decode_log(raw) == records
    store = FileWalStore(str(path))
    assert store.records == records
    assert store.last_lsn() == 5
    store.close()


def test_compact_log_reopens_under_pickle(tmp_path):
    # A log of compact frames, reopened and continued with pickle
    # fallback frames, replays whole on the next open.
    path = tmp_path / "wal"
    store = FileWalStore(str(path))
    for record in _records(4):
        store.append(record)
    store.sync()
    store.close()
    store = FileWalStore(str(path))
    assert [r.lsn for r in store.records] == [1, 2, 3, 4]
    assert store.last_lsn() == 4
    store.append(_fallback_record(5))
    store.sync()
    store.close()

    raw = (path.parent / "wal.log").read_bytes()
    assert raw[0] == WAL_MAGIC
    assert raw[-1] == ord(".")  # pickle STOP opcode ends the fallback frame
    store = FileWalStore(str(path))
    assert store.records == _records(4) + [_fallback_record(5)]
    assert store.last_lsn() == 5
    store.close()


def test_pickle_fallback_record_round_trips():
    record = _fallback_record(7)
    frame = record_frame(record)
    assert frame[0] == 0x80
    decoded, = decode_log(frame)
    assert decoded == record
    assert decoded.ops[0][1] == 2 ** 70


def test_compact_frames_preserve_op_value_types():
    # Expirations may be float (lease deadlines, +inf) or int (FOREVER
    # sentinels from older call sites); the two write tags keep the type.
    record = CommitRecord(
        lsn=1,
        ops=(op_write(1, b"data", float("inf")),
             op_write(2, b"more", 12),
             op_take(1)),
        epoch=2)
    frame = record_frame(record)
    assert frame[0] == WAL_MAGIC
    decoded, = decode_log(frame)
    assert decoded == record
    exps = [op[3] for op in decoded.ops[:2]]  # (kind, id, data, expiration)
    assert [type(e) for e in exps] == [float, int]


def test_torn_compact_tail_is_dropped(tmp_path):
    path = tmp_path / "wal"
    store = FileWalStore(str(path))
    for record in _records(3):
        store.append(record)
    store.sync()
    store.close()
    log = path.parent / "wal.log"
    log.write_bytes(log.read_bytes()[:-3])  # crash mid-write of last frame
    store = FileWalStore(str(path))
    assert [r.lsn for r in store.records] == [1, 2]


def test_cached_frame_does_not_change_record_equality():
    plain, framed = _records(1)[0], _records(1)[0]
    record_frame(framed)
    assert plain == framed
    assert hash(plain) == hash(framed)


# -- end to end through DurableSpace ------------------------------------------


def test_recovery_round_trips_compact_entry_frames(runtime, tmp_path):
    """Entry payload bytes inside WAL ops are themselves codec frames;
    recovery must replay compact entry frames bit-exactly."""
    path = str(tmp_path / "wal")
    store = FileWalStore(path)
    space = DurableSpace(runtime, wal=WriteAheadLog(store),
                         snapshot_every=None)
    entry = TaskEntry("app", 1, {"nested": [1, 2, (3, 4)]})

    def before():
        space.write(entry)

    run(runtime, before)
    store.sync()
    store.close()

    survivor = FileWalStore(path)
    recovered = DurableSpace.recover(runtime, survivor, snapshot_every=None)

    def after():
        return recovered.take(TaskEntry(), timeout_ms=0.0)

    got = run(runtime, after)
    assert got.__dict__ == entry.__dict__
    # Byte-identity of the stored frame (the canonical-encoding contract
    # applied through a crash).
    assert encode_entry(got) == encode_entry(entry)
    survivor.close()


def test_recovery_round_trips_pickle_fallback_entries(runtime, tmp_path):
    """Unregistered entries ride the entry codec's pickle fallback; they
    are logged, partially consumed, and recovered like any other."""
    assert not is_compact(encode_entry(Unregistered(1, "p")))
    path = str(tmp_path / "wal")
    store = FileWalStore(path)
    space = DurableSpace(runtime, wal=WriteAheadLog(store),
                         snapshot_every=None)

    def before():
        for i in range(4):
            space.write(Unregistered(i, f"p{i}"))
        assert space.take(Unregistered(key=0), timeout_ms=0.0) is not None

    run(runtime, before)
    store.sync()
    store.close()

    survivor = FileWalStore(path)
    recovered = DurableSpace.recover(runtime, survivor, snapshot_every=None)

    def after():
        recovered.write(Unregistered(99, "new"))
        got = []
        while True:
            entry = recovered.take(Unregistered(), timeout_ms=0.0)
            if entry is None:
                return got
            got.append((entry.key, entry.payload))

    assert run(runtime, after) == [(1, "p1"), (2, "p2"), (3, "p3"),
                                   (99, "new")]
    survivor.close()
