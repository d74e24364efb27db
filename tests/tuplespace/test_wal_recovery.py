"""Durable space: WAL + snapshot recovery.

The acceptance property: recover a :class:`DurableSpace` from its WAL
store and the contents match the last *committed* pre-crash state —
transactions open at the crash are rolled back (their takes reappear,
their pending writes never existed).
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import SpaceError
from repro.runtime import SimulatedRuntime
from repro.tuplespace.durable import DurableSpace
from repro.tuplespace.transaction import TransactionManager
from repro.tuplespace.entry import Entry
from repro.tuplespace.wal import (
    CommitRecord,
    FileWalStore,
    WalStore,
    WriteAheadLog,
    op_take,
    op_write,
)
from tests.tuplespace.entries import TaskEntry


class Point(Entry):
    def __init__(self, x=None, y=None) -> None:
        self.x = x
        self.y = y


@pytest.fixture
def runtime():
    rt = SimulatedRuntime()
    yield rt
    rt.shutdown()


def drain(runtime):
    runtime.kernel.run_until_idle()


def run(runtime, fn, name="test-proc"):
    proc = runtime.kernel.spawn(fn, name=name)
    runtime.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    assert proc.finished
    return proc.result


# -- the log itself ------------------------------------------------------------


def test_wal_assigns_monotonic_lsns_and_notifies_subscribers():
    wal = WriteAheadLog()
    seen = []
    wal.subscribe(seen.append)
    r1 = wal.append((op_write(1, b"a", float("inf")),))
    r2 = wal.append((op_take(1),))
    assert (r1.lsn, r2.lsn) == (1, 2)
    assert wal.last_lsn == 2
    assert seen == [r1, r2]
    wal.unsubscribe(seen.append)
    wal.append((op_take(2),))
    assert len(seen) == 2


def test_import_record_rejects_stale_lsn():
    wal = WriteAheadLog()
    wal.import_record(CommitRecord(lsn=5, ops=(op_take(1),)))
    assert wal.last_lsn == 5
    with pytest.raises(SpaceError):
        wal.import_record(CommitRecord(lsn=5, ops=(op_take(2),)))


def test_install_snapshot_truncates_covered_records():
    wal = WriteAheadLog()
    for i in range(4):
        wal.append((op_write(i, bytes([i]), float("inf")),))
    wal.install_snapshot(2, b"state")
    assert [r.lsn for r in wal.records_since(0)] == [3, 4]
    assert wal.store.snapshot == (2, b"state")
    assert wal.last_lsn == 4


def test_file_wal_store_round_trips(tmp_path):
    path = tmp_path / "space"
    store = FileWalStore(path)
    wal = WriteAheadLog(store)
    records = [wal.append((op_write(i, bytes([i]), float("inf")),))
               for i in range(3)]
    wal.install_snapshot(1, b"snap")

    reopened = FileWalStore(path)
    assert reopened.snapshot == (1, b"snap")
    assert [r.lsn for r in reopened.records] == [2, 3]
    assert reopened.records == records[1:]


# -- crash recovery ------------------------------------------------------------


def committed_points(space):
    return sorted((p.x, p.y) for p in space.contents(Point()))


def test_recovery_matches_committed_state_and_rolls_back_open_txns(runtime):
    store = WalStore()
    space = DurableSpace(runtime, wal=WriteAheadLog(store))

    def scenario():
        for i in range(4):
            space.write(Point(i, 0))
        space.take(Point(0, 0), timeout_ms=0.0)          # committed take
        txn = TransactionManager(runtime).create()
        space.write(Point(99, 99), txn=txn)              # never committed
        space.take(Point(1, 0), txn=txn, timeout_ms=0.0)  # must roll back
        # The uncommitted view differs from the committed one on purpose:
        assert space.take_if_exists(Point(1, 0)) is None

    run(runtime, scenario)
    # "Crash": recover a fresh space from the surviving store alone.
    recovered = DurableSpace.recover(runtime, store)
    assert committed_points(recovered) == [(1, 0), (2, 0), (3, 0)]
    assert recovered.take_if_exists(Point(99, 99)) is None


def test_committed_txn_survives_recovery(runtime):
    store = WalStore()
    space = DurableSpace(runtime, wal=WriteAheadLog(store))

    def scenario():
        space.write(Point(1, 1))
        txn = TransactionManager(runtime).create()
        space.take(Point(1, 1), txn=txn, timeout_ms=0.0)
        space.write(Point(2, 2), txn=txn)
        txn.commit()

    run(runtime, scenario)
    recovered = DurableSpace.recover(runtime, store)
    assert committed_points(recovered) == [(2, 2)]


def test_replay_keeps_fifo_order_across_out_of_order_commits(runtime):
    """A transaction's write committed after a later plain write reaches
    the log second; every replayed space still scans in id order."""
    store = WalStore()
    primary = DurableSpace(runtime, wal=WriteAheadLog(store),
                           snapshot_every=None)
    standby = DurableSpace(runtime, snapshot_every=None)
    primary.wal.subscribe(standby.apply_commit)
    templates = [TaskEntry(), TaskEntry(app="a"), TaskEntry(app="a", payload=0)]

    def scenario():
        for space in (primary, standby):
            # Activate the (app) and (payload) indexes before any write so
            # replay maintains them incrementally.
            for template in templates[1:]:
                space.read(template, timeout_ms=0.0)
        txn = TransactionManager(runtime).create()
        primary.write(TaskEntry("a", 1, 0), txn=txn)   # id 1
        primary.write(TaskEntry("a", 2, 0))            # id 2, commits first
        txn.commit()

    run(runtime, scenario)
    assert [r.ops[0][1] for r in store.records] == [2, 1]
    recovered = DurableSpace.recover(runtime, store)
    for space in (primary, recovered, standby):
        for template in templates:
            assert space.read(template, timeout_ms=0.0).task_id == 1
    for space in (recovered, standby):
        assert [t.task_id for t in space.contents(TaskEntry(app="a"))] == [1, 2]


def test_snapshot_plus_tail_recovery(runtime):
    store = WalStore()
    space = DurableSpace(runtime, wal=WriteAheadLog(store), snapshot_every=None)

    def scenario():
        for i in range(10):
            space.write(Point(i, i))
        space.checkpoint()                       # snapshot covers 10 writes
        space.take(Point(3, 3), timeout_ms=0.0)  # tail after the snapshot
        space.write(Point(42, 0))

    run(runtime, scenario)
    assert store.snapshot is not None
    recovered = DurableSpace.recover(runtime, store)
    expected = sorted([(i, i) for i in range(10) if i != 3] + [(42, 0)])
    assert committed_points(recovered) == expected
    # Recovery is idempotent: recover again from the same store.
    again = DurableSpace.recover(runtime, store)
    assert committed_points(again) == expected


def test_automatic_snapshot_bounds_the_log(runtime):
    store = WalStore()
    space = DurableSpace(runtime, wal=WriteAheadLog(store), snapshot_every=5)

    def scenario():
        for i in range(23):
            space.write(Point(i, 0))

    run(runtime, scenario)
    assert store.snapshot is not None
    assert len(store.records) < 23
    recovered = DurableSpace.recover(runtime, store)
    assert committed_points(recovered) == [(i, 0) for i in range(23)]


def test_file_backed_recovery_end_to_end(runtime, tmp_path):
    path = tmp_path / "space"
    space = DurableSpace(runtime, wal=WriteAheadLog(FileWalStore(path)),
                         snapshot_every=4)

    def scenario():
        for i in range(9):
            space.write(Point(i, 0))
        space.take(Point(0, 0), timeout_ms=0.0)

    run(runtime, scenario)
    # Recover from the on-disk files alone (fresh store object = new "boot").
    recovered = DurableSpace.recover(runtime, FileWalStore(path))
    assert committed_points(recovered) == [(i, 0) for i in range(1, 9)]


def test_natural_lease_expiry_replays_by_deadline(runtime):
    store = WalStore()
    space = DurableSpace(runtime, wal=WriteAheadLog(store))

    def scenario():
        space.write(Point(1, 1), lease_ms=500.0)
        space.write(Point(2, 2))
        runtime.sleep(1_000.0)

    run(runtime, scenario)
    # The expiry was never journaled; the absolute deadline in the write
    # record re-expires the entry on its own during recovery.
    recovered = DurableSpace.recover(runtime, store)
    assert committed_points(recovered) == [(2, 2)]


def test_restored_ids_do_not_collide_with_new_writes(runtime):
    store = WalStore()
    space = DurableSpace(runtime, wal=WriteAheadLog(store))

    def scenario():
        for i in range(3):
            space.write(Point(i, 0))

    run(runtime, scenario)
    recovered = DurableSpace.recover(runtime, store)

    def after():
        recovered.write(Point(7, 7))
        assert recovered.take_if_exists(Point(7, 7)) is not None
        # The old entries are still individually takeable (distinct ids).
        for i in range(3):
            assert recovered.take_if_exists(Point(i, 0)) is not None

    run(runtime, after)


def test_snapshot_state_is_a_pure_value(runtime):
    """The snapshot must be deserializable with no live references."""
    store = WalStore()
    space = DurableSpace(runtime, wal=WriteAheadLog(store), snapshot_every=None)

    def scenario():
        space.write(Point(5, 6))
        space.checkpoint()

    run(runtime, scenario)
    last_id, entries = pickle.loads(store.snapshot[1])
    assert last_id >= 1
    assert len(entries) == 1
