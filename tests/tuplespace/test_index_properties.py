"""Index-consistency property: indexed matching == scan matching.

The attribute indexes are a pre-filter, never an oracle: any sequence of
writes, takes, transactions and lease expiries must produce exactly the
same results whether templates resolve through the ``(class, field)``
hash indexes or through a full bucket scan.  This drives a random op mix
through two spaces in lockstep — one with indexes live, one with
``_candidate_ids`` pinned to the scan path — and requires identical
observable behaviour at every step.  The mix includes WAL-replay style
inserts (``_restore``) whose ids arrive out of order, as a log in commit
order delivers them: both paths must still serve in id (FIFO) order.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.runtime import SimulatedRuntime
from repro.tuplespace import JavaSpace, TransactionManager
from repro.tuplespace.lease import FOREVER
from repro.util.codec import encode_entry
from tests.tuplespace.entries import TaskEntry

apps = st.sampled_from(["a", "b", "c"])
task_ids = st.integers(0, 3)
maybe = lambda s: st.one_of(st.none(), s)  # noqa: E731

ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), apps, task_ids,
                  st.sampled_from([None, 40.0])),
        st.tuples(st.just("take"), maybe(apps), maybe(task_ids)),
        st.tuples(st.just("read"), maybe(apps), maybe(task_ids)),
        st.tuples(st.just("take_multiple"), maybe(apps), st.integers(1, 4)),
        st.tuples(st.just("txn_take"), maybe(apps), st.booleans()),
        st.tuples(st.just("sleep"), st.just(60.0)),
        st.tuples(st.just("restore"),
                  st.permutations(range(4)),
                  st.lists(st.tuples(apps, task_ids), min_size=4,
                           max_size=4)),
    ),
    max_size=30,
)


def _fields(entry):
    return None if entry is None else (entry.app, entry.task_id, entry.payload)


@given(ops=ops)
@settings(max_examples=60, deadline=None)
def test_indexed_results_equal_scan_results(ops):
    runtime = SimulatedRuntime()
    indexed = JavaSpace(runtime, name="indexed")
    scanned = JavaSpace(runtime, name="scanned")
    # Pin the reference space to the scan path: no pre-filter, every
    # template walks its class bucket.
    scanned._candidate_ids = lambda cls, items: None
    txns = TransactionManager(runtime)

    def body():
        # Activate the indexes up front so every later op exercises the
        # incremental maintenance path, not just lazy build.
        indexed.read(TaskEntry(app="a"), timeout_ms=0.0)
        indexed.read(TaskEntry(task_id=0), timeout_ms=0.0)
        seq = 0
        for op in ops:
            kind = op[0]
            if kind == "write":
                _, app, task_id, lease = op
                for space in (indexed, scanned):
                    if lease is None:
                        space.write(TaskEntry(app, task_id, seq))
                    else:
                        space.write(TaskEntry(app, task_id, seq),
                                    lease_ms=lease)
                seq += 1
            elif kind in ("take", "read"):
                _, app, task_id = op
                method = getattr(indexed, kind), getattr(scanned, kind)
                got = [m(TaskEntry(app=app, task_id=task_id), timeout_ms=0.0)
                       for m in method]
                assert _fields(got[0]) == _fields(got[1])
            elif kind == "take_multiple":
                _, app, limit = op
                got = [space.take_multiple(TaskEntry(app=app), limit,
                                           timeout_ms=0.0)
                       for space in (indexed, scanned)]
                assert [_fields(e) for e in got[0]] == \
                    [_fields(e) for e in got[1]]
            elif kind == "txn_take":
                _, app, commit = op
                pair = [txns.create(), txns.create()]
                got = [space.take(TaskEntry(app=app), txn=txn,
                                  timeout_ms=0.0)
                       for space, txn in zip((indexed, scanned), pair)]
                assert _fields(got[0]) == _fields(got[1])
                for txn in pair:
                    if commit:
                        txn.commit()
                    else:
                        txn.abort()
            elif kind == "restore":
                # Four fresh ids replayed in a shuffled order (a log in
                # commit order), into both spaces alike.
                _, order, fields = op
                base = indexed._last_id + 1
                for k in order:
                    app, task_id = fields[k]
                    data = encode_entry(TaskEntry(app, task_id, seq + k))
                    for space in (indexed, scanned):
                        space._restore(base + k, data, FOREVER)
                seq += 4
            else:  # sleep: expire short leases in both spaces at once
                runtime.sleep(op[1])
        # Final drain: the remaining FIFO order must agree exactly.
        while True:
            got = [space.take(TaskEntry(), timeout_ms=0.0)
                   for space in (indexed, scanned)]
            assert _fields(got[0]) == _fields(got[1])
            if got[0] is None:
                break

    proc = runtime.kernel.spawn(body, name="driver")
    runtime.kernel.run_until_idle()
    try:
        if proc.error is not None:
            raise proc.error
        assert proc.finished
    finally:
        runtime.shutdown()
