"""Pipelining is a pure optimisation: it must never change the answer.

Two properties, per ISSUE acceptance:

* For any (prefetch, seed/drain batch, rng seed), a pipelined job run
  produces a solution byte-identical to the unpipelined run of the same
  seed — batching may only change *when* work happens, never *what*.
* For any op sequence and fsync policy, the state recovered from a
  file-backed WAL after a clean close is byte-identical to what the
  ``always`` policy recovers — group commit trades the durability
  *window*, not the committed contents.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile

from hypothesis import given, settings, strategies as st

from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.node.cluster import testbed_small
from repro.runtime import SimulatedRuntime
from repro.sim.rng import RandomStreams
from repro.tuplespace.wal import FileWalStore, WriteAheadLog, op_take, op_write
from tests.core.toyapp import SumOfSquares


def _run_job(seed: int, prefetch: int, seed_batch: int,
             drain_batch: int) -> bytes:
    """One full job on the simulated cluster, serialized for comparison."""
    runtime = SimulatedRuntime()
    try:
        cluster = testbed_small(runtime, workers=3,
                                streams=RandomStreams(seed))
        framework = AdaptiveClusterFramework(
            runtime, cluster, SumOfSquares(n=12),
            FrameworkConfig(
                monitoring=False,
                compute_real=True,
                transactional_takes=True,
                worker_poll_ms=5_000.0,
                dead_letter_poll_ms=5_000.0,
                worker_prefetch=prefetch,
                master_seed_batch=seed_batch,
                master_drain_batch=drain_batch,
            ),
        )

        def body():
            framework.start()
            report = framework.run()
            framework.shutdown()
            return report

        proc = runtime.kernel.spawn(body, name="job")
        runtime.kernel.run_until_idle()
        if proc.error is not None:
            raise proc.error
        assert proc.finished, "job blocked"
        report = proc.result
        assert report.complete, "job did not complete"
        return json.dumps(
            {"solution": report.solution, "task_count": report.task_count,
             "dead_letters": sorted(report.dead_letters)},
            sort_keys=True,
        ).encode()
    finally:
        runtime.shutdown()


_baselines: dict[int, bytes] = {}


def _baseline(seed: int) -> bytes:
    if seed not in _baselines:
        _baselines[seed] = _run_job(seed, prefetch=1, seed_batch=1,
                                    drain_batch=1)
    return _baselines[seed]


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 3), prefetch=st.integers(1, 8),
       batch=st.integers(1, 8))
def test_pipelined_job_is_byte_identical_to_unpipelined(seed, prefetch,
                                                        batch):
    pipelined = _run_job(seed, prefetch=prefetch, seed_batch=batch,
                         drain_batch=batch)
    assert pipelined == _baseline(seed)


# ------------------------------------------------------------ WAL policies --

# An op sequence: write(entry_id, payload_size) | take(entry_id)
_wal_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 9), st.integers(0, 200)),
        st.tuples(st.just("take"), st.integers(0, 9)),
    ),
    min_size=1,
    max_size=40,
)


def _recovered_state(op_list, fsync_policy: str, group_size: int) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "wal")
        store = FileWalStore(path, fsync_policy=fsync_policy,
                             group_size=group_size)
        wal = WriteAheadLog(store)
        for op in op_list:
            if op[0] == "write":
                _, entry_id, size = op
                wal.append((op_write(entry_id, b"p" * size, float("inf")),))
            else:
                wal.append((op_take(op[1]),))
        wal.sync()
        store.close()
        recovered = FileWalStore(path)
        try:
            return pickle.dumps(
                [(r.lsn, r.ops) for r in recovered.records],
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        finally:
            recovered.close()


@settings(max_examples=25, deadline=None)
@given(op_list=_wal_ops, fsync_policy=st.sampled_from(["group", "os"]),
       group_size=st.integers(1, 16))
def test_fsync_policy_never_changes_recovered_state(op_list, fsync_policy,
                                                    group_size):
    baseline = _recovered_state(op_list, "always", group_size=64)
    candidate = _recovered_state(op_list, fsync_policy, group_size)
    assert candidate == baseline
