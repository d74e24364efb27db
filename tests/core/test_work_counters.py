"""Exact per-task work counters of a warm pipelined job.

Work counts, unlike wall time, are the same on every host, so they can
be gated exactly.  The space builds an entry instance only to hand a
copy to an in-process caller: matching and indexing read template fields
from the stored frames.  In a warm job with pipelined workers and the
master in-process, that leaves one whole decode in the space per task,
the master's result take.
"""

from __future__ import annotations

import repro.tuplespace.space as space_module
from repro.core import AdaptiveClusterFramework, FrameworkConfig
from repro.node import testbed_small
from tests.core.toyapp import SumOfSquares

TASKS = 96


def test_warm_pipelined_job_decodes_once_per_task_in_the_space(rt, monkeypatch):
    cluster = testbed_small(rt, workers=4)
    app = SumOfSquares(n=TASKS, task_cost=20.0)
    framework = AdaptiveClusterFramework(
        rt, cluster, app,
        FrameworkConfig(monitoring=False, worker_prefetch=8,
                        master_seed_batch=32, master_drain_batch=32))
    calls = []
    decode_any = space_module.decode_any

    def counting_decode_any(data):
        calls.append(len(data))
        return decode_any(data)

    def experiment():
        framework.start()
        framework.start_all_workers()
        framework.master.run()          # warm-up: lookup, class loading, indexes
        monkeypatch.setattr(space_module, "decode_any", counting_decode_any)
        report = framework.master.run()
        monkeypatch.setattr(space_module, "decode_any", decode_any)
        framework.shutdown()
        return report

    proc = rt.kernel.spawn(experiment, name="experiment")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    report = proc.result
    assert report.solution == sum(i * i for i in range(TASKS))
    assert report.task_count == TASKS
    assert len(calls) == TASKS
