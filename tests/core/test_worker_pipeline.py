"""Worker pipelining: prefetched batches complete, drain, and release.

A prefetching worker holds several taken tasks at once (plus, in steady
state, a carried next batch from the combined write-back RPC).  The
contract under Pause/Stop is *drain, never abandon*: every taken task is
either computed or put back where another worker can take it.
"""

from __future__ import annotations

import pytest

from repro.core.codeserver import CODE_SERVER_PORT, CodeServer
from repro.core.entries import ResultEntry, TaskEntry
from repro.core.metrics import Metrics
from repro.core.signals import Signal
from repro.core.states import WorkerState
from repro.core.worker import WorkerHost
from repro.net import Address, Network
from repro.node.machine import FAST_PC, Node
from repro.tuplespace import JavaSpace, SpaceServer
from tests.core.toyapp import SumOfSquares

SPACE_ADDR = Address("master", 4155)


@pytest.fixture()
def env(rt):
    net = Network(rt)
    space = JavaSpace(rt)
    SpaceServer(rt, space, net, SPACE_ADDR).start()
    app = SumOfSquares(n=12, task_cost=100.0)
    code = CodeServer(rt, net, "master")
    code.publish(app.app_id, app.classload_profile())
    code.start()

    def make_host(prefetch, transactional=False):
        node = Node(rt, net, "w1", FAST_PC)
        return WorkerHost(
            rt, node, app,
            space_address=SPACE_ADDR,
            code_server=Address("master", CODE_SERVER_PORT),
            netmgmt_address=None,
            metrics=Metrics(rt),
            worker_poll_ms=50.0,
            prefetch=prefetch,
            transactional=transactional,
        )

    return net, space, app, make_host


def fill_tasks(space, app, n):
    for i in range(n):
        space.write(TaskEntry(app.app_id, i, i))


def drive(rt, fn):
    proc = rt.kernel.spawn(fn, name="driver")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    return proc.result


@pytest.mark.parametrize("transactional", [False, True])
def test_prefetched_worker_completes_every_task(rt, env, transactional):
    net, space, app, make_host = env
    host = make_host(prefetch=4, transactional=transactional)
    host.running = True

    def body():
        fill_tasks(space, app, 12)
        host.handle_signal(Signal.START)
        rt.sleep(6_000.0)
        results = space.count(ResultEntry())
        host.stop()
        return results, host.tasks_done

    results, done = drive(rt, body)
    assert results == 12
    assert done == 12


@pytest.mark.parametrize("transactional", [False, True])
def test_stop_mid_batch_conserves_every_task(rt, env, transactional):
    net, space, app, make_host = env
    host = make_host(prefetch=4, transactional=transactional)
    host.running = True

    def body():
        fill_tasks(space, app, 12)
        host.handle_signal(Signal.START)
        rt.sleep(600.0)                  # mid-batch: several tasks in hand
        host.handle_signal(Signal.STOP)
        rt.sleep(2_000.0)                # give the drain time to land
        remaining = space.count(TaskEntry())
        results = space.count(ResultEntry())
        return host.state, remaining, results

    state, remaining, results = drive(rt, body)
    assert state == WorkerState.STOPPED
    # Conservation: the prefetched batch was drained or put back — no
    # task is stuck invisibly on a stopped worker.
    assert remaining + results == 12
    assert 0 < results < 12              # stopped mid-run, not at either end


def test_pause_freezes_progress_without_losing_the_carry(rt, env):
    net, space, app, make_host = env
    host = make_host(prefetch=4, transactional=True)
    host.running = True

    def body():
        fill_tasks(space, app, 12)
        host.handle_signal(Signal.START)
        rt.sleep(600.0)
        host.handle_signal(Signal.PAUSE)
        rt.sleep(1_000.0)
        frozen = host.tasks_done
        visible = space.count(TaskEntry()) + space.count(ResultEntry())
        rt.sleep(1_000.0)
        still = host.tasks_done
        host.handle_signal(Signal.RESUME)
        rt.sleep(6_000.0)
        host.stop()
        return frozen, still, visible, host.tasks_done

    frozen, still, visible, done = drive(rt, body)
    assert frozen == still               # no progress while paused
    # While paused, any carried-but-uncomputed tasks were released back
    # to the space: everything is accounted for in public state.
    assert visible == 12
    assert done == 12                    # resume finishes the job


def test_prefetch_takes_tasks_in_multi_entry_batches(rt, env):
    net, space, app, make_host = env

    def batch_sizes(prefetch):
        host = make_host(prefetch=prefetch)
        host.running = True
        sizes = []
        # The server serves wire takes from stored frames.
        original = space.take_multiple_encoded

        def spy(*a, **kw):
            taken = original(*a, **kw)
            if taken:
                sizes.append(len(taken))
            return taken

        space.take_multiple_encoded = spy

        def body():
            fill_tasks(space, app, 12)
            host.handle_signal(Signal.START)
            rt.sleep(6_000.0)
            host.stop()
            return space.count(ResultEntry())

        results = drive(rt, body)
        space.take_multiple_encoded = original
        assert results >= 12
        return sizes

    assert batch_sizes(1) == []          # prefetch=1 keeps the single-take path
    pipelined = batch_sizes(4)
    assert pipelined and max(pipelined) > 1
    assert sum(pipelined) == 12          # batches cover the job exactly once
