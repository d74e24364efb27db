"""Property-based tests on the CPU model (hypothesis).

The core conservation law: however the background load dances, the
elapsed time of a job satisfies ∫ share(t) dt = work, where share(t) is
the CPU fraction the job receives.  We verify it against an independent
reconstruction of the share timeline.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.node.cpu import CpuModel, UtilizationRecorder
from repro.runtime import SimulatedRuntime

# Schedules of (delay before change, new background level); the job runs
# under this piecewise-constant background.
schedules = st.lists(
    st.tuples(st.floats(10.0, 400.0), st.floats(0.0, 95.0)),
    min_size=0,
    max_size=6,
)


def run_with_schedule(work_ms, schedule, speed=800.0):
    runtime = SimulatedRuntime()
    try:
        cpu = CpuModel(runtime, speed_mhz=speed)
        changes = []  # (time, background level) actually applied

        def loader():
            for delay, level in schedule:
                runtime.sleep(delay)
                changes.append((runtime.now(), level))
                cpu.set_background("bg", level)

        result = {}

        def job():
            result["elapsed"] = cpu.execute(work_ms)
            result["end"] = runtime.now()

        runtime.kernel.spawn(loader, name="loader")
        runtime.kernel.spawn(job, name="job")
        runtime.kernel.run()
        return result["elapsed"], changes
    finally:
        runtime.shutdown()


def integrate_share(elapsed, changes, speed):
    """Reconstruct ∫ share dt over [0, elapsed] from the change log."""
    points = [(0.0, 0.0)] + [(t, lvl) for t, lvl in changes if t < elapsed]
    total = 0.0
    for i, (t, level) in enumerate(points):
        t_next = points[i + 1][0] if i + 1 < len(points) else elapsed
        share = max(0.0, (100.0 - level) / 100.0)
        total += share * (min(t_next, elapsed) - t)
    return total * (speed / 800.0)


@settings(max_examples=30, deadline=None)
@given(work=st.floats(50.0, 2_000.0), schedule=schedules)
def test_work_conservation_under_arbitrary_load(work, schedule):
    elapsed, changes = run_with_schedule(work, schedule)
    done = integrate_share(elapsed, changes, speed=800.0)
    assert done == pytest.approx(work, rel=1e-6, abs=1e-3)


@settings(max_examples=20, deadline=None)
@given(work=st.floats(50.0, 1_000.0), schedule=schedules,
       speed=st.sampled_from([300.0, 800.0, 1600.0]))
def test_speed_scales_inverse_linearly(work, schedule, speed):
    elapsed, changes = run_with_schedule(work, schedule, speed=speed)
    done = integrate_share(elapsed, changes, speed=speed)
    assert done == pytest.approx(work, rel=1e-6, abs=1e-3)


@settings(max_examples=25, deadline=None)
@given(work=st.floats(10.0, 1_000.0), schedule=schedules)
def test_elapsed_at_least_unloaded_duration(work, schedule):
    elapsed, _ = run_with_schedule(work, schedule)
    assert elapsed >= work - 1e-6  # background can only slow things down


@settings(max_examples=25, deadline=None)
@given(schedule=schedules)
def test_utilization_recorder_bounded(schedule):
    """Utilization stays in [0, 100] and external ≤ total everywhere."""
    runtime = SimulatedRuntime()
    try:
        cpu = CpuModel(runtime, speed_mhz=800.0)

        def loader():
            for delay, level in schedule:
                runtime.sleep(delay)
                cpu.set_background("bg", level)

        def job():
            cpu.execute(500.0)

        runtime.kernel.spawn(loader, name="loader")
        runtime.kernel.spawn(job, name="job")
        runtime.kernel.run()
        for t, total, external in cpu.recorder.history():
            assert 0.0 <= external <= total <= 100.0
    finally:
        runtime.shutdown()


@settings(max_examples=15, deadline=None)
@given(
    window=st.floats(100.0, 2_000.0),
    busy=st.floats(10.0, 900.0),
)
def test_windowed_average_matches_busy_fraction(window, busy):
    runtime = SimulatedRuntime()
    try:
        cpu = CpuModel(runtime, speed_mhz=800.0)

        def job():
            cpu.execute(busy)
            runtime.sleep(max(0.0, window - busy))

        runtime.kernel.spawn(job, name="job")
        runtime.kernel.run()
        expected = 100.0 * min(busy, window) / window
        # Query at t = max(window, busy): average over the trailing window.
        assert cpu.average_total(window) == pytest.approx(expected, abs=0.5)
    finally:
        runtime.shutdown()


class _Clock:
    """The one runtime method the recorder reads."""

    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t


def _full_scan_average(steps, now, window_ms, external):
    """Reference: integrate over the whole step history."""
    start = max(0.0, now - window_ms)
    if now <= start:
        _, total, ext = steps[-1]
        return ext if external else total
    area = 0.0
    for i, (t, total, ext) in enumerate(steps):
        t_next = steps[i + 1][0] if i + 1 < len(steps) else now
        lo, hi = max(t, start), min(t_next, now)
        if hi > lo:
            area += (ext if external else total) * (hi - lo)
    return area / (now - start)


levels = st.floats(0.0, 100.0)


@settings(max_examples=200, deadline=None)
@given(
    samples=st.lists(st.tuples(st.floats(0.0, 500.0), levels, levels),
                     max_size=40),
    keep_ms=st.sampled_from([300.0, 2_000.0, 600_000.0]),
    queries=st.lists(st.tuples(st.floats(0.0, 300.0),
                               st.floats(0.0, 20_000.0), st.booleans()),
                     min_size=1, max_size=5),
)
def test_windowed_average_equals_full_history_scan(samples, keep_ms,
                                                   queries):
    """Starting the integration at the step covering the window start
    gives the same float, bit for bit, as scanning every step."""
    clock = _Clock()
    recorder = UtilizationRecorder(clock, keep_ms=keep_ms)
    for delay, total, external in samples:
        clock.t += delay
        recorder.record(total, min(total, external))
    for delay, window, external in queries:
        clock.t += delay
        expected = _full_scan_average(recorder.history(), clock.t, window,
                                      external)
        assert recorder.average(window, external) == expected
