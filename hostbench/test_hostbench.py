"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest hostbench/test_hostbench.py -q

They check, at a tiny size, that every metric ``BENCHMARK.json`` names
is emitted with its unit, that host times are scaled by the probed
host speed, that the traced run reproduces the untraced run's digest,
that kernel events are charged to the layer that scheduled them,
that RPC waits leave out RPCs that park server-side, and that the
correctness check trips on a wrong solution.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, tmp_path: Path) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny",
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line for line in lines if line.startswith("digest: "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, tmp_path):
    plain, plain_digest = _run(workload, 0, tmp_path)
    traced, traced_digest = _run(workload, 1, tmp_path)
    assert plain["correct"] and plain["failed"] == 0
    assert traced["correct"] and traced["failed"] == 0
    assert plain["attempted"] >= 1
    for result, declared in ((plain, BENCH["end_to_end"]),
                             (traced, BENCH["per_layer"])):
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for metric in declared:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert plain_digest == traced_digest
    for metric in BENCH["end_to_end"]:
        assert plain["metrics"][metric["name"]]["value"] > 0
    # Host times are the raw ones scaled by each job's probed speed.
    jobs = json.loads(
        (tmp_path / f"{workload}-seed3-trace0.json").read_text())["jobs"]
    for job in jobs:
        assert job["ref_host_s"] == pytest.approx(job["speed"] * job["host_s"])
    rate = sum(j["tasks"] for j in jobs) / sum(j["ref_host_s"] for j in jobs)
    assert plain["metrics"]["tasks_per_s"]["value"] == pytest.approx(rate)
    # Network deliveries are kernel events the network scheduled: they
    # are charged to ``net``, not to the kernel.
    traced_jobs = json.loads(
        (tmp_path / f"{workload}-seed3-trace1.json").read_text())["jobs"]
    assert sum(j["ledger"]["records"].get("net:<event>", (0, 0, 0))[1]
               for j in traced_jobs) > 0


def test_check_trips_on_a_corrupted_solution():
    workload = workloads.WORKLOADS["farm"]
    inputs = workloads.make_inputs(workload, 1, 0, tasks=8)
    reference = workloads.reference_solution(inputs)

    @dataclasses.dataclass
    class Report:
        solution: object
        complete: bool = True
        task_count: int = 8
        dead_letters: dict = dataclasses.field(default_factory=dict)
        results_by_worker: dict = dataclasses.field(
            default_factory=lambda: {"worker1": 8})

    assert workloads.check_job(Report(reference), reference, 8, 0).failed == 0
    count, digest = reference
    corrupted = (count, digest[::-1])
    check = workloads.check_job(Report(corrupted), reference, 8, 0)
    assert check.failed == 8 and check.problems
    assert workloads.check_job(Report(reference), reference, 8, 2).failed == 2
    short = Report(reference, results_by_worker={"worker1": 7})
    assert workloads.check_job(short, reference, 8, 0).failed == 1


def test_wrong_solution_fails_the_run(monkeypatch, tmp_path, capsys):
    honest = workloads.BenchApp.aggregate

    def corrupt(self, results):
        count, digest = honest(self, results)
        if self.inputs.job < 0:
            return count, digest  # leave the warm-up job alone
        return count, "0" * len(digest)

    monkeypatch.setattr(workloads.BenchApp, "aggregate", corrupt)
    code = run.main(["--workload", "farm", "--seconds", "0.1", "--tiny",
                     "--out", str(tmp_path)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_rpc_waits_leave_out_rpcs_that_park():
    import ledger

    assert ledger._may_park("take", {"timeout_ms": 250.0})
    assert ledger._may_park("take_multiple", {"timeout_ms": None})
    assert not ledger._may_park("take", {"timeout_ms": 0.0})
    assert not ledger._may_park("write", {"entry": b""})
    assert not ledger._may_park("txn_create", {"timeout_ms": 60_000.0})
