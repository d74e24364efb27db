"""Host-time benchmark of warm master-worker jobs.

Run from the repository root::

    python3 hostbench/run.py --workload farm [--seed 1] [--seconds 20] [--trace 0]

``--trace 0`` times warm jobs with tracing off and reports the
end-to-end metrics; ``--trace 1`` reports the per-layer ledger (see
``hostbench/README.md``).  ``--seconds`` fixes the work, not the time:
it buys ``ceil(seconds / job_seconds)`` jobs of the workload, so every
run of a seed measures the same jobs (a program too slow to finish them
within ``OVERRUN`` times their nominal time, at the reference speed,
runs fewer).  Host times are
reported at a reference speed: a speed probe runs between jobs, and each
job's time is scaled by the probes either side of it.  Every job is
checked against its serial reference solution; a wrong, missing or
duplicated result makes the run exit 1.  The last line of standard
output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The default seed is 1; seed 9001 is held out for confirming claims.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_SEED = 1
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 7
#: A replica starts no more jobs once its jobs have taken this many times
#: their nominal host time at the reference speed (``TRACED_OVERRUN``
#: times more when traced), so a slow program cannot stretch a run past
#: its time limit; a slow host does not cut a run short.
OVERRUN = 1.5
TRACED_OVERRUN = 2.0


# -- host ----------------------------------------------------------------------------


def _spin(n: int) -> int:
    """The fixed pure-Python loop the calibration and probes time."""
    acc = 0
    for i in range(n):
        acc = (acc + i * i) % 1_000_003
    return acc


def calibrate(rounds: int = 5, n: int = 300_000) -> float:
    """Rate of a fixed pure-Python loop, in million iterations per
    second (best of ``rounds``): read other figures against it."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        _spin(n)
        best = min(best, time.perf_counter() - t0)
    return n / best / 1e6


def host_fingerprint() -> dict[str, Any]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "calib_mips": round(calibrate(), 3),
    }


#: One speed probe: a fixed pure-Python loop, a lock ping-pong between
#: two threads and a random-access walk over an 8 MB table, the three
#: kinds of work a warm job is made of (interpreter work,
#: simulated-process handoffs and cache misses over a large heap).
PROBE_LOOP = 40_000
PROBE_HANDOFFS = 400
PROBE_WALK = 25_000
_WALK_SIZE = 1 << 21
#: Probe seconds at the reference speed (about the typical probe on
#: the recording host, a 2-vCPU VM).  Host-time metrics are scaled to it.
PROBE_REF_S = 0.011


@functools.cache
def _walk_table() -> array:
    """A single cycle through every slot: slot ``x`` holds ``5x + 1``
    modulo the size, so successive steps land far apart."""
    mask = _WALK_SIZE - 1
    return array("i", ((5 * x + 1) & mask for x in range(_WALK_SIZE)))


def probe() -> float:
    """Host seconds one speed probe takes now.

    The host is shared and its speed swings by up to 2x within seconds;
    a job and the probes run next to it slow down together, so a job's
    host time times ``PROBE_REF_S / probe`` is its time at the
    reference speed.  The probe runs none of the program and runs
    while the simulation is idle, so the scaling follows the host, not
    the program."""
    ping, pong = threading.Lock(), threading.Lock()
    ping.acquire()
    pong.acquire()

    def other() -> None:
        for _ in range(PROBE_HANDOFFS):
            ping.acquire()
            pong.release()

    table = _walk_table()
    helper = threading.Thread(target=other, name="hostbench-probe")
    helper.start()
    t0 = time.perf_counter()
    _spin(PROBE_LOOP)
    for _ in range(PROBE_HANDOFFS):
        ping.release()
        pong.acquire()
    slot = 0
    for _ in range(PROBE_WALK):
        slot = table[slot]
    elapsed = time.perf_counter() - t0
    helper.join()
    return elapsed


def pin_and_fix_hash_seed() -> None:
    """Re-exec with a fixed hash seed, then pin to one CPU.

    The kernel runs one simulated-process thread at a time, so one core
    is all a run can use; pinning keeps every thread handoff on it, and
    a fixed hash seed removes one source of spread between processes.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# -- measuring ------------------------------------------------------------------------


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def state_counts(deployment: Any) -> dict[str, Any]:
    """Exact counters the program keeps itself (no tracing needed)."""
    framework = deployment.framework
    net = deployment.cluster.network.stats
    counts = {key: net[key] for key in ("messages", "message_bytes",
                                        "datagrams", "datagram_bytes",
                                        "dropped")}
    for key in ("writes", "takes", "reads", "wakeups"):
        counts[f"space_{key}"] = sum(s.stats[key] for s in framework.spaces)
    wals = [s.wal for s in framework.spaces if hasattr(s, "wal")]
    counts["wal_lsn"] = sum(w.last_lsn for w in wals)
    wals += [standby.space.wal for standby in framework.standbys]
    counts["wal_syncs"] = sum(w.store.syncs for w in wals)
    netmgmt = framework.netmgmt
    counts["snmp_requests"] = netmgmt.snmp.stats["requests"] if netmgmt else 0
    counts["snmp_timeouts"] = netmgmt.snmp.stats["timeouts"] if netmgmt else 0
    counts["signals"] = netmgmt.stats["signals_sent"] if netmgmt else 0
    return counts


def _delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    return {key: after[key] - before[key] for key in after}


#: Program-kept counts that enter the digest (and must match between the
#: traced and untraced runs).
DIGEST_STATE = ("messages", "message_bytes", "datagrams", "datagram_bytes",
                "space_writes", "space_takes", "space_reads", "wal_lsn")


def run_jobs(deployment: Any, workload: Any, seed: int, jobs: int,
             budget_s: float, last_probe_s: float,
             ledger: Any = None) -> list[dict[str, Any]]:
    """Run ``jobs`` warm jobs, or as many as ``budget_s`` host seconds
    of job time at the reference speed allow (never fewer than the digest jobs); one record
    per job (with its ledger window when traced).  A speed probe runs
    after every job; ``last_probe_s`` is the one that ran before the
    first."""
    from workloads import check_job, make_inputs, reference_solution

    runtime = deployment.runtime
    metrics = deployment.framework.metrics
    records: list[dict[str, Any]] = []
    spent_s = 0.0
    for job in range(jobs):
        if job >= workload.digest_jobs and spent_s > budget_s:
            break
        inputs = make_inputs(workload, seed, job, replica=deployment.replica)
        reference = reference_solution(inputs)
        before = state_counts(deployment)
        virtual_start = runtime.now()
        snap = ledger.snapshot() if ledger is not None else None
        cpu0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        report, duplicates = deployment.run_job(inputs)
        t1 = time.perf_counter_ns()
        cpu1 = time.process_time_ns()
        record: dict[str, Any] = {}
        if ledger is not None:
            record["ledger"] = ledger.window(snap, ledger.snapshot())
        probe_s = probe()
        # Scale the job to the reference speed by the probes either side.
        scale = 2.0 * PROBE_REF_S / (last_probe_s + probe_s)
        last_probe_s = probe_s
        spent_s += scale * (t1 - t0) / 1e9
        check = check_job(report, reference, len(inputs.tasks), duplicates)
        reactions = [payload["latency_ms"]
                     for at, payload in metrics.events_named("signal-honored")
                     if virtual_start <= at and "latency_ms" in payload]
        record.update({
            "replica": deployment.replica, "job": job,
            "tasks": len(inputs.tasks), "failed": check.failed,
            "problems": list(check.problems),
            "host_s": (t1 - t0) / 1e9, "cpu_s": (cpu1 - cpu0) / 1e9,
            "speed": scale, "ref_host_s": scale * (t1 - t0) / 1e9,
            "ref_cpu_s": scale * (cpu1 - cpu0) / 1e9,
            "sim_s": report.parallel_ms / 1000.0,
            "state": _delta(before, state_counts(deployment)),
            "signal_react_ms": reactions,
        })
        records.append(record)
    return records


def timed_jobs(workload: Any, seconds: float) -> int:
    """Jobs that ``seconds`` of nominal job time buy (at least the
    digest jobs)."""
    return max(workload.digest_jobs, math.ceil(seconds / workload.job_seconds))


def digest_of(workload: Any, jobs: list[dict[str, Any]],
              ledger_counts: Optional[list[dict[str, int]]]) -> tuple[str, dict]:
    """Digest of the digest jobs' exact counts (sha256, 16 hex digits)."""
    head = jobs[:workload.digest_jobs]
    exact = {
        "sim_job_ms": [repr(j["sim_s"] * 1000.0) for j in head],
        "state": [{key: j["state"][key] for key in DIGEST_STATE}
                  for j in head],
    }
    if ledger_counts is not None:
        exact["traced"] = ledger_counts[:workload.digest_jobs]
    blob = json.dumps(exact, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16], exact


def _calls(records: dict[str, Any], *keys: str, outer: bool = False) -> int:
    """Calls (or outer calls) of the named ledger records."""
    return sum(records.get(key, (0, 0, 0))[2 if outer else 1] for key in keys)


def _prefixed(records: dict[str, Any], prefix: str, outer: bool = False,
              exclude: tuple[str, ...] = ()) -> int:
    """Calls (or outer calls) of every ledger record under ``prefix``."""
    return sum(v[2 if outer else 1] for k, v in records.items()
               if k.startswith(prefix) and k not in exclude)


def traced_counts(job: dict[str, Any]) -> dict[str, int]:
    """The exact counts only the ledger sees (kernel events, codec)."""
    records = job["ledger"]["records"]
    return {
        "events": _calls(records, "sim:SimKernel.call_later",
                         "sim:SimKernel.sleep"),
        "waits": _calls(records, "sim:SimCondition.wait"),
        "encodes": _prefixed(records, "codec:encode."),
        "decodes": _prefixed(records, "codec:decode."),
        "encoded_bytes": job["ledger"]["counts"]["encoded_bytes"],
        "wal_appends": _calls(records, "wal:WriteAheadLog.append"),
    }


def setup_and_time(workload: Any, seed: int, jobs: int, setups: int = 1,
                   replicas: Optional[int] = None, ledger: Any = None
                   ) -> tuple[list[float], list[dict[str, Any]]]:
    """Set up fresh deployments ``setups`` times (at least once per
    replica), timing each at the reference speed; the last ``replicas``
    of them (default: the workload's) each run an equal share of
    ``jobs`` timed jobs, at least the digest jobs, within
    :data:`OVERRUN` times their nominal time (more when traced).
    Returns (set-up seconds at the reference speed, job records)."""
    from workloads import deploy

    replicas = workload.replicas if replicas is None else replicas
    replicas = min(replicas, math.ceil(jobs / workload.digest_jobs))
    share = max(workload.digest_jobs, math.ceil(jobs / replicas))
    budget_s = OVERRUN * share * workload.job_seconds
    if ledger is not None:
        budget_s *= TRACED_OVERRUN
    setups = max(setups, replicas)
    setup_times: list[float] = []
    records: list[dict[str, Any]] = []
    for i in range(setups):
        replica = i - (setups - replicas)

        def body(deployment: Any, setup_s: float) -> Any:
            after = probe()
            setup_times.append(setup_s * 2.0 * PROBE_REF_S / (before + after))
            if replica < 0:
                return []
            if ledger is not None:
                ledger.runtime_now = deployment.runtime.now
            return run_jobs(deployment, workload, seed, share, budget_s,
                            after, ledger)

        gc.collect()
        before = probe()
        records += deploy(workload, seed, body, replica=max(replica, 0))
    return setup_times, records


def end_to_end(setup_times: list[float], jobs: list[dict[str, Any]],
               digest_jobs: int) -> dict[str, tuple[float, str]]:
    """Host times are at the reference speed (see :func:`probe`);
    ``sim_job_s`` is over each replica's digest jobs, which every run of
    a seed completes, so it is exact per seed."""
    tasks = sum(j["tasks"] for j in jobs)
    return {
        "tasks_per_s": (tasks / sum(j["ref_host_s"] for j in jobs),
                        "tasks/s"),
        "cpu_ms_per_task": (1000.0 * sum(j["ref_cpu_s"] for j in jobs)
                            / tasks, "ms"),
        "sim_job_s": (statistics.median(j["sim_s"] for j in jobs
                                        if j["job"] < digest_jobs), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(untraced: list[dict[str, Any]],
              traced: list[dict[str, Any]]) -> dict[str, tuple[float, str]]:
    """The ledger over the traced jobs (the untraced ones give the
    overhead and off-CPU baselines).  Self times are at the reference
    speed, each job's scaled like its host time."""
    from ledger import LAYERS, Ledger

    tasks = sum(j["tasks"] for j in traced)
    records: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    state: dict[str, int] = {}
    layers = dict.fromkeys(LAYERS, 0.0)
    for job in traced:
        for layer, self_ns in Ledger.by_layer(job["ledger"]).items():
            layers[layer] += self_ns * job["speed"]
        for key, values in job["ledger"]["records"].items():
            acc = records.setdefault(key, [0, 0, 0])
            for i, value in enumerate(values):
                acc[i] += value
        for key, value in job["ledger"]["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in job["state"].items():
            state[key] = state.get(key, 0) + value
    attributed = sum(layers.values())
    cpu_ns = sum(j["ref_cpu_s"] for j in traced) * 1e9
    untraced_wall = sum(j["host_s"] for j in untraced)
    untraced_cpu = sum(j["cpu_s"] for j in untraced)
    untraced_rate = (sum(j["tasks"] for j in untraced)
                     / sum(j["ref_host_s"] for j in untraced))
    traced_rate = tasks / sum(j["ref_host_s"] for j in traced)
    executions = _calls(records, "app:BenchApp.execute")
    takes = _calls(records, "worker:WorkerHost._one_task",
                   "worker:WorkerHost._task_batch")
    rpcs = _calls(records, "proxy:SpaceProxy._call_once",
                  "proxy:SpaceProxy._batch_once")
    router_ops = _prefixed(records, "sharding:ShardRouter.", outer=True)
    node_calls = _prefixed(records, "node:", outer=True,
                           exclude=("node:<process>", "node:<event>"))
    waits = [w for j in traced for w in j["rpc_waits_ms"]]
    reactions = [r for j in traced for r in j["signal_react_ms"]]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_task(value: float) -> float:
        return value / tasks

    out = {f"{layer}.self_us_per_task": (per_task(layers[layer] / 1e3),
                                         "us/task") for layer in LAYERS}
    out.update({
        "sim.events_per_task": (per_task(_calls(
            records, "sim:SimKernel.call_later", "sim:SimKernel.sleep")),
            "1/task"),
        "sim.waits_per_task": (per_task(_calls(
            records, "sim:SimCondition.wait")), "1/task"),
        "sim.offcpu_frac": (1.0 - untraced_cpu / untraced_wall, "fraction"),
        "net.messages_per_task": (per_task(state["messages"]), "1/task"),
        "net.kb_per_task": (per_task((state["message_bytes"]
                                      + state["datagram_bytes"]) / 1024),
                            "KB/task"),
        "net.datagrams_per_task": (per_task(state["datagrams"]), "1/task"),
        "net.dropped": (state["dropped"], "count"),
        "codec.encodes_per_task": (per_task(_prefixed(
            records, "codec:encode.")), "1/task"),
        "codec.decodes_per_task": (per_task(_prefixed(
            records, "codec:decode.")), "1/task"),
        "codec.kb_encoded_per_task": (per_task(counts["encoded_bytes"]
                                               / 1024), "KB/task"),
        "space.ops_per_task": (per_task(_prefixed(
            records, "space:JavaSpace.", outer=True)), "1/task"),
        "space.wakeups_per_write": (ratio(state["space_wakeups"],
                                          state["space_writes"]), "1/write"),
        "space.empty_take_frac": (ratio(counts["space_empty_takes"],
                                        counts["space_takes"]), "fraction"),
        "proxy.rpcs_per_task": (per_task(rpcs), "1/task"),
        "proxy.rpc_wait_ms.p50": (_quantile(waits, 0.5), "ms"),
        "proxy.rpc_wait_ms.p99": (_quantile(waits, 0.99), "ms"),
        "proxy.rpc_wait_ms.samples": (len(waits), "count"),
        "proxy.retries": (counts["proxy_retries"], "count"),
        "sharding.shard_rpcs_per_op": (ratio(counts["shard_rpcs"],
                                             router_ops), "1/op"),
        "sharding.retries": (counts["sharding_retries"], "count"),
        "wal.appends_per_task": (per_task(_calls(
            records, "wal:WriteAheadLog.append")), "1/task"),
        "wal.kb_per_task": (per_task(counts["wal_bytes"] / 1024), "KB/task"),
        "wal.syncs_per_task": (per_task(state["wal_syncs"]), "1/task"),
        "worker.tasks_per_take": (ratio(executions, takes), "tasks/take"),
        "worker.executions_per_task": (per_task(executions), "1/task"),
        "snmp.requests_per_task": (per_task(state["snmp_requests"]),
                                   "1/task"),
        "snmp.timeouts": (state["snmp_timeouts"], "count"),
        "netmgmt.signals_per_task": (per_task(state["signals"]), "1/task"),
        "netmgmt.signal_react_ms.p50": (_quantile(reactions, 0.5), "ms"),
        "netmgmt.signal_react_ms.samples": (len(reactions), "count"),
        "node.calls_per_task": (per_task(node_calls), "1/task"),
        "unattributed.self_us_per_task": (per_task((cpu_ns - attributed)
                                                   / 1e3), "us/task"),
        "trace.attributed_frac": (attributed / cpu_ns, "fraction"),
        "trace.overhead_frac": (1.0 - traced_rate / untraced_rate,
                                "fraction"),
    })
    return out


def traced_jobs(workload: Any, seed: int, jobs: int,
                replicas: Optional[int] = None) -> list[dict[str, Any]]:
    """Timed jobs on fresh deployments with the ledger installed."""
    from ledger import Ledger
    from workloads import BenchApp

    ledger = Ledger()
    ledger.install(BenchApp)
    try:
        _setups, records = setup_and_time(workload, seed, jobs,
                                          replicas=replicas, ledger=ledger)
    finally:
        ledger.uninstall()
    # RPC waits were sampled in order; hand each job its own slice.
    for record in records:
        lo, hi = record["ledger"]["rpc_waits"]
        record["rpc_waits_ms"] = ledger.rpc_waits_ms[lo:hi]
    return records


def check_digests(workload: Any, untraced: list[dict[str, Any]],
                  traced: list[dict[str, Any]]) -> str:
    """The ledger must not perturb the simulation: the program-kept
    counts of the digest jobs agree exactly between the two runs."""
    plain, plain_exact = digest_of(workload, untraced, None)
    again, again_exact = digest_of(workload, traced, None)
    if plain != again:
        raise RuntimeError(
            f"traced run diverged from the untraced run: "
            f"{plain_exact} != {again_exact}")
    digest, _ = digest_of(workload, traced,
                          [traced_counts(j) for j in traced])
    return digest


# -- main ------------------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="nominal seconds of timed job time: buys "
                             "ceil(seconds / job_seconds) warm jobs, "
                             "cut short past OVERRUN times that")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".hostbench-out"),
                        help="directory for the run's full record")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: two tasks per worker per "
                             "job, two digest jobs, one set-up")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import repro
    except ImportError as exc:
        print(f"hostbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"hostbench: imported the program from {repro.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    setups = SETUPS
    if args.tiny:
        workload = dataclasses.replace(
            workload, tasks_per_job=2 * workload.workers, digest_jobs=2)
        setups = 1
    host = host_fingerprint()
    print("host: " + json.dumps(host, sort_keys=True))

    if args.trace == 0:
        setup_times, untraced = setup_and_time(
            workload, args.seed, timed_jobs(workload, args.seconds),
            setups=setups)
        metrics = end_to_end(setup_times, untraced, workload.digest_jobs)
        # A short traced pass over the digest jobs supplies the counts
        # only the ledger sees, and proves it reproduces this run.
        traced = traced_jobs(workload, args.seed, workload.digest_jobs,
                             replicas=1)
        record_jobs = untraced
    else:
        half = timed_jobs(workload, args.seconds / 2)
        _setups, untraced = setup_and_time(workload, args.seed, half)
        traced = traced_jobs(workload, args.seed, half)
        metrics = per_layer(untraced, traced)
        record_jobs = traced
    digest = check_digests(workload, untraced, traced)

    # Every job either phase ran was checked; all of them count.
    checked = untraced + traced
    attempted = sum(j["tasks"] for j in checked)
    failed = sum(j["failed"] for j in checked)
    for job in checked:
        for problem in job["problems"]:
            print(f"replica {job['replica']} job {job['job']}: {problem}",
                  file=sys.stderr)
    print(f"digest: {digest}")
    print(f"jobs: {len(checked)}  tasks: {attempted}  failed: {failed}  "
          f"failed_frac: {failed / attempted:.6f}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    # What the host did: the metrics above are at the reference speed.
    host_s = sum(j["host_s"] for j in record_jobs)
    tasks = sum(j["tasks"] for j in record_jobs)
    print(f"raw: tasks_per_s {tasks / host_s:.6g} tasks/s  "
          f"cpu_ms_per_task "
          f"{1000.0 * sum(j['cpu_s'] for j in record_jobs) / tasks:.6g}"
          f" ms  host speed {sum(j['ref_host_s'] for j in record_jobs) / host_s:.4g}"
          f" x reference (probe {1000.0 * PROBE_REF_S:g} ms)")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "digest": digest, "jobs": record_jobs,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str))

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    pin_and_fix_hash_seed()
    sys.exit(main())
