"""The benchmark's three workloads: inputs, deployments and warm jobs.

Everything here goes through the framework's public API
(:class:`~repro.runtime.SimulatedRuntime`, the ``node.cluster`` testbeds,
:class:`~repro.core.framework.AdaptiveClusterFramework` and
:meth:`~repro.core.master.Master.run`).  A workload sets only the
:class:`~repro.core.framework.FrameworkConfig` fields that define it;
every other field, the entry codec included, stays at its default so a
change of default is measured and a deleted option does not break the
benchmark.

Inputs are drawn per job from ``(workload, seed, replica, job index)``: per-task
result sizes, modelled task costs and, for ``adaptive``, the per-worker
load scripts.  The program sees only the generated inputs.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.application import Application, ClassLoadProfile, Task
from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.node.cluster import testbed_large, testbed_small
from repro.node.loadgen import LoadScript, LoadSimulator1, LoadSimulator2
from repro.runtime import SimulatedRuntime
from repro.sim.rng import RandomStreams

__all__ = ["WORKLOADS", "Workload", "JobInputs", "BenchApp", "Deployment",
           "make_inputs", "reference_solution", "check_job", "deploy"]


@dataclass(frozen=True)
class Workload:
    """One named traffic mix and the deployment that serves it."""

    name: str
    testbed: Callable[..., Any]
    workers: int
    config: dict[str, Any]
    tasks_per_job: int
    result_bytes: tuple[int, int]       # per-task result size, uniform
    task_cost_ms: tuple[float, float]   # modelled reference ms, uniform
    planning_cost_ms: float
    aggregation_cost_ms: float
    #: Host seconds of timed job time one warm job stands for: about its
    #: nominal time (pinned, on the recording host), less on ``adaptive``
    #: so that a run spans more deployments (see ``replicas``).
    #: ``--seconds`` buys ``ceil(seconds / job_seconds)`` timed jobs.  The work, not the time, is fixed, so every run of a seed
    #: measures the same jobs: the metrics do not depend on how many
    #: jobs a busy host fits in (unless it is too slow to finish them
    #: within ``run.OVERRUN`` times this), and ``sim_job_s`` is exact
    #: per seed.
    job_seconds: float
    #: The first jobs whose exact counts form the run's digest.
    digest_jobs: int
    #: Independent deployments the timed jobs are split over, each with
    #: its own streams and inputs derived from the seed, so a run
    #: averages over deployments instead of following one deployment's
    #: history: a deployment's jobs are correlated samples.  Its per-job
    #: host cost drifts as it ages, and on ``adaptive`` the 13 SNMP
    #: pollers fall into long phases of timed-out polls that set its
    #: cost for several jobs.  On ``adaptive`` one deployment's jobs
    #: varied by about ±20 % from deployment to deployment, and its first
    #: job costs about two thirds of its third, so ``adaptive`` runs one
    #: job on each of many deployments.  A run never splits its jobs over
    #: more deployments than it has jobs for (``digest_jobs`` each).
    replicas: int
    #: Per-worker background load (adaptive only): each worker repeats
    #: this cycle of (phase, mean ms) — phase ``idle``, ``sim1``
    #: (LoadSimulator1) or ``sim2`` (LoadSimulator2) — from a seeded
    #: point in the cycle, each phase lasting its mean times a uniform
    #: draw in [0.75, 1.25].  A fixed cycle keeps the cluster's spare
    #: capacity alike across seeds, so job times vary by arrangement,
    #: not by luck of the draw.
    load_cycle: tuple[tuple[str, float], ...] = ()


WORKLOADS: dict[str, Workload] = {
    # The ROADMAP headline warm job: many small tasks with small results,
    # pipelined workers and batched master seed/drain over the classic
    # single in-memory space.  Loads the space, codec, master, worker and
    # kernel handoffs; bypasses sharding, the WAL and SNMP (monitoring
    # off, so the benchmark starts the workers itself).
    "farm": Workload(
        name="farm",
        testbed=testbed_small, workers=4,
        config=dict(monitoring=False, worker_prefetch=8,
                    master_seed_batch=64, master_drain_batch=64),
        tasks_per_job=800, result_bytes=(16, 96),
        task_cost_ms=(20.0, 80.0), planning_cost_ms=0.5,
        aggregation_cost_ms=0.5, job_seconds=0.12, digest_jobs=4,
        replicas=4,
    ),
    # The same layers under the opposite traffic mix: one task per take
    # as in the paper's protocol, results of several KB, 4 shards spread
    # over the nodes, each a durable space with a synchronously
    # replicated hot standby and group commit.  Write-heavy with few
    # large entries: per-op RPCs scatter through ShardRouter and feed the
    # WAL and the replica.  Monitoring is off so SNMP stays adaptive's.
    "replicated": Workload(
        name="replicated",
        testbed=testbed_small, workers=8,
        config=dict(monitoring=False, shards=4, shard_placement="spread",
                    durable_space=True, hot_standby=True,
                    sync_replication=True, wal_fsync_policy="group"),
        tasks_per_job=120, result_bytes=(2048, 8192),
        task_cost_ms=(100.0, 400.0), planning_cost_ms=2.0,
        aggregation_cost_ms=2.0, job_seconds=0.5, digest_jobs=3,
        replicas=4,
    ),
    # The paper's adaptation scenario at cluster scale: 13 x 300 MHz
    # workers, SNMP monitoring at the paper's 1 s poll with default
    # thresholds, and seeded per-worker load scripts alternating
    # LoadSimulator1 (30-50 %, Pause) and LoadSimulator2 (100 %, Stop).
    # Kernel timers, SNMP, the CPU model and signals dominate; the space
    # is nearly idle.  The only workload where the adaptation policy
    # moves sim_job_s.
    "adaptive": Workload(
        name="adaptive",
        testbed=testbed_large, workers=13,
        config=dict(),
        tasks_per_job=104, result_bytes=(16, 64),
        task_cost_ms=(1000.0, 3000.0), planning_cost_ms=5.0,
        aggregation_cost_ms=5.0, job_seconds=0.4, digest_jobs=1,
        replicas=50,
        load_cycle=(("idle", 5_000.0), ("sim1", 2_500.0),
                    ("idle", 5_000.0), ("sim2", 2_500.0)),
    ),
}


# -- the application ------------------------------------------------------------


@dataclass(frozen=True)
class JobInputs:
    """Everything one job is made of, drawn from (workload, seed,
    replica, job)."""

    job: int
    #: (result seed, result bytes, modelled cost ms) per task id.
    tasks: tuple[tuple[int, int, float], ...]
    #: Per worker: [(start ms, kind)] with kind "idle" | "sim1" | "sim2".
    loads: tuple[tuple[tuple[float, str], ...], ...] = ()


def make_inputs(workload: Workload, seed: int, job: int,
                tasks: Optional[int] = None, replica: int = 0) -> JobInputs:
    """Draw one job's inputs.  Job ``-1`` is the warm-up job."""
    rng = random.Random(f"{workload.name}:{seed}:{replica}:{job}")
    count = workload.tasks_per_job if tasks is None else tasks
    lo, hi = workload.result_bytes
    clo, chi = workload.task_cost_ms
    specs = tuple((rng.getrandbits(32), rng.randint(lo, hi),
                   round(rng.uniform(clo, chi), 3)) for _ in range(count))
    loads: list[tuple[tuple[float, str], ...]] = []
    if workload.load_cycle and job >= 0:
        # Phases cover about three times a job's unloaded length on the
        # slow testbed, then the load lifts so every job ends; phases
        # still pending when the job ends are muted by the benchmark.
        horizon = (3.0 * count * chi * (800.0 / 300.0) / workload.workers)
        cycle = workload.load_cycle
        for _ in range(workload.workers):
            phases = []
            index = rng.randrange(len(cycle))
            at = -rng.uniform(0.0, cycle[index][1])
            while at < horizon:
                kind, mean_ms = cycle[index % len(cycle)]
                phases.append((round(max(at, 0.0), 3), kind))
                at += mean_ms * rng.uniform(0.75, 1.25)
                index += 1
            phases.append((round(at, 3), "idle"))
            loads.append(tuple(phases))
    return JobInputs(job=job, tasks=specs, loads=tuple(loads))


def execute_task(payload: tuple[int, int, float]) -> bytes:
    """A task's result: ``size`` bytes determined by its result seed."""
    result_seed, size, _cost = payload
    return random.Random(result_seed).randbytes(size)


def aggregate_results(results: dict[int, Any]) -> tuple[int, str]:
    """Task count and a digest over every (task id, result), in id order."""
    digest = hashlib.sha256()
    for task_id in sorted(results):
        digest.update(task_id.to_bytes(4, "little"))
        digest.update(results[task_id])
    return len(results), digest.hexdigest()


def reference_solution(inputs: JobInputs) -> tuple[int, str]:
    """The job's solution computed serially, outside the framework."""
    return aggregate_results({task_id: execute_task(payload)
                              for task_id, payload in enumerate(inputs.tasks)})


class BenchApp(Application):
    """The benchmark's master-worker application: its methods are the
    ``app`` layer of the ledger, thin calls into the functions above."""

    app_id = "hostbench"

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.inputs: Optional[JobInputs] = None

    def plan(self) -> list[Task]:
        return [Task(task_id=i, payload=p)
                for i, p in enumerate(self.inputs.tasks)]

    def execute(self, payload: Any) -> Any:
        return execute_task(payload)

    def aggregate(self, results: dict[int, Any]) -> Any:
        return aggregate_results(results)

    def task_cost_ms(self, task: Task) -> float:
        return task.payload[2]

    def planning_cost_ms(self, task: Task) -> float:
        return self.workload.planning_cost_ms

    def aggregation_cost_ms(self, task_id: int, result: Any) -> float:
        return self.workload.aggregation_cost_ms

    def classload_profile(self) -> ClassLoadProfile:
        return ClassLoadProfile(work_ref_ms=300.0, demand_percent=80.0,
                                bundle_bytes=60_000)


# -- checking one job --------------------------------------------------------------


@dataclass(frozen=True)
class JobCheck:
    """Outcome of checking one job against its reference."""

    failed: int
    problems: tuple[str, ...]


def check_job(report: Any, reference: tuple[int, str], tasks: int,
              duplicates: int) -> JobCheck:
    """Compare a :class:`MasterReport` with the serial reference.

    Missing, duplicated and dead-lettered tasks count as failed; an
    incomplete job or a wrong solution fails every task of the job.
    """
    problems: list[str] = []
    failed = 0
    if not report.complete:
        problems.append("job incomplete")
    if report.task_count != tasks:
        problems.append(f"planned {report.task_count} tasks, expected {tasks}")
    if report.dead_letters:
        problems.append(f"{len(report.dead_letters)} dead letters")
        failed += len(report.dead_letters)
    if duplicates:
        problems.append(f"{duplicates} duplicate results")
        failed += duplicates
    delivered = sum(report.results_by_worker.values())
    if delivered != tasks:
        problems.append(f"{delivered} results delivered for {tasks} tasks")
        failed += abs(tasks - delivered)
    if report.solution != reference:
        problems.append("solution differs from the serial reference")
    if not report.complete or report.solution != reference:
        failed = tasks
    return JobCheck(failed=min(failed, tasks),
                    problems=tuple(problems))


# -- deployments ----------------------------------------------------------------------


class Deployment:
    """One standing framework on a fresh simulated runtime.

    Built and driven from inside the runtime's root process (see
    :func:`deploy`).  ``run_job`` runs one warm job and returns its
    report; the per-job load scripts of ``adaptive`` start with the job
    and fall silent when it ends.
    """

    def __init__(self, runtime: SimulatedRuntime, workload: Workload,
                 seed: int, replica: int) -> None:
        self.runtime = runtime
        self.workload = workload
        self.replica = replica
        self.cluster = workload.testbed(
            runtime, workers=workload.workers,
            streams=RandomStreams(seed).fork(replica))
        self.app = BenchApp(workload)
        self.framework = AdaptiveClusterFramework(
            runtime, self.cluster, self.app,
            FrameworkConfig(**workload.config))
        self._sims: list[tuple[LoadSimulator1, LoadSimulator2]] = []
        self._live_job: Optional[int] = None
        self._duplicates = 0

    def start(self) -> None:
        framework = self.framework
        framework.start()
        if framework.netmgmt is None:
            framework.start_all_workers()
        if self.workload.load_cycle:
            for i, node in enumerate(self.cluster.workers):
                self._sims.append((
                    LoadSimulator1(self.runtime, node,
                                   rng=self.cluster.rng(f"hostbench-load:{i}")),
                    LoadSimulator2(self.runtime, node)))

    def _load_action(self, job: int, worker: int, kind: str) -> Callable[[], None]:
        sim1, sim2 = self._sims[worker]

        def apply() -> None:
            if self._live_job != job:
                return  # the job this phase belongs to has ended
            if kind == "sim1":
                sim2.stop()
                sim1.start()
            elif kind == "sim2":
                sim1.stop()
                sim2.start()
            else:
                sim1.stop()
                sim2.stop()
        return apply

    def run_job(self, inputs: JobInputs) -> tuple[Any, int]:
        """Run one job; returns (report, duplicate results in this job)."""
        self.app.inputs = inputs
        self._live_job = inputs.job
        for worker, phases in enumerate(inputs.loads):
            LoadScript(self.runtime, [
                (at, self._load_action(inputs.job, worker, kind))
                for at, kind in phases]).start()
        report = self.framework.master.run()
        self._live_job = None
        for sim1, sim2 in self._sims:
            sim1.stop()
            sim2.stop()
        duplicates = report.duplicate_results - self._duplicates
        self._duplicates = report.duplicate_results
        return report, duplicates

    def shutdown(self) -> None:
        self.framework.shutdown()


def deploy(workload: Workload, seed: int,
           body: Callable[[Deployment, float], Any], replica: int = 0) -> Any:
    """Build a deployment on a fresh runtime, run its warm-up job and
    hand it to ``body(deployment, setup_s)``; tears everything down.

    ``setup_s`` is host seconds from the fresh runtime to the end of the
    warm-up job: cluster and framework construction, Jini lookup and
    join, worker class loading and the warm-up job itself.
    """
    started = time.perf_counter()
    runtime = SimulatedRuntime()
    outcome: dict[str, Any] = {}

    def root() -> None:
        deployment = Deployment(runtime, workload, seed, replica)
        deployment.start()
        warmup = make_inputs(workload, seed, -1, tasks=2 * workload.workers,
                             replica=replica)
        report, _ = deployment.run_job(warmup)
        check = check_job(report, reference_solution(warmup),
                          len(warmup.tasks), 0)
        if check.problems:
            raise RuntimeError(f"warm-up job failed: {check.problems}")
        setup_s = time.perf_counter() - started
        try:
            outcome["value"] = body(deployment, setup_s)
        finally:
            deployment.shutdown()

    try:
        proc = runtime.kernel.spawn(root, name="hostbench-master")
        runtime.run_until_idle()
        if proc.error is not None:
            raise proc.error
        if not proc.finished:
            raise RuntimeError("benchmark root process never completed")
    finally:
        runtime.shutdown()
    return outcome["value"]
