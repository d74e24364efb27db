"""Top-level assembly: the adaptive cluster-computing framework.

Wires the paper's three modules onto a :class:`~repro.node.Cluster`:

* master node: JavaSpaces service (+ its network server), Jini lookup
  service + join, the code server, the network management module, and
  the master process;
* every worker node: a :class:`~repro.core.worker.WorkerHost` (SNMP agent
  + rule-base client + remote-configuration engine).

Workers are recruited by the monitoring loop: an idle node's first SNMP
poll produces a Start signal, so an unloaded cluster spins up within one
poll interval — no manual management, the paper's key contribution over
the systems in its Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.application import Application
from repro.core.codeserver import CODE_SERVER_PORT, CodeServer
from repro.core.master import Master, MasterReport
from repro.core.metrics import Metrics
from repro.core.netmgmt import RULEBASE_PORT, NetworkManagementModule
from repro.core.signals import ThresholdPolicy
from repro.core.worker import WorkerHost
from repro.errors import ConfigurationError, MasterCrashedError
from repro.telemetry import Telemetry
from repro.jini.discovery import DiscoveryClient
from repro.jini.join import JoinManager, LookupClient
from repro.jini.lookup import LookupService, ServiceItem
from repro.net.address import Address
from repro.node.cluster import Cluster
from repro.runtime.base import Runtime
from repro.tuplespace.durable import DurableSpace, HotStandby
from repro.tuplespace.entry import Entry
from repro.tuplespace.failover import JiniSpaceLocator, SpaceSupervisor
from repro.tuplespace.lease import FOREVER
from repro.tuplespace.proxy import SpaceProxy, SpaceServer
from repro.tuplespace.sharding import HashRing, ShardRouter
from repro.tuplespace.space import JavaSpace
from repro.tuplespace.transaction import TransactionManager

__all__ = ["AdaptiveClusterFramework", "FrameworkConfig"]

SPACE_PORT = 4155
LOOKUP_PORT = 4162

#: Modelled footprints of the master-side services — the paper: "Due to
#: the high memory requirements of the Jini infrastructure, the master
#: module … runs on an 800 MHz … PC with 256 MB RAM."
JINI_FOOTPRINT_MB = 48
SPACE_FOOTPRINT_MB = 64


@dataclass(frozen=True)
class FrameworkConfig:
    """Knobs for one framework deployment."""

    poll_interval_ms: float = 1000.0        # SNMP monitoring period
    worker_poll_ms: float = 250.0           # worker take() poll / signal check
    thresholds: ThresholdPolicy = field(default_factory=ThresholdPolicy)
    community: str = "public"               # SNMP community string
    monitoring: bool = True                 # network management module on/off
    use_jini: bool = True                   # discover the space via lookup
    compute_real: bool = True               # actually run app.execute on workers
    load_metric: str = "external"           # what the inference engine polls
    transactional_takes: bool = False       # crash-safe task takes (see worker)
    monitoring_mode: str = "poll"           # "poll" (paper) or "trap" (extension)
    port_offset: int = 0                    # shift all service ports so several
                                            # deployments can share one cluster
    eager_scheduling: bool = False          # replicate straggling tasks
    straggler_timeout_ms: float = 5_000.0   # quiet period before replication

    # -- robustness / self-healing (see DESIGN.md "Fault model & recovery") --
    self_healing: bool = True               # reconnecting worker proxies
    reconnect_max_retries: int = 8          # consecutive failures before giving up
    reconnect_base_ms: float = 50.0         # backoff: base of the exponential
    reconnect_max_ms: float = 2_000.0       # backoff cap
    rpc_timeout_ms: Optional[float] = 10_000.0  # space RPC reply deadline
    max_task_attempts: int = 3              # app failures before dead-letter
    dead_letter_poll_ms: float = 1_000.0    # master's quarantine-drain period
    give_up_after_ms: Optional[float] = None  # master's partial-result deadline

    # -- durability / failover (see DESIGN.md "Recovery model") -------------
    durable_space: bool = False             # WAL + snapshots behind the space
    wal_snapshot_every: Optional[int] = 64  # commit batches between snapshots
    hot_standby: bool = False               # replica + supervisor + promotion
    failover_heartbeat_ms: float = 250.0    # supervisor probe period
    failover_max_misses: int = 3            # missed probes before promotion
    sync_replication: bool = True           # gate acks on standby confirmation
    repl_ack_timeout_ms: float = 500.0      # then drop the client unanswered
    master_checkpoint_ms: Optional[float] = None  # master checkpoint period
    checkpoint_lease_ms: float = 60_000.0   # checkpoint entry lease
    master_restart_delay_ms: float = 500.0  # pause before a master restart
    task_txn_lease_ms: Optional[float] = None  # worker task-txn lease (None=∞)
    staleness_ms: Optional[float] = None    # SNMP sample staleness window

    # -- end-to-end throughput (see DESIGN.md "Throughput path") -------------
    worker_prefetch: int = 1                # tasks per worker pipeline cycle
    master_seed_batch: int = 1              # tasks per seeding write_all
    master_drain_batch: int = 1             # results per drain round trip
    wal_fsync_policy: str = "always"        # durability barrier: always|group|os
    wal_group_size: int = 64                # group-commit size watermark
    wal_group_ms: Optional[float] = None    # group-commit time watermark

    # -- sharding (see DESIGN.md §10 "Sharded space") ------------------------
    #: Number of tuple-space partitions.  1 = the classic single space.
    shards: int = 1
    #: Where shard servers live: ``"master"`` keeps them all on the master
    #: node (more ports, same host); ``"spread"`` round-robins them over
    #: ``cluster.nodes`` so each shard has its own network link;
    #: ``"dedicated"`` round-robins them over ``cluster.space_hosts`` —
    #: nodes that run no worker, the paper's deployment shape — so shard
    #: egress never queues behind a co-located worker's result uploads.
    #: With ``"spread"``/``"dedicated"`` the router path is used even at
    #: ``shards=1`` (a served shard, reached via RPC) so scaling sweeps
    #: compare like-for-like.
    shard_placement: str = "master"
    #: Wildcard scatter-gather camp quantum: how long a client blocks on
    #: one shard before rescanning the others (see ShardRouter).
    scatter_block_ms: float = 250.0

    # -- telemetry (see DESIGN.md "Observability") ---------------------------
    #: Record per-task span trees (virtual-time under simulation).  Trace
    #: IDs are minted and stamped into entries *regardless* of this flag —
    #: enabling it only turns on span recording, so traced and untraced
    #: runs share one virtual timeline (``--verify-determinism`` holds).
    trace: bool = False
    #: Period for mirroring registry instruments into the ``Metrics``
    #: series via the kernel's ``on_advance`` hook (``None`` = off).
    metrics_snapshot_ms: Optional[float] = None
    #: SLO watchdog rules (strings in the :class:`repro.telemetry.slo`
    #: grammar or :class:`SloRule` objects).  ``None`` = the default rule
    #: pack; ``()`` disables the watchdog.  Rules only evaluate when
    #: ``metrics_snapshot_ms`` is set (they ride snapshot frames).
    slo_rules: Optional[tuple] = None
    #: Always-on black-box flight recorder: bounded rings of recent
    #: spans/events that freeze into postmortem bundles on promotion or
    #: checker failure.  O(1) per record; disable only for microbenches.
    flight_recorder: bool = True
    flight_span_capacity: int = 256         # recent spans kept per process
    flight_event_capacity: int = 512        # recent metrics events kept

    # -- consistency checking (see DESIGN.md §11) ----------------------------
    #: Record a per-entry operation history (writes/takes/reads with
    #: invocation + response windows) through recording wrappers around
    #: every space client, for the post-run consistency checker
    #: (:mod:`repro.verify`).  Off by default: the history lives in
    #: memory for the whole run.
    record_history: bool = False

    # -- multi-tenancy (see DESIGN.md §12 "Multi-tenant job service") --------
    #: This deployment's own master's tenant identity (stamped on every
    #: TaskEntry it seeds) and scheduling priority.  Extra tenants join
    #: via :meth:`AdaptiveClusterFramework.attach_tenant_master`.
    tenant: Optional[str] = None
    priority: Optional[int] = None
    #: tenant → fair-share weight for the space's deficit-round-robin
    #: task dispatch.  ``None`` keeps plain FIFO takes.
    tenant_shares: Optional[dict[str, float]] = None
    #: Weight for tenants not named in ``tenant_shares``.
    tenant_default_share: float = 1.0
    #: Enable server-side admission control (quotas, rate limits,
    #: watermark shedding) on every space server.  The deployment's own
    #: master then reaches the space over RPC even in the classic
    #: single-space shape, so its writes are metered like everyone
    #: else's.
    admission: bool = False
    admission_max_in_flight: Optional[int] = None   # per-tenant backlog cap
    admission_write_rate_per_s: Optional[float] = None  # token-bucket refill
    admission_write_burst: float = 16.0             # token-bucket capacity
    admission_soft_watermark: Optional[int] = None  # shed low priority above
    admission_hard_watermark: Optional[int] = None  # shed everything above
    admission_shed_below_priority: int = 1          # soft-shed cutoff
    admission_retry_after_ms: float = 100.0         # rejection retry hint
    admission_quotas: Optional[dict[str, int]] = None   # per-tenant overrides
    admission_rates: Optional[dict[str, float]] = None
    #: Priority preemption: a governor that Pauses workers hoarding
    #: prefetched low-priority carries while urgent backlog waits (see
    #: :mod:`repro.core.tenancy`).
    preemption: bool = False
    preemption_poll_ms: float = 500.0
    preemption_priority_cutoff: int = 1


class AdaptiveClusterFramework:
    """One deployment of the framework on a cluster, for one application."""

    def __init__(
        self,
        runtime: Runtime,
        cluster: Cluster,
        app: Application,
        config: Optional[FrameworkConfig] = None,
        metrics: Optional[Metrics] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.runtime = runtime
        self.cluster = cluster
        self.app = app
        self.config = config if config is not None else FrameworkConfig()
        self.metrics = metrics if metrics is not None else Metrics(runtime)
        self.telemetry = (telemetry if telemetry is not None
                          else Telemetry(runtime, trace=self.config.trace))
        self.tracer = self.telemetry.tracer
        self.registry = self.telemetry.registry
        # Cost models charge virtual CPU only under simulation; on the
        # threaded runtime the real computation already takes real time.
        from repro.runtime import SimulatedRuntime

        self._model_time = isinstance(runtime, SimulatedRuntime)
        if self.config.hot_standby and not self.config.use_jini:
            raise ConfigurationError(
                "hot_standby needs use_jini: failover re-registers the "
                "promoted standby with the lookup service"
            )
        if self.config.shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1: {self.config.shards}")
        if self.config.shard_placement not in ("master", "spread", "dedicated"):
            raise ConfigurationError(
                f"shard_placement must be 'master', 'spread' or "
                f"'dedicated': {self.config.shard_placement!r}")
        if (self.config.shard_placement == "dedicated"
                and not cluster.space_hosts):
            raise ConfigurationError(
                "shard_placement='dedicated' needs cluster.add_space_hosts()")
        if (self.config.admission_soft_watermark is not None
                and self.config.admission_hard_watermark is not None
                and self.config.admission_soft_watermark
                > self.config.admission_hard_watermark):
            raise ConfigurationError(
                f"admission_soft_watermark "
                f"({self.config.admission_soft_watermark}) must not exceed "
                f"admission_hard_watermark "
                f"({self.config.admission_hard_watermark})")
        #: True when the space is partitioned behind a ShardRouter.  The
        #: classic single in-process space (shards=1, placement "master")
        #: keeps the exact legacy wiring; "spread"/"dedicated" force the
        #: router path even at one shard so scaling sweeps compare
        #: like-for-like.
        self.sharded = (self.config.shards > 1
                        or self.config.shard_placement in ("spread",
                                                           "dedicated"))
        self.ring: Optional[HashRing] = (
            HashRing(self.config.shards) if self.sharded else None)
        offset = self.config.port_offset
        if self.sharded:
            if self.config.shard_placement == "dedicated":
                hosts = cluster.space_hosts
                self.shard_hosts = [hosts[i % len(hosts)].hostname
                                    for i in range(self.config.shards)]
            elif self.config.shard_placement == "spread":
                nodes = cluster.nodes
                self.shard_hosts = [nodes[i % len(nodes)].hostname
                                    for i in range(self.config.shards)]
            else:
                self.shard_hosts = ([cluster.master.hostname]
                                    * self.config.shards)
            # Shard ports live in their own window (+100) so they never
            # collide with the legacy space/standby pair or the lookup
            # port, even with several shards co-hosted on the master.
            self.shard_addresses = [
                Address(self.shard_hosts[i], SPACE_PORT + offset + 100 + 2 * i)
                for i in range(self.config.shards)
            ]
            # Standby replicas (and their supervisors) live on the master
            # node regardless of shard placement: a fault that takes out a
            # shard host must not take out the replica that survives it.
            # Port pairs stay unique because shard ports are spaced by 2.
            self.shard_standby_addresses = [
                Address(cluster.master.hostname, address.port + 1)
                for address in self.shard_addresses
            ]
            self.spaces: list[JavaSpace] = [
                self._make_space(f"space:{app.app_id}:shard{i}")
                for i in range(self.config.shards)
            ]
            self.space: JavaSpace = self.spaces[0]
            for i, space in enumerate(self.spaces):
                self.registry.expose_dict("space", space.stats, shard=str(i))
                self.registry.expose(
                    "space.queue_depth",
                    lambda s=space: max(
                        s.stats["writes"] - s.stats["takes"]
                        - s.stats["expired"], 0),
                    shard=str(i))
                if isinstance(space, DurableSpace):
                    space.wal.tracer = self.tracer
                    self.registry.expose("wal.commits",
                                         lambda s=space: s.wal.last_lsn,
                                         shard=str(i))
                    self.registry.expose("wal.syncs",
                                         lambda s=space: s.wal.store.syncs,
                                         shard=str(i))
                    self.registry.expose("space.epoch",
                                         lambda s=space: s.wal.epoch,
                                         shard=str(i))
            self.space_address = self.shard_addresses[0]
            self.standby_address = self.shard_standby_addresses[0]
        else:
            self.space = self._make_space(f"space:{app.app_id}")
            self.spaces = [self.space]
            # Registry naming scheme: the space's counters surface as
            # ``space.<key>`` (read-through — no per-op registry cost).
            self.registry.expose_dict("space", self.space.stats)
            self.registry.expose(
                "space.queue_depth",
                lambda: max(
                    self.space.stats["writes"] - self.space.stats["takes"]
                    - self.space.stats["expired"], 0))
            if isinstance(self.space, DurableSpace):
                self.space.wal.tracer = self.tracer
                self.registry.expose("wal.commits",
                                     lambda: self.space.wal.last_lsn)
                self.registry.expose("wal.syncs",
                                     lambda: self.space.wal.store.syncs)
                self.registry.expose("space.epoch",
                                     lambda: self.space.wal.epoch)
            self.shard_hosts = [cluster.master.hostname]
            self.space_address = Address(
                cluster.master.hostname, SPACE_PORT + offset)
            self.shard_addresses = [self.space_address]
            #: Where the promoted standby serves (primary port + 1).
            self.standby_address = Address(
                cluster.master.hostname, SPACE_PORT + offset + 1
            )
            self.shard_standby_addresses = [self.standby_address]
        self.space_server: Optional[SpaceServer] = None
        self.space_servers: list[SpaceServer] = []
        self.code_server: Optional[CodeServer] = None
        self.lookup: Optional[LookupService] = None
        self.netmgmt: Optional[NetworkManagementModule] = None
        self.standby: Optional[HotStandby] = None
        self.standbys: list[HotStandby] = []
        self.supervisor: Optional[SpaceSupervisor] = None
        self.supervisors: list[SpaceSupervisor] = []
        self._join: Optional[JoinManager] = None
        self._joins: list[JoinManager] = []
        self._master_proxy: Optional[Any] = None
        self.master_restarts = 0
        #: Extra tenants sharing this deployment (see
        #: :meth:`attach_tenant_master`) and their space clients.
        self.tenant_masters: list[Master] = []
        self._tenant_proxies: list[Any] = []
        #: Priority-preemption governor (``config.preemption``).
        self.governor: Optional[Any] = None
        #: Shared operation history for the consistency checker.
        self.history: Optional[Any] = None
        if self.config.record_history:
            from repro.verify import HistoryRecorder

            self.history = HistoryRecorder(runtime)
        #: End-to-end task latency (seed → aggregated), the watchdog's
        #: ``task.latency_ms.p99`` feed.  Deterministic log-bucketed
        #: quantiles — no reservoir sampling to perturb.
        self.task_latency = self.registry.histogram("task.latency_ms")
        #: SLO watchdog (built in :meth:`start` when snapshots are on).
        self.watchdog: Optional[Any] = None
        #: Black-box flight recorder: observes metrics events and (when
        #: tracing) spans through passive hooks, dumps postmortem
        #: bundles on standby promotion or checker failure.
        self.flight: Optional[Any] = None
        if self.config.flight_recorder:
            from repro.telemetry import FlightRecorder

            self.flight = FlightRecorder(
                runtime,
                span_capacity=self.config.flight_span_capacity,
                event_capacity=self.config.flight_event_capacity,
            )
            self.flight.attach(metrics=self.metrics, tracer=self.tracer,
                               registry=self.registry, history=self.history)
        self.master = self._build_master()
        self.worker_hosts: list[WorkerHost] = []
        self._started = False

    def _make_space(self, name: str) -> JavaSpace:
        config = self.config
        if config.durable_space or config.hot_standby:
            return DurableSpace(
                self.runtime, name=name,
                snapshot_every=config.wal_snapshot_every,
                fsync_policy=config.wal_fsync_policy,
                group_size=config.wal_group_size,
                group_commit_ms=config.wal_group_ms,
            )
        return JavaSpace(self.runtime, name=name)

    def _space_locator(self, host: str,
                       shard: Optional[int] = None) -> JiniSpaceLocator:
        """A lookup-backed locator so ``host`` finds the space post-failover.

        With ``shard`` set the query pins one partition (each shard
        registers with a ``shard`` attribute, so failover re-discovery is
        per shard)."""
        query: dict[str, str] = {"type": "JavaSpaces", "app": self.app.app_id}
        if shard is not None:
            query["shard"] = str(shard)
        return JiniSpaceLocator(
            self.cluster.network, host,
            Address(self.cluster.master.hostname,
                    LOOKUP_PORT + self.config.port_offset),
            query,
            call_timeout_ms=self.config.rpc_timeout_ms,
        )

    def _build_router(self, host: str, recovery: Any = None,
                      rng: Any = None) -> ShardRouter:
        """A per-client :class:`ShardRouter` over every shard server."""
        locators = None
        if self.config.hot_standby:
            locators = [self._space_locator(host, shard=i)
                        for i in range(len(self.shard_addresses))]
        return ShardRouter(
            self.cluster.network, host, list(self.shard_addresses),
            ring=self.ring, recovery=recovery, rng=rng,
            metrics=self.metrics, locators=locators, tracer=self.tracer,
            scatter_block_ms=self.config.scatter_block_ms,
        )

    def _build_master(self) -> Master:
        """Create a (or the next, after a kill) master process.

        With a hot standby the master talks to the space through a
        locator-equipped :class:`SpaceProxy` — like any worker — so a
        failover redirects it to the promoted replica; space operations
        retry across the failover window.  Without one it keeps the
        zero-copy in-process space the scalability experiments measure.
        """
        config = self.config
        space: Any = self.space
        retry_ms = None
        if self.sharded:
            # The master reaches every shard through a router, like any
            # worker; shard 0 may be co-hosted but is still served over
            # (loopback) RPC so all shards are symmetric.
            if self._master_proxy is not None:
                self._master_proxy.close()
            self._master_proxy = self._build_router(
                self.cluster.master.hostname)
            space = self._master_proxy
            # Unlike the in-process space, shards are reached over RPC, so
            # the master must ride out shard crashes/restarts like any
            # other client — enable its retry guard unconditionally.
            retry_ms = config.failover_heartbeat_ms
        elif config.hot_standby:
            if self._master_proxy is not None:
                self._master_proxy.close()
            self._master_proxy = SpaceProxy(
                self.cluster.network, self.cluster.master.hostname,
                self.space_address, metrics=self.metrics,
                locator=self._space_locator(self.cluster.master.hostname),
                tracer=self.tracer,
            )
            space = self._master_proxy
            retry_ms = config.failover_heartbeat_ms
        elif config.admission:
            # Admission control is enforced server-side; an in-process
            # master would bypass it entirely.  Route the master through
            # a (loopback) proxy so its seeding writes are metered like
            # every other tenant's.
            if self._master_proxy is not None:
                self._master_proxy.close()
            self._master_proxy = SpaceProxy(
                self.cluster.network, self.cluster.master.hostname,
                self.space_address, metrics=self.metrics, tracer=self.tracer,
            )
            space = self._master_proxy
        if config.admission and retry_ms is None:
            # AdmissionError is a pre-dispatch rejection, so the master's
            # guard may re-issue the op verbatim after the server's
            # retry-after hint; this floor keeps the guard's loop alive.
            retry_ms = config.admission_retry_after_ms
        if self.history is not None:
            from repro.verify import RecordingSpace

            space = RecordingSpace(space, self.history, client="master")
        return Master(
            self.runtime, self.cluster.master, space, self.app, self.metrics,
            eager_scheduling=config.eager_scheduling,
            straggler_timeout_ms=config.straggler_timeout_ms,
            model_time=self._model_time,
            dead_letter_poll_ms=config.dead_letter_poll_ms,
            give_up_after_ms=config.give_up_after_ms,
            checkpoint_ms=config.master_checkpoint_ms,
            checkpoint_lease_ms=config.checkpoint_lease_ms,
            space_retry_ms=retry_ms,
            space_max_retries=max(20, 8 * config.failover_max_misses),
            seed_batch=config.master_seed_batch,
            drain_batch=config.master_drain_batch,
            tracer=self.tracer,
            tenant=config.tenant,
            priority=config.priority,
            latency_hist=self.task_latency,
        )

    def attach_tenant_master(
        self,
        app: Application,
        tenant: str,
        priority: Optional[int] = None,
    ) -> Master:
        """A further tenant's :class:`Master` sharing this deployment.

        Tenants share the space, the worker pool and the ``app_id`` —
        workers load one class set and take with a tenant-wildcard
        template, so *which* tenant's task a worker gets is the space's
        deficit-round-robin dispatcher's call, weighted by
        ``config.tenant_shares``.  The caller must namespace task IDs so
        they never collide across tenants (task identity is
        ``(app_id, task_id)``).  Run the returned master from its own
        runtime process; its report is independent of every other
        tenant's.
        """
        if app.app_id != self.app.app_id:
            raise ConfigurationError(
                f"tenant app_id {app.app_id!r} != deployment app_id "
                f"{self.app.app_id!r}: workers serve exactly one class set")
        config = self.config
        host = self.cluster.master.hostname
        space: Any
        if self.sharded:
            space = self._build_router(host)
        else:
            space = SpaceProxy(
                self.cluster.network, host, self.space_address,
                metrics=self.metrics, tracer=self.tracer,
                locator=(self._space_locator(host)
                         if config.hot_standby else None),
            )
        self._tenant_proxies.append(space)
        if self.history is not None:
            from repro.verify import RecordingSpace

            space = RecordingSpace(space, self.history,
                                   client=f"master:{tenant}")
        if self.sharded or config.hot_standby:
            retry_ms: Optional[float] = config.failover_heartbeat_ms
        elif config.admission:
            retry_ms = config.admission_retry_after_ms
        else:
            retry_ms = None
        master = Master(
            self.runtime, self.cluster.master, space, app, self.metrics,
            eager_scheduling=config.eager_scheduling,
            straggler_timeout_ms=config.straggler_timeout_ms,
            model_time=self._model_time,
            dead_letter_poll_ms=config.dead_letter_poll_ms,
            give_up_after_ms=config.give_up_after_ms,
            space_retry_ms=retry_ms,
            space_max_retries=max(20, 8 * config.failover_max_misses),
            seed_batch=config.master_seed_batch,
            drain_batch=config.master_drain_batch,
            tracer=self.tracer,
            tenant=tenant,
            priority=priority,
            latency_hist=self.task_latency,
        )
        self.tenant_masters.append(master)
        return master

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> None:
        """Bring up all services and worker hosts (no tasks planned yet)."""
        if self._started:
            raise ConfigurationError("framework already started")
        self._started = True
        runtime, cluster, config = self.runtime, self.cluster, self.config
        network = cluster.network
        master_host = cluster.master.hostname

        # The master must fit the service stack in RAM (the paper's reason
        # for the 256 MB master even on the 64 MB-worker testbed).
        from repro.errors import OutOfMemoryError

        try:
            cluster.master.memory.allocate(
                f"javaspaces:{self.app.app_id}", SPACE_FOOTPRINT_MB * 1024
            )
            if config.use_jini:
                cluster.master.memory.allocate(
                    "jini-infrastructure", JINI_FOOTPRINT_MB * 1024
                )
        except OutOfMemoryError as exc:
            raise ConfigurationError(
                f"master node {master_host!r} ({cluster.master.spec}) cannot "
                f"host the Jini/JavaSpaces services: {exc}"
            ) from exc

        # JavaSpaces service: one server per shard (the classic deployment
        # is the one-shard case).  Each shard has its own transaction
        # manager — transactions are shard-local by construction.
        for i, space in enumerate(self.spaces):
            server = SpaceServer(
                runtime, space, network, self.shard_addresses[i],
                txn_manager=TransactionManager(runtime, metrics=self.metrics),
            )
            if config.hot_standby:
                # Epoch fencing is only meaningful with a supervisor that
                # can promote a rival: enable the fence check and grant the
                # primary lease the supervisor's probes will keep renewing.
                server.fencing = True
                server.grant_lease(
                    config.failover_heartbeat_ms * config.failover_max_misses)
                # With a standby that may be promoted, an ack the standby
                # never saw is a future lost write — gate on its
                # confirmation (drop the client unanswered on timeout).
                server.sync_replication = config.sync_replication
                server.repl_ack_timeout_ms = config.repl_ack_timeout_ms
            server.start()
            self.space_servers.append(server)
        self.space_server = self.space_servers[0]
        offset = config.port_offset
        if config.hot_standby:
            self.registry.expose("space.fenced_rpcs", self.total_fenced_rpcs)

        # Multi-tenancy: weighted fair-share dispatch inside every space,
        # admission control in front of every server, and per-tenant
        # read-through telemetry for tenants the config names.
        if config.tenant_shares is not None:
            for i, space in enumerate(self.spaces):
                space.configure_fair_share(
                    config.tenant_shares,
                    default_share=config.tenant_default_share)
                labels = {"shard": str(i)} if self.sharded else {}
                self.registry.expose_dict("space.fair", space.fair_stats,
                                          **labels)
        if config.admission:
            from repro.tuplespace.proxy import AdmissionConfig

            admission_config = AdmissionConfig(
                max_in_flight=config.admission_max_in_flight,
                write_rate_per_s=config.admission_write_rate_per_s,
                write_burst=config.admission_write_burst,
                queue_soft_watermark=config.admission_soft_watermark,
                queue_hard_watermark=config.admission_hard_watermark,
                shed_below_priority=config.admission_shed_below_priority,
                retry_after_ms=config.admission_retry_after_ms,
                quotas=config.admission_quotas,
                rates=config.admission_rates,
            )
            for i, server in enumerate(self.space_servers):
                server.enable_admission(admission_config)
                labels = {"shard": str(i)} if self.sharded else {}
                self.registry.expose_dict("admission",
                                          server.admission.stats, **labels)
        for tenant in self._named_tenants():
            self.registry.expose(
                "tenant.admitted",
                lambda t=tenant: self.tenant_admission(t).get("admitted", 0),
                tenant=tenant)
            self.registry.expose(
                "tenant.rejected",
                lambda t=tenant: self.tenant_admission(t).get("rejected", 0),
                tenant=tenant)
            self.registry.expose(
                "tenant.shed",
                lambda t=tenant: self.tenant_admission(t).get("shed", 0),
                tenant=tenant)
            self.registry.expose(
                "tenant.grants",
                lambda t=tenant: self.tenant_grants().get(t, 0),
                tenant=tenant)
        if config.preemption:
            from repro.core.tenancy import PreemptionGovernor

            self.governor = PreemptionGovernor(
                runtime, self, self.metrics,
                poll_ms=config.preemption_poll_ms,
                priority_cutoff=config.preemption_priority_cutoff,
            )
            self.governor.start()
            self.registry.expose_dict("preemption", self.governor.stats)

        # Code server for remote node configuration.
        self.code_server = CodeServer(runtime, network, master_host,
                                      port=CODE_SERVER_PORT + offset)
        self.code_server.publish(self.app.app_id, self.app.classload_profile())
        self.code_server.start()

        # Jini substrate: every shard registers its JavaSpaces service.
        # Sharded items carry a ``shard`` attribute so per-shard locators
        # (and the supervisor's failover re-registration) stay pinned.
        space_address = self.space_address
        if config.use_jini:
            self.lookup = LookupService(
                runtime, network, Address(master_host, LOOKUP_PORT + offset)
            )
            self.lookup.start()
            registrar = Address(master_host, LOOKUP_PORT + offset)
            if self.sharded:
                for i, address in enumerate(self.shard_addresses):
                    attributes: dict[str, Any] = {
                        "type": "JavaSpaces", "app": self.app.app_id,
                        "shard": str(i),
                    }
                    if config.hot_standby:
                        # Epoch attribute: locators prefer the
                        # highest-epoch registration post-failover.
                        attributes["epoch"] = self.spaces[i].wal.epoch
                    join = JoinManager(
                        runtime, network, self.shard_hosts[i], registrar,
                        ServiceItem(
                            f"javaspaces:{self.app.app_id}:shard{i}", address,
                            attributes,
                        ),
                        lease_ms=FOREVER,
                    )
                    join.start()
                    self._joins.append(join)
            else:
                attributes = {"type": "JavaSpaces", "app": self.app.app_id}
                if config.hot_standby:
                    attributes["epoch"] = self.space.wal.epoch
                self._joins.append(JoinManager(
                    runtime, network, master_host, registrar,
                    ServiceItem(
                        f"javaspaces:{self.app.app_id}", self.space_address,
                        attributes,
                    ),
                    lease_ms=FOREVER,
                ))
                self._joins[0].start()
            self._join = self._joins[0]

        # Hot standby: replicate the primary's commit stream and stand by
        # to serve it; the supervisor heartbeats the primary and performs
        # the promotion + re-registration when it goes quiet.
        if config.hot_standby:
            for i in range(len(self.spaces)):
                suffix = f":shard{i}" if self.sharded else ""
                # Standby and supervisor run on the master node, not the
                # shard host: they must survive (and observe) faults that
                # hit the primary's machine or its links.
                standby = HotStandby(
                    runtime, network, master_host,
                    primary_address=self.shard_addresses[i],
                    address=self.shard_standby_addresses[i],
                    name=f"space-standby:{self.app.app_id}{suffix}",
                    snapshot_every=config.wal_snapshot_every,
                    metrics=self.metrics,
                    sync_replication=config.sync_replication,
                    repl_ack_timeout_ms=config.repl_ack_timeout_ms,
                )
                standby.start()
                self.standbys.append(standby)
                supervisor = SpaceSupervisor(
                    runtime, network, master_host,
                    standby=standby,
                    primary_address=self.shard_addresses[i],
                    registrar=Address(master_host, LOOKUP_PORT + offset),
                    service_item=self._joins[i].item,
                    heartbeat_ms=config.failover_heartbeat_ms,
                    max_misses=config.failover_max_misses,
                    old_registration_id=self._joins[i].registration_id,
                    metrics=self.metrics,
                )
                supervisor.start()
                self.supervisors.append(supervisor)
            self.standby = self.standbys[0]
            self.supervisor = self.supervisors[0]
            # Standby replication lag in WAL frames (primary LSN minus
            # the standby's applied LSN) — the watchdog's
            # ``space.replication_lag`` feed.  Read-through: sampled at
            # snapshot time, free on the commit path.
            for i, standby in enumerate(self.standbys):
                labels = {"shard": str(i)} if self.sharded else {}
                self.registry.expose(
                    "space.replication_lag",
                    lambda s=self.spaces[i], r=standby: max(
                        0, s.wal.last_lsn - r.applied_lsn),
                    **labels)

        # Network management module on the master host.
        if config.monitoring:
            self.netmgmt = NetworkManagementModule(
                runtime, network, master_host, self.metrics,
                policy=config.thresholds,
                poll_interval_ms=config.poll_interval_ms,
                community=config.community,
                load_metric=config.load_metric,
                mode=config.monitoring_mode,
                port=RULEBASE_PORT + offset,
                trap_port=None if offset == 0 else 162 + offset,
                staleness_ms=config.staleness_ms,
                registry=self.registry,
            )
            self.netmgmt.start()

        # Remaining component stats join the registry as read-through
        # views; periodic snapshots mirror them into the Metrics series.
        self.registry.expose_dict("net", network.stats)
        if config.metrics_snapshot_ms is not None:
            self.telemetry.enable_snapshots(
                self.metrics, interval_ms=config.metrics_snapshot_ms)
            # SLO watchdog rides the snapshot frames: same on_advance
            # hook, zero scheduled events, deterministic firing times.
            rules = (config.slo_rules if config.slo_rules is not None
                     else None)
            if rules is None:
                from repro.telemetry import DEFAULT_RULES as rules
            if rules and self.telemetry.snapshotter is not None:
                from repro.telemetry import SloWatchdog

                self.watchdog = SloWatchdog(
                    self.registry, rules=rules, metrics=self.metrics,
                    tracer=self.tracer)
                self.watchdog.attach(self.telemetry.snapshotter)
                if self.flight is not None:
                    self.flight.watchdog = self.watchdog

        # Worker hosts on every worker node.
        netmgmt_address = self.netmgmt.address if self.netmgmt else None
        recovery = None
        if config.self_healing:
            from repro.tuplespace.proxy import RecoveryPolicy

            recovery = RecoveryPolicy(
                max_retries=config.reconnect_max_retries,
                base_backoff_ms=config.reconnect_base_ms,
                max_backoff_ms=config.reconnect_max_ms,
                call_timeout_ms=config.rpc_timeout_ms,
            )
        space_wrapper = None
        if self.history is not None:
            from repro.verify import RecordingSpace

            history = self.history
            space_wrapper = (
                lambda client, hostname:
                RecordingSpace(client, history, client=hostname))
        for node in cluster.workers:
            node.snmp_community = config.community
            # Jitter from a per-worker named stream: deterministic under a
            # fixed seed, independent across workers.  The router factory
            # captures the same stream so a rebuilt worker proxy keeps
            # drawing from it, exactly like the single-proxy path.
            recovery_rng = cluster.streams.stream(f"recovery:{node.hostname}")
            space_factory = None
            locator = None
            if self.sharded:
                space_factory = (
                    lambda hostname=node.hostname, rng=recovery_rng:
                    self._build_router(hostname, recovery=recovery, rng=rng))
            elif config.hot_standby:
                locator = self._space_locator(node.hostname)
            host = WorkerHost(
                runtime, node, self.app,
                space_address=space_address,
                code_server=Address(master_host, CODE_SERVER_PORT + offset),
                netmgmt_address=netmgmt_address,
                metrics=self.metrics,
                worker_poll_ms=config.worker_poll_ms,
                compute_real=config.compute_real,
                transactional=config.transactional_takes,
                model_time=self._model_time,
                max_task_attempts=config.max_task_attempts,
                recovery=recovery,
                task_txn_lease_ms=config.task_txn_lease_ms,
                prefetch=config.worker_prefetch,
                tracer=self.tracer,
                locator=locator,
                recovery_rng=recovery_rng,
                space_factory=space_factory,
            )
            host.space_wrapper = space_wrapper
            host.start()
            self.worker_hosts.append(host)

    def resolve_space_via_jini(self, from_host: str) -> Address:
        """Exercise discovery + lookup to find the space service."""
        registrars = DiscoveryClient(self.runtime, self.cluster.network, from_host).discover(
            timeout_ms=50.0, expected=1
        )
        if not registrars:
            raise ConfigurationError("no lookup service discovered")
        client = LookupClient(self.cluster.network, from_host, registrars[0])
        try:
            items = client.lookup({"type": "JavaSpaces", "app": self.app.app_id})
            if not items:
                raise ConfigurationError("JavaSpaces service not registered")
            return items[0].service
        finally:
            client.close()

    def start_all_workers(self) -> None:
        """Manually Start every worker (used when monitoring is off)."""
        from repro.core.signals import Signal

        for host in self.worker_hosts:
            host.handle_signal(Signal.START)

    def run(self) -> MasterReport:
        """Run the master to completion (call from a runtime process)."""
        if not self._started:
            self.start()
        if self.netmgmt is None:
            self.start_all_workers()
        report = self.master.run()
        return report

    def run_with_recovery(self) -> MasterReport:
        """Like :meth:`run`, but a killed master is restarted.

        A fresh master (new space proxy, same deterministic plan) adopts
        the latest :class:`~repro.core.entries.MasterCheckpointEntry` from
        the space and completes the job exactly-once.  Requires
        ``master_checkpoint_ms`` to be useful — without checkpoints the
        restarted master re-plans from scratch.
        """
        if not self._started:
            self.start()
        if self.netmgmt is None:
            self.start_all_workers()
        while True:
            try:
                return self.master.run()
            except MasterCrashedError:
                self.master_restarts += 1
                self.metrics.event("master-killed", app=self.app.app_id)
                self.runtime.sleep(self.config.master_restart_delay_ms)
                self.master = self._build_master()
                self.metrics.event("master-restarted", app=self.app.app_id,
                                   restarts=self.master_restarts)

    def _named_tenants(self) -> list[str]:
        """Tenants the config names anywhere — they get labeled metrics."""
        named: set[str] = set()
        config = self.config
        if config.tenant is not None:
            named.add(config.tenant)
        for mapping in (config.tenant_shares, config.admission_quotas,
                        config.admission_rates):
            if mapping:
                named.update(mapping)
        return sorted(named)

    def tenant_admission(self, tenant: str) -> dict[str, int]:
        """One tenant's admission counters, summed over every server."""
        totals = {"admitted": 0, "rejected": 0, "shed": 0}
        for server in self.space_servers:
            if server.admission is None:
                continue
            for key, value in server.admission.tenant_stats.get(
                    tenant, {}).items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def tenant_grants(self) -> dict[str, int]:
        """Fair-share take grants per tenant, summed over every shard."""
        grants: dict[str, int] = {}
        for space in self.current_spaces():
            for key, value in getattr(space, "fair_stats", {}).items():
                if key.startswith("grants:"):
                    tenant = key[len("grants:"):]
                    grants[tenant] = grants.get(tenant, 0) + value
        return grants

    def total_fenced_rpcs(self) -> int:
        """RPCs rejected by the fence across every server incarnation —
        the original primaries plus any supervisor-promoted standby."""
        total = sum(server.fenced_rpcs for server in self.space_servers)
        total += sum(
            supervisor.server.fenced_rpcs
            for supervisor in self.supervisors
            if supervisor.server is not None
        )
        return total

    def current_spaces(self) -> list[JavaSpace]:
        """The authoritative space object per shard — the original primary,
        or the promoted standby's replica after a failover."""
        spaces = list(self.spaces)
        for i, supervisor in enumerate(self.supervisors):
            if supervisor.failed_over and supervisor.server is not None:
                spaces[i] = supervisor.server.space
        return spaces

    def final_contents(self) -> list[Entry]:
        """Every entry still visible in the (post-failover) space, all
        shards merged — the consistency checker's ground truth."""
        entries: list[Entry] = []
        for space in self.current_spaces():
            entries.extend(space.contents(Entry()))
        return entries

    # -- fault-injection hooks ---------------------------------------------------

    def kill_primary_space(self) -> None:
        """Crash the primary space server: connections drop, clients must
        ride out the failover to the promoted standby."""
        if self.space_server is not None:
            self.metrics.event("space-primary-killed", app=self.app.app_id)
            self.space_server.crash()

    def kill_shard(self, shard: int) -> None:
        """Crash one shard's primary server.  Other shards keep serving;
        with ``hot_standby`` that shard's supervisor promotes its replica
        independently."""
        if not self.space_servers:
            return
        server = self.space_servers[shard]
        self.metrics.event("space-shard-killed", app=self.app.app_id,
                           shard=shard)
        server.crash()

    def kill_master(self) -> None:
        """Kill the master process mid-run (see :meth:`run_with_recovery`)."""
        self.metrics.event("master-kill-injected", app=self.app.app_id)
        self.master.crash()

    def shutdown(self) -> None:
        """Stop every loop so a simulated run drains its event heap."""
        # A master abandoned mid-run (experiments that observe workers,
        # not completion) would otherwise keep scheduling its dead-letter
        # poll forever and the simulation would never go idle.
        self.master.cancel()
        for master in self.tenant_masters:
            master.cancel()
        if self.governor is not None:
            self.governor.stop()
        for proxy in self._tenant_proxies:
            proxy.close()
        for host in self.worker_hosts:
            host.stop()
        if self.netmgmt is not None:
            self.netmgmt.stop()
        for supervisor in self.supervisors:
            supervisor.stop()
        for standby in self.standbys:
            standby.stop()
        if self._master_proxy is not None:
            self._master_proxy.close()
        if self.lookup is not None:
            self.lookup.stop()
        if self.code_server is not None:
            self.code_server.stop()
        for server in self.space_servers:
            server.stop()

    # -- observation -----------------------------------------------------------------------

    def worker_times_ms(self) -> dict[str, Optional[float]]:
        """Per-worker computation time (first take → last result)."""
        return {h.node.hostname: h.worker_time_ms() for h in self.worker_hosts}

    def max_worker_time_ms(self) -> float:
        times = [t for t in self.worker_times_ms().values() if t is not None]
        return max(times) if times else 0.0
