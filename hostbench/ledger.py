"""Per-layer host-CPU ledger, measured from outside the program.

:class:`Ledger` wraps the public functions of each layer's modules (and
a few private entry points that hold a layer's work) with spans read on
the calling thread's CPU clock (``time.thread_time_ns``).  Each thread
keeps its own span stack, and CPU is charged at every span boundary to
the span on top of the stack, so a layer's *self* time never includes
its children.  The per-thread clock matters because simulated processes
block inside public calls: a proxy ``take`` waits for its reply while
other processes run, and a wall-clock span would charge the caller for
their work.

Accounting is closed:

* the kernel thread's ``run``/``run_until_idle`` is a ``sim`` span;
* every simulated process runs under a root span of the layer that owns
  it (the module its function comes from), so CPU no inner span claims
  on its thread — server dispatch, say — goes to that layer;
* a kernel event runs under a span of the layer that scheduled it, so a
  network delivery is ``net`` work and a WAL group flush ``wal`` work;
* the codec functions are wrapped in every module that binds them by
  name (``tuplespace.proxy``, ``tuplespace.space``, ``net.network``).

The wrappers never call into the kernel, so they cannot move virtual
time: the traced run reproduces the untraced run's exact counts, which
the benchmark checks on every run.  :meth:`Ledger.snapshot` flushes every
live thread's pending CPU (read through its CPU-clock id) and returns
cumulative totals; the benchmark takes one at each job boundary, so each
job's spans are tagged with the job they belong to.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from typing import Any, Callable, Optional

__all__ = ["LAYERS", "MODULE_LAYERS", "Ledger"]

#: Ledger layers, named after the repo's modules.  ``app`` is the
#: benchmark's own Application; it must stay flat across framework PRs.
LAYERS = ("sim", "net", "codec", "space", "proxy", "sharding", "wal",
          "worker", "master", "snmp", "netmgmt", "node", "jini",
          "telemetry", "app")

#: Module → layer.  Every public function and public method of a class
#: defined in one of these modules is wrapped (less :data:`_SKIP`).
MODULE_LAYERS = {
    "repro.sim.kernel": "sim",
    "repro.sim.condition": "sim",
    "repro.runtime.simulated": "sim",
    "repro.net.network": "net",
    "repro.net.latency": "net",
    "repro.util.codec": "codec",
    "repro.util.serialization": "codec",
    "repro.tuplespace.space": "space",
    "repro.tuplespace.transaction": "space",
    "repro.tuplespace.lease": "space",
    "repro.tuplespace.events": "space",
    "repro.tuplespace.proxy": "proxy",
    "repro.tuplespace.sharding": "sharding",
    "repro.tuplespace.wal": "wal",
    "repro.tuplespace.durable": "wal",
    "repro.tuplespace.failover": "wal",
    "repro.core.worker": "worker",
    "repro.core.config_engine": "worker",
    "repro.core.states": "worker",
    "repro.core.codeserver": "worker",
    "repro.core.master": "master",
    "repro.snmp.agent": "snmp",
    "repro.snmp.manager": "snmp",
    "repro.snmp.mib": "snmp",
    "repro.snmp.oid": "snmp",
    "repro.snmp.pdu": "snmp",
    "repro.snmp.trap": "snmp",
    "repro.core.netmgmt": "netmgmt",
    "repro.core.inference": "netmgmt",
    "repro.core.signals": "netmgmt",
    "repro.node.cpu": "node",
    "repro.node.loadgen": "node",
    "repro.node.machine": "node",
    "repro.node.memory": "node",
    "repro.jini.discovery": "jini",
    "repro.jini.join": "jini",
    "repro.jini.lookup": "jini",
    "repro.jini.sdm": "jini",
    "repro.core.metrics": "telemetry",
    "repro.telemetry": "telemetry",
    "repro.telemetry.trace": "telemetry",
    "repro.telemetry.registry": "telemetry",
    "repro.telemetry.blackbox": "telemetry",
}

#: Modules whose functions are *not* swept: the codec is wrapped at its
#: binding points instead, and the simulated runtime's one-line
#: delegates would only double the kernel's spans.
_NO_SWEEP = {"repro.util.codec", "repro.util.serialization",
             "repro.runtime.simulated"}

#: Public functions left unwrapped: hot helpers called only from inside
#: their own layer (their cost stays with that layer through its caller)
#: and trivial accessors.  Wrapping them would mostly measure the
#: wrapper: each span costs two per-thread clock reads.
_SKIP = {
    ("repro.sim.kernel", "SimKernel.now"),
    ("repro.sim.kernel", "SimKernel.current"),
    ("repro.sim.kernel", "SimKernel.spawn"),        # wrapped specially
    ("repro.sim.kernel", "SimKernel.call_later"),   # wrapped specially
    ("repro.sim.kernel", "EventHandle.cancel"),
    ("repro.sim.condition", "SimLock.acquire"),
    ("repro.sim.condition", "SimLock.release"),
    ("repro.sim.condition", "SimCondition.acquire"),
    ("repro.sim.condition", "SimCondition.release"),
    ("repro.net.network", "MessageQueue.put"),
    ("repro.net.network", "MessageQueue.get"),
    ("repro.net.latency", "LatencyModel.delay_ms"),
    ("repro.net.latency", "LatencyModel.transmission_ms"),
    ("repro.net.latency", "LatencyModel.drops"),
    ("repro.tuplespace.lease", "Lease.is_expired"),
    ("repro.tuplespace.lease", "Lease.remaining_ms"),
    ("repro.tuplespace.wal", "WalStore.last_lsn"),
    ("repro.tuplespace.wal", "WalStore.pending"),
    ("repro.tuplespace.proxy", "SpaceProxy.batch"),
    ("repro.tuplespace.proxy", "ProxyBatch.write"),
    ("repro.tuplespace.proxy", "ProxyBatch.write_all"),
    ("repro.tuplespace.proxy", "ProxyBatch.read"),
    ("repro.tuplespace.proxy", "ProxyBatch.take"),
    ("repro.tuplespace.proxy", "ProxyBatch.take_multiple"),
    ("repro.tuplespace.proxy", "ProxyBatch.count"),
    ("repro.tuplespace.proxy", "ProxyBatch.txn_create"),
    ("repro.tuplespace.proxy", "ProxyBatch.commit"),
    ("repro.tuplespace.proxy", "ProxyBatch.abort"),
    ("repro.core.config_engine",
     "RemoteNodeConfigurationEngine.wait_for_clearance"),
    ("repro.node.cpu", "CpuModel.execute"),
    ("repro.node.cpu", "CpuModel.background_percent"),
    ("repro.node.cpu", "CpuModel.foreign_percent"),
    ("repro.node.cpu", "CpuModel.total_percent"),
    ("repro.node.cpu", "CpuModel.external_percent"),
    ("repro.node.cpu", "UtilizationRecorder.record"),
    ("repro.telemetry.registry", "Histogram.observe"),
    ("repro.telemetry.registry", "Counter.inc"),
}

#: The benchmark application's methods that form the ``app`` layer; its
#: cost-model methods only return numbers and stay unwrapped.
APP_METHODS = ("plan", "execute", "aggregate")

#: Private entry points that hold a layer's work and are not reached
#: through a wrapped public function of the same layer.
_EXTRA = {
    ("repro.core.worker", "WorkerHost._one_task"),
    ("repro.core.worker", "WorkerHost._task_batch"),
    ("repro.tuplespace.proxy", "SpaceProxy._call_once"),
    ("repro.tuplespace.proxy", "SpaceProxy._batch_once"),
}

#: Codec functions, per binding module: (module, global name, kind).
_CODEC_BINDINGS = (
    ("repro.tuplespace.proxy", "encode_entry", "encode"),
    ("repro.tuplespace.proxy", "decode_any", "decode"),
    ("repro.tuplespace.space", "encode_entry", "encode"),
    ("repro.tuplespace.space", "serialize", "encode"),
    ("repro.tuplespace.space", "decode_any", "decode"),
    ("repro.net.network", "serialize", "encode"),
    ("repro.net.network", "deserialize", "decode"),
)

#: Space operations that take entries (for ``space.empty_take_frac``).
_TAKES = {"take", "take_if_exists", "take_encoded", "take_multiple",
          "take_multiple_encoded"}

#: Named simulated processes whose owner is not their function's module.
_PROCESS_OWNERS = {"hostbench-master": "master"}

_SIM, _SHARDING = LAYERS.index("sim"), LAYERS.index("sharding")

#: Wire ops that wait server-side for a matching entry when given a
#: non-zero ``timeout_ms``.
_PARKING_OPS = {"read", "exists", "take", "take_multiple"}


def _may_park(op: str, args: dict[str, Any]) -> bool:
    """Whether an RPC may wait server-side for an entry.  Its wait is
    then the op's own budget, not RPC latency, so it is not sampled."""
    return op in _PARKING_OPS and args.get("timeout_ms", 0) != 0


def _run_action(action: Callable[[], None]) -> None:
    action()


def _new_thread(threads: dict) -> list:
    """Register the calling thread: ``[span stack, CPU ns at the last
    span boundary, CPU-clock id, alive]``."""
    ident = threading.get_ident()
    state = threads[ident] = [[], time.thread_time_ns(),
                              time.pthread_getcpuclockid(ident), True]
    return state


class Ledger:
    """Installs the wrappers, keeps the accumulators, takes snapshots.

    A *record* is ``[layer index, self ns, calls, outer calls]`` for one
    wrapped function (or one root/event span kind); outer calls are the
    calls entered from another layer.  Counters that a call count does
    not give are kept in :attr:`counts` and :attr:`rpc_waits_ms`.
    """

    def __init__(self) -> None:
        self.records: dict[str, list] = {}
        self._threads: dict[int, list] = {}
        self._undo: list[tuple[Any, str, Any]] = []
        self.counts = {"encoded_bytes": 0, "space_takes": 0,
                       "space_empty_takes": 0, "shard_rpcs": 0,
                       "wal_bytes": 0, "proxy_retries": 0,
                       "sharding_retries": 0}
        #: Virtual ms each proxy RPC that cannot park waited for its reply.
        self.rpc_waits_ms: list[float] = []
        #: The kernel clock the RPC-wait hook reads; set by the benchmark
        #: once a runtime exists (``None``: waits are not sampled).
        self.runtime_now: Optional[Callable[[], float]] = None
        self.installed = False

    # -- records -----------------------------------------------------------------

    def _record(self, key: str, layer: str) -> list:
        rec = self.records.get(key)
        if rec is None:
            rec = self.records[key] = [LAYERS.index(layer), 0, 0, 0]
        return rec

    # -- wrappers ----------------------------------------------------------------

    def _span(self, fn: Callable, rec: list,
              hook: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a span charged to ``rec``.  ``hook(stack,
        outer, args, kwargs)`` may return a callback run on the result."""
        threads = self._threads
        get_ident = threading.get_ident
        clock = time.thread_time_ns
        layer = rec[0]

        if hook is None:
            def span(*args: Any, **kwargs: Any) -> Any:
                state = threads.get(get_ident()) or _new_thread(threads)
                stack = state[0]
                now = clock()
                if stack:
                    top = stack[-1]
                    top[1] += now - state[1]
                    if top[0] != layer:
                        rec[3] += 1
                else:
                    rec[3] += 1
                rec[2] += 1
                stack.append(rec)
                state[1] = now
                try:
                    return fn(*args, **kwargs)
                finally:
                    now = clock()
                    rec[1] += now - state[1]
                    stack.pop()
                    state[1] = now
            return span

        def hooked(*args: Any, **kwargs: Any) -> Any:
            state = threads.get(get_ident()) or _new_thread(threads)
            stack = state[0]
            now = clock()
            outer = True
            if stack:
                top = stack[-1]
                top[1] += now - state[1]
                outer = top[0] != layer
            rec[2] += 1
            if outer:
                rec[3] += 1
            done = hook(stack, outer, args, kwargs)
            stack.append(rec)
            state[1] = now
            try:
                result = fn(*args, **kwargs)
            finally:
                now = clock()
                rec[1] += now - state[1]
                stack.pop()
                state[1] = now
            if done is not None:
                done(result)
            return result

        return hooked

    def _root(self, fn: Callable[[], Any], rec: list) -> Callable[[], Any]:
        """A simulated process body run under its owner layer's root span.

        A process is a fresh OS thread, whose CPU clock starts at zero:
        what it shows on entry is the thread's start-up, charged to
        ``sim`` (the kernel's process creation)."""
        threads = self._threads
        clock = time.thread_time_ns
        start_rec = self._record("sim:<thread-start>", "sim")

        def root() -> Any:
            state = _new_thread(threads)
            start_rec[1] += state[1]
            start_rec[2] += 1
            rec[2] += 1
            rec[3] += 1
            state[0].append(rec)
            state[1] = clock()
            try:
                return fn()
            finally:
                now = clock()
                state[0][-1][1] += now - state[1]
                state[0].pop()
                state[1] = now
                state[3] = False
                threads.pop(threading.get_ident(), None)

        return root

    def _owner(self, fn: Callable, name: str) -> Optional[str]:
        if name in _PROCESS_OWNERS:
            return _PROCESS_OWNERS[name]
        target = getattr(fn, "__func__", fn)
        module = getattr(target, "__module__", None) or ""
        while module and module not in MODULE_LAYERS:
            module = module.rpartition(".")[0]
        return MODULE_LAYERS.get(module)

    def _install_kernel(self) -> None:
        from repro.sim.kernel import SimKernel

        ledger = self
        spawn, call_later = SimKernel.spawn, SimKernel.call_later
        spawn_rec = self._record("sim:SimKernel.spawn", "sim")
        later_rec = self._record("sim:SimKernel.call_later", "sim")
        roots = {layer: self._record(f"{layer}:<process>", layer)
                 for layer in LAYERS}
        # One event runner per layer, built once: scheduling an event
        # then costs a ``partial``, not a fresh span.
        runners = [self._span(_run_action,
                              self._record(f"{layer}:<event>", layer))
                   for layer in LAYERS]
        threads = self._threads
        get_ident = threading.get_ident

        def traced_spawn(self: Any, fn: Callable[[], Any],
                         name: str = "proc") -> Any:
            owner = ledger._owner(fn, name)
            if owner is not None:
                fn = ledger._root(fn, roots[owner])
            return spawn(self, fn, name)

        def traced_call_later(self: Any, delay_ms: float,
                              action: Callable[[], None]) -> Any:
            # The event runs on the kernel thread under a span of the
            # layer that scheduled it: the frame below this call's own
            # ``sim`` span, or ``sim`` when nothing is below it.
            state = threads.get(get_ident())
            stack = state[0] if state is not None else ()
            layer = stack[-2][0] if len(stack) > 1 else _SIM
            return call_later(self, delay_ms,
                              functools.partial(runners[layer], action))

        self._patch(SimKernel, "spawn", self._span(traced_spawn, spawn_rec))
        self._patch(SimKernel, "call_later",
                    self._span(traced_call_later, later_rec))

    def _hooks(self, module: str, qualname: str) -> Optional[Callable]:
        counts = self.counts
        if module == "repro.tuplespace.space" and \
                qualname.partition(".")[2] in _TAKES:
            def take_hook(stack, outer, args, kwargs):
                if not outer:
                    return None

                def done(result: Any) -> None:
                    counts["space_takes"] += 1
                    if not result:
                        counts["space_empty_takes"] += 1
                return done
            return take_hook
        if qualname in ("SpaceProxy._call_once", "SpaceProxy._batch_once"):
            waits = self.rpc_waits_ms

            def rpc_hook(stack, outer, args, kwargs):
                if any(rec[0] == _SHARDING for rec in stack):
                    counts["shard_rpcs"] += 1
                now = self.runtime_now
                ops = [args[1:3]] if len(args) == 3 else args[1]
                if now is None or any(_may_park(op, a) for op, a in ops):
                    return None
                sent = now()
                return lambda _result: waits.append(now() - sent)
            return rpc_hook
        if qualname == "WriteAheadLog.append":
            def wal_hook(stack, outer, args, kwargs):
                ops = args[1] if len(args) > 1 else kwargs["ops"]
                counts["wal_bytes"] += sum(
                    len(part) for op in ops for part in op
                    if isinstance(part, (bytes, bytearray, memoryview)))
                return None
            return wal_hook
        if qualname == "Metrics.event":
            def event_hook(stack, outer, args, kwargs):
                if len(args) > 1 and args[1] == "proxy-retry":
                    counts["proxy_retries"] += 1
                    if any(rec[0] == _SHARDING for rec in stack):
                        counts["sharding_retries"] += 1
                return None
            return event_hook
        return None

    def _sweep(self, module_name: str, layer: str) -> None:
        module = importlib.import_module(module_name)
        for name, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module_name:
                continue
            if inspect.isfunction(obj):
                if not name.startswith("_"):
                    self._wrap(module, name, obj, module_name, name, layer)
            elif inspect.isclass(obj) and not name.startswith("_"):
                for attr, member in list(vars(obj).items()):
                    qualname = f"{obj.__name__}.{attr}"
                    if not inspect.isfunction(member):
                        continue
                    if attr.startswith("_") and \
                            (module_name, qualname) not in _EXTRA:
                        continue
                    self._wrap(obj, attr, member, module_name, qualname,
                               layer)

    def _wrap(self, owner: Any, attr: str, fn: Callable, module: str,
              qualname: str, layer: str) -> None:
        if (module, qualname) in _SKIP or inspect.isgeneratorfunction(fn):
            return
        rec = self._record(f"{layer}:{qualname}", layer)
        self._patch(owner, attr, self._span(fn, rec,
                                            self._hooks(module, qualname)))

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr]
        value.__wrapped__ = original
        for name in ("__name__", "__qualname__", "__doc__"):
            setattr(value, name, getattr(original, name, None))
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def install(self, app_class: type) -> None:
        """Wrap every layer, and ``app_class``'s :data:`APP_METHODS` as
        the ``app`` layer."""
        if self.installed:
            raise RuntimeError("ledger already installed")
        self.installed = True
        self._install_kernel()
        for module_name, layer in MODULE_LAYERS.items():
            if module_name not in _NO_SWEEP:
                self._sweep(module_name, layer)
        from repro.runtime.simulated import SimulatedRuntime

        for attr in ("run", "run_until_idle"):
            self._wrap(SimulatedRuntime, attr, vars(SimulatedRuntime)[attr],
                       "repro.runtime.simulated", f"SimulatedRuntime.{attr}",
                       "sim")
        counts = self.counts
        for module_name, name, kind in _CODEC_BINDINGS:
            module = importlib.import_module(module_name)
            fn = vars(module)[name]
            short = module_name.rpartition(".")[2]
            rec = self._record(f"codec:{kind}.{short}.{name}", "codec")
            hook = None
            if kind == "encode":
                def hook(stack, outer, args, kwargs):
                    def done(result: Any) -> None:
                        counts["encoded_bytes"] += len(result)
                    return done
            self._patch(module, name, self._span(fn, rec, hook))
        for attr in APP_METHODS:
            self._wrap(app_class, attr, vars(app_class)[attr],
                       app_class.__module__, f"{app_class.__name__}.{attr}",
                       "app")

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self.installed = False

    # -- reading --------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Flush every live thread's pending CPU to its top span and
        return cumulative totals (subtract two snapshots for a window).

        The snapshot's own cost is kept out of the ledger: the calling
        thread's clock mark moves past it before returning."""
        me = threading.get_ident()
        for ident, state in list(self._threads.items()):
            if not state[0] or not state[3]:
                continue
            if ident == me:
                now = time.thread_time_ns()
            else:
                try:
                    now = time.clock_gettime_ns(state[2])
                except OSError:
                    state[3] = False
                    continue
            state[0][-1][1] += now - state[1]
            state[1] = now
        snap = {
            "records": {key: (rec[1], rec[2], rec[3])
                        for key, rec in self.records.items()},
            "counts": dict(self.counts),
            "rpc_waits": len(self.rpc_waits_ms),
        }
        state = self._threads.get(me)
        if state is not None:
            state[1] = time.thread_time_ns()
        return snap

    @staticmethod
    def window(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
        """Per-record (self ns, calls, outer calls) and counter deltas."""
        records = {}
        for key, (self_ns, calls, outer) in after["records"].items():
            b = before["records"].get(key, (0, 0, 0))
            if calls - b[1] or self_ns - b[0]:
                records[key] = (self_ns - b[0], calls - b[1], outer - b[2])
        counts = {key: value - before["counts"].get(key, 0)
                  for key, value in after["counts"].items()}
        return {"records": records, "counts": counts,
                "rpc_waits": (before["rpc_waits"], after["rpc_waits"])}

    @staticmethod
    def by_layer(window: dict[str, Any]) -> dict[str, int]:
        """Self ns per layer over a window."""
        totals = {layer: 0 for layer in LAYERS}
        for key, (self_ns, _calls, _outer) in window["records"].items():
            totals[key.partition(":")[0]] += self_ns
        return totals
