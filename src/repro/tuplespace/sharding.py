"""Sharded tuple space: consistent-hash partitioning with scatter-gather.

One :class:`~repro.tuplespace.proxy.SpaceServer` is a throughput ceiling:
every entry, every drain reply, every transaction crosses one host's
link.  This module splits the space into N independent shards and puts a
:class:`ShardRouter` — a drop-in for :class:`SpaceProxy` — in front:

* **Routing rule.**  An entry (or template) with a non-``None``
  :meth:`~repro.tuplespace.entry.Entry.shard_key` routes to
  ``ring.shard_for(key)``.  An *entry* whose key is ``None`` is written
  to its class's home shard (``shard_for("class:<name>")``); a *template*
  whose key is ``None`` is a wildcard and scatter-gathers.
* **Scatter-gather.**  Wildcard ``take``/``read`` scan the shards
  non-blockingly from a sticky per-client cursor, first match wins; when
  every shard is empty and wait budget remains, the router camps a
  blocking non-consuming ``read`` on a rotating shard for one
  ``scatter_block_ms`` quantum, then rescans.  ``take_multiple`` merges
  across shards up to its cap per scan round; ``contents``/``count``
  merge/sum in shard-index order.  Every order is a pure function of the
  template and cursor, so runs replay deterministically.
* **Shard-local transactions.**  A :class:`ShardedTransaction` is born
  unbound and pins itself to the shard of its first operation; all later
  operations under it must hit the same shard (cross-shard use raises
  :class:`~repro.errors.SpaceError`), so commit/abort stay single-shard.
  A wildcard take under an unbound transaction probes for a non-empty
  shard first and binds there; if the bound shard runs dry the router
  aborts and transparently rebinds — the holder of the handle never sees
  the move.
* **Batched prefetch.**  :class:`ShardedBatch` mirrors
  :class:`~repro.tuplespace.proxy.ProxyBatch`: consecutive same-shard
  operations ride one pipelined RPC, and the worker's steady-state
  write_all + commit + txn_create + take_multiple cycle collapses to a
  single RPC to the hot shard once the router has found where tasks live.

With a single shard the router degenerates to a pass-through (every key
routes to shard 0 with the original blocking timeouts), so ``shards=1``
reproduces the unsharded wire behaviour.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from hashlib import blake2b
from typing import Any, Callable, Optional

from repro.errors import AdmissionError, SpaceError
from repro.net.address import Address
from repro.net.network import Network
from repro.tuplespace.entry import Entry
from repro.tuplespace.lease import FOREVER
from repro.tuplespace.proxy import (
    ProxyBatch,
    RecoveryPolicy,
    RemoteTransaction,
    SpaceProxy,
)

__all__ = ["stable_hash", "HashRing", "ShardRouter", "ShardedTransaction",
           "ShardedBatch"]


def stable_hash(key: Any) -> int:
    """Process-independent 64-bit hash of a routable key.

    Python's builtin ``hash`` is salted per process, so it would route
    the same ``task_id`` to different shards on master and workers.  The
    key is type-tagged before hashing so ``1`` and ``"1"`` cannot
    collide by repr.
    """
    data = f"{type(key).__name__}:{key!r}".encode()
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


class HashRing:
    """Consistent-hash ring over ``shards`` with virtual nodes.

    Each shard owns ``vnodes`` points on a 64-bit ring; a key belongs to
    the first point clockwise of its hash.  Adding shard ``N`` only adds
    points, so keys either stay put or move *to the new shard* — the
    remapped fraction concentrates near ``1/(N+1)``.
    """

    def __init__(self, shards: int, vnodes: int = 64) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1: {shards}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1: {vnodes}")
        self.shards = shards
        self.vnodes = vnodes
        points = sorted(
            (stable_hash(f"shard:{s}:vnode:{v}"), s)
            for s in range(shards)
            for v in range(vnodes)
        )
        self._hashes = [h for h, _ in points]
        self._owners = [s for _, s in points]

    def shard_for(self, key: Any) -> int:
        if self.shards == 1:
            return 0
        index = bisect_right(self._hashes, stable_hash(key)) % len(self._hashes)
        return self._owners[index]


#: ``txn_id`` of a transaction that has no server-side counterpart yet.
#: A dict on purpose: callers that guard "never created server-side" with
#: ``isinstance(txn.txn_id, dict)`` (the worker's batch carry does) treat
#: an unbound sharded transaction exactly like an unflushed batch_ref.
_UNBOUND = {"unbound": True}


class ShardedTransaction:
    """A lazily bound, shard-pinned transaction handle.

    Matches the :class:`~repro.tuplespace.proxy.RemoteTransaction`
    surface (``txn_id``/``completed``/``commit``/``abort``/context
    manager) so worker and master code cannot tell the difference.
    """

    def __init__(self, router: "ShardRouter", timeout_ms: float = FOREVER) -> None:
        self._router = router
        self._timeout_ms = timeout_ms
        self._remote: Optional[RemoteTransaction] = None
        self.shard: Optional[int] = None
        self.completed = False

    @property
    def txn_id(self) -> Any:
        return self._remote.txn_id if self._remote is not None else dict(_UNBOUND)

    def _bind(self, shard: int) -> RemoteTransaction:
        """Pin to ``shard`` (creating the server transaction on demand)."""
        if self._remote is not None:
            if self.shard != shard:
                raise SpaceError(
                    f"cross-shard operation under a shard-local transaction: "
                    f"bound to shard {self.shard}, operation routes to "
                    f"shard {shard}")
            return self._remote
        self._remote = self._router._proxies[shard].transaction(self._timeout_ms)
        self.shard = shard
        return self._remote

    def _adopt(self, shard: int, remote: RemoteTransaction) -> None:
        """Bind to a transaction created inside a pipelined batch."""
        self._remote = remote
        self.shard = shard

    def _unbind_quietly(self) -> None:
        """Abort the current server transaction (it took nothing — the
        probe loop only rebinds after an empty take) and return to the
        unbound state so the next attempt can pin a different shard."""
        remote, self._remote, self.shard = self._remote, None, None
        if remote is None or remote.completed:
            return
        try:
            remote.abort()
        except SpaceError:
            pass  # expired server-side; nothing held either way

    def commit(self) -> None:
        if self._remote is not None and not self._remote.completed:
            self._remote.commit()
        self.completed = True

    def abort(self) -> None:
        if self._remote is not None and not self._remote.completed:
            self._remote.abort()
        self.completed = True

    def __enter__(self) -> "ShardedTransaction":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if self.completed:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()


class ShardedBatch:
    """Pipelined batch over a :class:`ShardRouter`.

    Mirrors :class:`~repro.tuplespace.proxy.ProxyBatch`: record
    operations, then :meth:`flush` returns per-op values in order and
    re-raises the first failure.  Consecutive operations that resolve to
    the same shard ride one :class:`ProxyBatch` RPC; wildcard operations
    execute as scatter-gather at their position in the sequence.

    A trailing ``txn_create`` + wildcard ``take``/``take_multiple`` pair
    (the worker's prefetch) is executed as one unit through the router's
    probe/bind loop — and when the probe's first attempt lands on the
    same shard as the preceding run (the steady-state hot path), the
    whole cycle is a single RPC.
    """

    def __init__(self, router: "ShardRouter") -> None:
        self._router = router
        self._ops: list[dict[str, Any]] = []

    def __len__(self) -> int:
        return len(self._ops)

    def _add(self, op: dict[str, Any]) -> int:
        self._ops.append(op)
        return len(self._ops) - 1

    # -- the batchable operation set ----------------------------------------

    def write(self, entry: Entry, txn: Any = None,
              lease_ms: float = FOREVER, requeue: bool = False) -> int:
        return self._add({"kind": "write", "entry": entry, "txn": txn,
                          "lease_ms": lease_ms, "requeue": requeue})

    def write_all(self, entries: list[Entry], txn: Any = None,
                  lease_ms: float = FOREVER, requeue: bool = False) -> int:
        return self._add({"kind": "write_all", "entries": list(entries),
                          "txn": txn, "lease_ms": lease_ms,
                          "requeue": requeue})

    def read(self, template: Entry, txn: Any = None,
             timeout_ms: Optional[float] = 0.0) -> int:
        return self._add({"kind": "read", "template": template, "txn": txn,
                          "timeout_ms": timeout_ms})

    def take(self, template: Entry, txn: Any = None,
             timeout_ms: Optional[float] = 0.0) -> int:
        return self._add({"kind": "take", "template": template, "txn": txn,
                          "timeout_ms": timeout_ms})

    def take_multiple(self, template: Entry, max_entries: int,
                      txn: Any = None,
                      timeout_ms: Optional[float] = 0.0) -> int:
        return self._add({"kind": "take_multiple", "template": template,
                          "max_entries": max_entries, "txn": txn,
                          "timeout_ms": timeout_ms})

    def count(self, template: Entry) -> int:
        return self._add({"kind": "count", "template": template, "txn": None})

    def txn_create(self, timeout_ms: float = FOREVER) -> ShardedTransaction:
        """Open a transaction inside this batch.

        The handle stays unbound until an operation pins it to a shard;
        when its first use is the trailing prefetch take, creation rides
        that take's RPC (the ``batch_ref`` trick, per shard)."""
        txn = ShardedTransaction(self._router, timeout_ms)
        self._add({"kind": "txn_create", "txn": txn,
                   "timeout_ms": timeout_ms})
        return txn

    def commit(self, txn: ShardedTransaction) -> int:
        return self._add({"kind": "commit", "txn": txn})

    def abort(self, txn: ShardedTransaction) -> int:
        return self._add({"kind": "abort", "txn": txn})

    # -- execution -----------------------------------------------------------

    def flush(self) -> list[Any]:
        ops, self._ops = self._ops, []
        if not ops:
            return []
        results: list[Any] = [None] * len(ops)
        tail_start = self._split_tail(ops)
        pending = self._run_head(ops[:tail_start], results)
        if tail_start < len(ops):
            self._run_tail(ops, tail_start, results, pending)
        elif pending is not None:
            self._flush_run(pending, results)
        return results

    def _split_tail(self, ops: list[dict[str, Any]]) -> int:
        """Index where the trailing prefetch group starts (or ``len``).

        The group is a final *wildcard* ``take``/``take_multiple`` under
        an unbound :class:`ShardedTransaction`, plus — if adjacent — the
        ``txn_create`` that minted it."""
        last = ops[-1]
        if last["kind"] not in ("take", "take_multiple"):
            return len(ops)
        txn = last.get("txn")
        if not isinstance(txn, ShardedTransaction) or txn._remote is not None:
            return len(ops)
        if self._router._template_shard(last["template"]) is not None:
            return len(ops)
        if (len(ops) >= 2 and ops[-2]["kind"] == "txn_create"
                and ops[-2]["txn"] is txn):
            return len(ops) - 2
        return len(ops) - 1

    def _run_head(self, head: list[dict[str, Any]],
                  results: list[Any]) -> Optional[tuple]:
        """Execute the head; return the final unflushed same-shard run so
        the tail can try to piggyback on its RPC."""
        router = self._router
        pending: Optional[tuple] = None  # (shard, ProxyBatch, [(op_i, pb_i, op)])
        for index, op in enumerate(head):
            shard = self._resolve_shard(op)
            if shard is None:
                if self._is_local_noop(op):
                    results[index] = self._scatter_op(op)
                    continue
                if pending is not None:
                    self._flush_run(pending, results)
                    pending = None
                results[index] = self._scatter_op(op)
                continue
            if pending is not None and pending[0] != shard:
                self._flush_run(pending, results)
                pending = None
            if pending is None:
                pending = (shard, router._proxies[shard].batch(), [])
            pb_index = self._emit(pending[1], op, shard)
            pending[2].append((index, pb_index, op))
        return pending

    def _resolve_shard(self, op: dict[str, Any]) -> Optional[int]:
        """The shard a head operation belongs to (``None`` = scatter)."""
        router = self._router
        kind = op["kind"]
        txn = op.get("txn")
        if kind == "write":
            return router._entry_shard(op["entry"])
        if kind == "write_all":
            shards = {router._entry_shard(e) for e in op["entries"]}
            if len(shards) == 1:
                return shards.pop()
            if txn is not None:
                raise SpaceError(
                    "cross-shard write_all under a shard-local transaction")
            return None
        if kind in ("read", "take", "take_multiple"):
            shard = router._template_shard(op["template"])
            if shard is not None:
                return shard
            if isinstance(txn, ShardedTransaction) and txn._remote is not None:
                return txn.shard  # wildcard under a pinned txn stays local
            return None
        if kind in ("commit", "abort"):
            if isinstance(txn, ShardedTransaction):
                # Unbound: never materialized server-side, completing it
                # is a client-local no-op (handled by _scatter_op).
                return txn.shard if txn._remote is not None else None
            return None
        if kind == "txn_create":
            # Creation is lazy — the first operation that uses the handle
            # pins it.  Nothing to send here.
            return None
        raise SpaceError(f"unknown batched operation {kind!r}")

    @staticmethod
    def _is_local_noop(op: dict[str, Any]) -> bool:
        """True for operations with no server-side work: deferred
        txn_create, and commit/abort of a still-unbound transaction.
        These need no sequencing against a pending same-shard run."""
        kind = op["kind"]
        if kind == "txn_create":
            return True
        txn = op.get("txn")
        return (kind in ("commit", "abort")
                and isinstance(txn, ShardedTransaction)
                and txn._remote is None)

    def _scatter_op(self, op: dict[str, Any]) -> Any:
        """Execute one non-routable operation at its sequence position."""
        router = self._router
        kind = op["kind"]
        txn = op.get("txn")
        if kind == "txn_create":
            return None  # bound (and created) on first use
        if kind in ("commit", "abort"):
            if txn is not None:
                (txn.commit if kind == "commit" else txn.abort)()
            return None
        if kind == "write_all":
            return {"count": router.write_all(op["entries"], txn=txn,
                                              lease_ms=op["lease_ms"],
                                              requeue=op.get("requeue", False))}
        if kind == "read":
            return router.read(op["template"], txn=txn,
                               timeout_ms=op["timeout_ms"])
        if kind == "take":
            return router.take(op["template"], txn=txn,
                               timeout_ms=op["timeout_ms"])
        if kind == "take_multiple":
            return router.take_multiple(op["template"], op["max_entries"],
                                        txn=txn, timeout_ms=op["timeout_ms"])
        raise SpaceError(f"unknown batched operation {kind!r}")

    def _emit(self, pb: ProxyBatch, op: dict[str, Any], shard: int) -> int:
        """Append one resolved operation to a per-shard pipeline."""
        kind = op["kind"]
        txn = op.get("txn")
        remote = None
        if isinstance(txn, ShardedTransaction):
            remote = txn._bind(shard)
        elif txn is not None:
            remote = txn
        if kind == "write":
            return pb.write(op["entry"], txn=remote, lease_ms=op["lease_ms"],
                            requeue=op.get("requeue", False))
        if kind == "write_all":
            return pb.write_all(op["entries"], txn=remote,
                                lease_ms=op["lease_ms"],
                                requeue=op.get("requeue", False))
        if kind == "read":
            return pb.read(op["template"], txn=remote,
                           timeout_ms=op["timeout_ms"])
        if kind == "take":
            return pb.take(op["template"], txn=remote,
                           timeout_ms=op["timeout_ms"])
        if kind == "take_multiple":
            return pb.take_multiple(op["template"], op["max_entries"],
                                    txn=remote, timeout_ms=op["timeout_ms"])
        if kind == "commit":
            return pb.commit(remote)
        if kind == "abort":
            return pb.abort(remote)
        raise SpaceError(f"unknown batched operation {kind!r}")

    def _flush_run(self, pending: tuple, results: list[Any]) -> None:
        shard, pb, mapping = pending
        values = pb.flush()
        for op_index, pb_index, op in mapping:
            results[op_index] = values[pb_index]
            txn = op.get("txn")
            if op["kind"] in ("commit", "abort") and \
                    isinstance(txn, ShardedTransaction):
                txn.completed = True

    def _run_tail(self, ops: list[dict[str, Any]], tail_start: int,
                  results: list[Any], pending: Optional[tuple]) -> None:
        take_op = ops[-1]
        txn: ShardedTransaction = take_op["txn"]
        max_entries = take_op.get("max_entries", 1)
        got = self._router._prefetch_under_txn(
            take_op["template"], max_entries, txn,
            timeout_ms=take_op["timeout_ms"],
            multiple=take_op["kind"] == "take_multiple",
            piggyback=pending, piggyback_results=results,
        )
        if tail_start == len(ops) - 2:  # txn_create rode along
            results[-2] = txn.txn_id if txn._remote is not None else None
        results[-1] = got


class ShardRouter:
    """Client stub over N shard servers with the :class:`SpaceProxy` API.

    One router per client process; each shard gets its own lazily
    connected :class:`SpaceProxy` (so per-shard failover re-discovery
    works exactly as for the single-space proxy).  The router is a
    drop-in anywhere a ``SpaceProxy`` is used — including
    ``getattr(space, "batch")`` duck-typing in the master.
    """

    def __init__(
        self,
        network: Network,
        host: str,
        addresses: list[Address],
        ring: Optional[HashRing] = None,
        recovery: Optional[RecoveryPolicy] = None,
        rng: Any = None,
        metrics: Any = None,
        locators: Optional[list[Optional[Callable[[], Optional[Address]]]]] = None,
        tracer: Any = None,
        scatter_block_ms: float = 250.0,
    ) -> None:
        if not addresses:
            raise ValueError("ShardRouter needs at least one shard address")
        self.ring = ring if ring is not None else HashRing(len(addresses))
        if self.ring.shards != len(addresses):
            raise ValueError(
                f"ring has {self.ring.shards} shards but "
                f"{len(addresses)} addresses were given")
        self.network = network
        self.host = host
        self.runtime = network.runtime
        self.scatter_block_ms = scatter_block_ms
        #: For "scatter" envelope spans around wildcard fan-outs (the
        #: doctor intersects them with rpc.* spans to cost fan-out time).
        self.tracer = tracer
        self._proxies = [
            SpaceProxy(network, host, address, recovery=recovery, rng=rng,
                       metrics=metrics,
                       locator=locators[i] if locators else None,
                       tracer=tracer)
            for i, address in enumerate(addresses)
        ]
        #: Dedicated camp connections (lazily built): a camp is a blocking
        #: ``read`` issued on *every* shard concurrently, and a proxy's
        #: socket is strict request-reply, so campers must never share a
        #: socket with the fan-out RPCs (or with a lingering camper from
        #: an earlier round — hence the busy mask).
        self._camp_proxy_args = dict(recovery=recovery, rng=rng,
                                     metrics=metrics, tracer=tracer)
        self._camp_addresses = list(addresses)
        self._camp_locators = locators
        self._camp_proxies: Optional[list[SpaceProxy]] = None
        self._camp_busy: list[bool] = [False] * len(addresses)
        self._camp_live = 0
        self._camp_hits = 0
        self._camp_hit_shard: Optional[int] = None
        self._camp_cond = self.runtime.condition()
        #: Sticky scatter cursor: where wildcard scans start.  Seeded per
        #: client host so workers spread their first probes, but stable
        #: across runs (determinism).
        self._cursor = stable_hash(f"cursor:{host}") % len(self._proxies)
        #: True after a wildcard take found entries at the cursor shard:
        #: the next prefetch goes straight there (steady state = 1 RPC).
        self._hot = False

    # -- client-health surface (console reads these off the worker proxy) ----

    @property
    def shards(self) -> int:
        return len(self._proxies)

    @property
    def reconnects(self) -> int:
        return sum(p.reconnects for p in self._proxies)

    @property
    def retries(self) -> int:
        return sum(p.retries for p in self._proxies)

    def fail(self) -> None:
        for proxy in self._proxies:
            proxy.fail()
        for proxy in self._camp_proxies or []:
            proxy.fail()

    def close(self) -> None:
        for proxy in self._proxies:
            proxy.close()
        for proxy in self._camp_proxies or []:
            proxy.close()

    def ping(self) -> bool:
        return all(proxy.ping() for proxy in self._proxies)

    # -- routing -------------------------------------------------------------

    def _entry_shard(self, entry: Entry) -> int:
        """Where an entry is written.  ``shard_key() is None`` falls back
        to the class's home shard — such entries are findable only by
        wildcard templates (documented invariant, DESIGN.md §10)."""
        key = entry.shard_key() if isinstance(entry, Entry) else None
        if key is None:
            return self.ring.shard_for(f"class:{type(entry).__name__}")
        return self.ring.shard_for(key)

    def _template_shard(self, template: Entry) -> Optional[int]:
        """Where a template routes; ``None`` means scatter-gather."""
        if self.ring.shards == 1:
            return 0
        key = template.shard_key() if isinstance(template, Entry) else None
        return None if key is None else self.ring.shard_for(key)

    def _scan_order(self) -> list[int]:
        n = len(self._proxies)
        start = self._cursor % n
        return [(start + i) % n for i in range(n)]

    def _txn_for(self, txn: Any, shard: int) -> Optional[RemoteTransaction]:
        if txn is None:
            return None
        if isinstance(txn, ShardedTransaction):
            return txn._bind(shard)
        return txn  # a raw RemoteTransaction: the caller owns its shard

    # -- JavaSpace API ---------------------------------------------------------

    def write(self, entry: Entry, txn: Any = None,
              lease_ms: float = FOREVER, requeue: bool = False) -> dict[str, Any]:
        shard = self._entry_shard(entry)
        return self._proxies[shard].write(entry, txn=self._txn_for(txn, shard),
                                          lease_ms=lease_ms, requeue=requeue)

    def write_all(self, entries: list[Entry], txn: Any = None,
                  lease_ms: float = FOREVER, requeue: bool = False) -> int:
        if not entries:
            return 0
        groups: dict[int, list[Entry]] = {}
        for entry in entries:
            groups.setdefault(self._entry_shard(entry), []).append(entry)
        if txn is not None and len(groups) > 1:
            raise SpaceError(
                "cross-shard write_all under a shard-local transaction")
        if len(groups) == 1 or txn is not None:
            total = 0
            for shard in sorted(groups):
                total += self._proxies[shard].write_all(
                    groups[shard], txn=self._txn_for(txn, shard),
                    lease_ms=lease_ms, requeue=requeue)
            return total
        # Untransacted bulk write: one write_all per touched shard, all in
        # flight at once (seeding a large job shouldn't pay one round trip
        # per shard in series).  Each shard's admission check is
        # pre-dispatch-atomic for *its* group, but the scatter as a whole
        # is not: when one shard rejects after others admitted, the
        # surfaced AdmissionError names the entries that landed — blind
        # retry of the full list would duplicate them (and the history
        # would wrongly swear they never existed).
        shards = sorted(groups)
        outcomes = self._fan_out_outcomes(
            shards,
            lambda proxy, shard: proxy.write_all(groups[shard],
                                                 lease_ms=lease_ms,
                                                 requeue=requeue))
        failures = [value for (status, value) in outcomes if status == "err"]
        if not failures:
            return sum(value for _, value in outcomes)
        for exc in failures:
            if not isinstance(exc, AdmissionError):
                raise exc  # an indeterminate outcome trumps clean rejections
        exc = failures[0]
        exc.admitted_entries = tuple(
            entry
            for shard, (status, _value) in zip(shards, outcomes)
            if status == "ok"
            for entry in groups[shard])
        raise exc

    def read(self, template: Entry, txn: Any = None,
             timeout_ms: Optional[float] = None) -> Optional[Entry]:
        shard = self._route_for_acquire(template, txn)
        if shard is not None:
            return self._proxies[shard].read(
                template, txn=self._txn_for(txn, shard), timeout_ms=timeout_ms)
        return self._scatter_single(template, txn, timeout_ms, take=False)

    def take(self, template: Entry, txn: Any = None,
             timeout_ms: Optional[float] = None) -> Optional[Entry]:
        shard = self._route_for_acquire(template, txn)
        if shard is not None:
            return self._proxies[shard].take(
                template, txn=self._txn_for(txn, shard), timeout_ms=timeout_ms)
        if isinstance(txn, ShardedTransaction):
            got = self._prefetch_under_txn(template, 1, txn,
                                           timeout_ms=timeout_ms,
                                           multiple=False)
            return got
        return self._scatter_single(template, txn, timeout_ms, take=True)

    def read_if_exists(self, template: Entry, txn: Any = None):
        return self.read(template, txn, timeout_ms=0.0)

    def take_if_exists(self, template: Entry, txn: Any = None):
        return self.take(template, txn, timeout_ms=0.0)

    def take_multiple(self, template: Entry, max_entries: int,
                      txn: Any = None,
                      timeout_ms: Optional[float] = None) -> list[Entry]:
        shard = self._route_for_acquire(template, txn)
        if shard is not None:
            return self._proxies[shard].take_multiple(
                template, max_entries, txn=self._txn_for(txn, shard),
                timeout_ms=timeout_ms)
        if isinstance(txn, ShardedTransaction):
            return self._prefetch_under_txn(template, max_entries, txn,
                                            timeout_ms=timeout_ms,
                                            multiple=True)
        return self._scatter_multiple(template, max_entries, txn, timeout_ms)

    def count(self, template: Entry, txn: Any = None) -> int:
        shard = self._template_shard(template)
        if shard is not None:
            return self._proxies[shard].count(template)
        return sum(self._fan_out(
            lambda proxy, _i: proxy.count(template)))

    def contents(self, template: Entry, txn: Any = None) -> list[Entry]:
        shard = self._route_for_acquire(template, txn)
        if shard is not None:
            return self._proxies[shard].contents(
                template, txn=self._txn_for(txn, shard))
        merged: list[Entry] = []
        # Concurrent per-shard RPCs, merged in shard-index order: the
        # reply payloads leave N different hosts in parallel, and the
        # deterministic merge keeps replays byte-identical.
        for chunk in self._fan_out(
                lambda proxy, _i: proxy.contents(template)):
            merged.extend(chunk)
        return merged

    def transaction(self, timeout_ms: float = FOREVER) -> ShardedTransaction:
        return ShardedTransaction(self, timeout_ms)

    def batch(self) -> ShardedBatch:
        return ShardedBatch(self)

    def notify(self, template: Entry, listener: Callable[..., Any],
               lease_ms: float = FOREVER, runtime: Any = None) -> list[int]:
        """Register on every shard (a match may land anywhere); returns
        the per-shard registration ids in shard-index order."""
        return [proxy.notify(template, listener, lease_ms=lease_ms,
                             runtime=runtime)
                for proxy in self._proxies]

    # -- scatter-gather internals ---------------------------------------------

    def _fan_out(self, op: Callable[[SpaceProxy, int], Any]) -> list[Any]:
        """Run ``op(proxy, shard_index)`` against every shard concurrently.

        This is the "gather" in scatter-gather: one runtime process per
        shard issues the RPC, so N reply payloads stream off N hosts'
        egress links in parallel instead of serializing through a
        sequential scan.  Results come back in shard-index order; the
        first failing shard's error (again in shard order) is re-raised,
        so outcomes are deterministic.  Safe because each shard has its
        own proxy/connection — no two concurrent ops share a socket.
        """
        return self._fan_out_over(range(len(self._proxies)), op)

    def _fan_out_over(self, shards: Any,
                      op: Callable[[SpaceProxy, int], Any]) -> list[Any]:
        """As :meth:`_fan_out`, over an explicit subset of shard indices;
        results align with the given order."""
        outcomes = self._fan_out_outcomes(shards, op)
        for status, value in outcomes:
            if status == "err":
                raise value
        return [value for _, value in outcomes]

    def _fan_out_outcomes(
        self, shards: Any,
        op: Callable[[SpaceProxy, int], Any]) -> list[tuple[str, Any]]:
        """Concurrent per-shard calls, returning every shard's outcome as
        ``("ok", value)`` or ``("err", exception)`` instead of raising —
        callers that need partial-failure semantics (scatter write_all
        under admission control) inspect the full list."""
        shards = list(shards)
        proxies = self._proxies
        if len(shards) == 1:
            try:
                return [("ok", op(proxies[shards[0]], shards[0]))]
            except Exception as exc:  # aligned with the fan-out contract
                return [("err", exc)]
        results: list[Any] = [None] * len(shards)
        remaining = [len(shards)]
        cond = self.runtime.condition()

        def call(slot: int, index: int) -> None:
            try:
                results[slot] = ("ok", op(proxies[index], index))
            except BaseException as exc:  # re-raised on the caller below
                results[slot] = ("err", exc)
            finally:
                with cond:
                    remaining[0] -= 1
                    cond.notify_all()

        for slot, index in enumerate(shards):
            self.runtime.spawn(lambda s=slot, i=index: call(s, i),
                               name=f"scatter:{self.host}:{index}")
        with cond:
            while remaining[0] > 0:
                cond.wait()
        return results

    def _route_for_acquire(self, template: Entry, txn: Any) -> Optional[int]:
        """Shard for a read/take/contents — the template's shard, else the
        transaction's pin (wildcard ops under a pinned txn stay local)."""
        shard = self._template_shard(template)
        if shard is not None:
            return shard
        if isinstance(txn, ShardedTransaction) and txn._remote is not None:
            return txn.shard
        return None

    def _deadline(self, timeout_ms: Optional[float]) -> Optional[float]:
        return None if timeout_ms is None else self.runtime.now() + timeout_ms

    def _expired(self, deadline: Optional[float]) -> bool:
        return deadline is not None and self.runtime.now() >= deadline

    def _ensure_campers(self) -> list[SpaceProxy]:
        if self._camp_proxies is None:
            locators = self._camp_locators
            self._camp_proxies = [
                SpaceProxy(self.network, self.host, address,
                           locator=locators[i] if locators else None,
                           **self._camp_proxy_args)
                for i, address in enumerate(self._camp_addresses)
            ]
        return self._camp_proxies

    def _camp(self, template: Entry, deadline: Optional[float]) -> Optional[int]:
        """Block one quantum until a match appears on *any* shard.

        One non-consuming blocking ``read`` per shard, each on its
        dedicated camp connection; the first camper to see a match wakes
        the caller immediately.  Campers still waiting when that happens
        keep running in the background and release their sockets when
        their quantum lapses — the busy mask keeps the next round off
        them (a lingering camper's hit still counts for whichever round
        is waiting).  Camping on one shard at a time would stall a
        scatter consumer for a whole quantum whenever entries land on a
        shard it is not watching — the failure mode that serializes the
        master's result drain.
        """
        budget = self.scatter_block_ms
        if deadline is not None:
            budget = min(budget, max(0.0, deadline - self.runtime.now()))
        if budget <= 0.0:
            return None
        n = len(self._proxies)
        if n == 1:
            if self._proxies[0].exists(template, timeout_ms=budget):
                return 0
            return None
        campers = self._ensure_campers()
        cond = self._camp_cond

        def camp(shard: int, quantum: float) -> None:
            try:
                hit = campers[shard].exists(template, timeout_ms=quantum)
            except Exception:
                # A dead shard mid-failover: camping is advisory — the
                # scan loop surfaces real errors; the proxy self-heals.
                hit = False
            with cond:
                self._camp_busy[shard] = False
                self._camp_live -= 1
                if hit:
                    self._camp_hits += 1
                    self._camp_hit_shard = shard
                cond.notify_all()

        with cond:
            start_hits = self._camp_hits
            for shard in range(n):
                if self._camp_busy[shard]:
                    continue  # lingering camper from an earlier round
                self._camp_busy[shard] = True
                self._camp_live += 1
                self.runtime.spawn(
                    lambda s=shard, q=budget: camp(s, q),
                    name=f"camp:{self.host}:{shard}",
                )
            while self._camp_hits == start_hits and self._camp_live > 0:
                if not cond.wait(timeout=budget):
                    break
            if self._camp_hits > start_hits:
                shard = self._camp_hit_shard
                self._cursor = shard if shard is not None else self._cursor
                return shard
            return None

    @contextmanager
    def _traced_scatter(self, op: str):
        """Envelope span around one wildcard scatter-gather call.

        The span covers the whole call — fan-out RPCs *and* camped
        waits — so the doctor intersects it with the rpc.* spans inside
        to attribute only the in-flight portion to the scatter phase.
        Purely observational: the disabled path yields immediately.
        """
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            yield
            return
        parent = tracer.current
        span = tracer.start(
            "scatter",
            trace_id=(parent.trace_id if parent is not None
                      else f"worker/{self.host}"),
            parent_id=parent.span_id if parent is not None else None,
            proc=self.host, op=op, shards=len(self._proxies))
        try:
            with tracer.activate(span):
                yield
        finally:
            span.end()

    def _scatter_single(self, template: Entry, txn: Any,
                        timeout_ms: Optional[float],
                        take: bool) -> Optional[Entry]:
        with self._traced_scatter("take" if take else "read"):
            return self._scatter_single_impl(template, txn, timeout_ms, take)

    def _scatter_single_impl(self, template: Entry, txn: Any,
                             timeout_ms: Optional[float], take: bool) -> Optional[Entry]:
        """Wildcard read/take without a sharded transaction: first match
        wins, scanning non-blockingly from the sticky cursor."""
        deadline = self._deadline(timeout_ms)
        while True:
            for shard in self._scan_order():
                proxy = self._proxies[shard]
                if take:
                    entry = proxy.take(template, txn=txn, timeout_ms=0.0)
                else:
                    entry = proxy.read(template, txn=txn, timeout_ms=0.0)
                if entry is not None:
                    self._cursor = shard
                    return entry
            if timeout_ms == 0.0 or self._expired(deadline):
                self._hot = False
                return None
            self._camp(template, deadline)

    def _scatter_multiple(self, template: Entry, max_entries: int, txn: Any,
                          timeout_ms: Optional[float]) -> list[Entry]:
        with self._traced_scatter("take_multiple"):
            return self._scatter_multiple_impl(template, max_entries, txn,
                                               timeout_ms)

    def _scatter_multiple_impl(self, template: Entry, max_entries: int,
                               txn: Any,
                               timeout_ms: Optional[float]) -> list[Entry]:
        """Wildcard take_multiple: gather from all shards per scan round.

        Each round is two parallel fan-outs: ``count`` to size per-shard
        quotas (so the round never takes more than ``max_entries`` in
        total), then ``take_multiple`` for the quotas.  A concurrent
        consumer can shrink a shard between the two — the round just
        returns fewer; a later round (or the caller's next call) picks up
        the rest.  When every shard is empty, camp-and-rescan as for the
        single-entry scatter.
        """
        if txn is not None:
            # A transaction pins one shard; a txn-scoped scatter would
            # have been routed by the caller.  Fall back to a sequential
            # scan so the transaction's proxy semantics hold.
            return self._scatter_multiple_seq(template, max_entries, txn,
                                              timeout_ms)
        deadline = self._deadline(timeout_ms)
        while True:
            counts = self._fan_out(lambda proxy, _i: proxy.count(template))
            # Round-robin quota allocation: spread the round's budget one
            # entry at a time over every shard that has matches.  Greedy
            # shard-order allocation would concentrate the round on the
            # first shards with entries and serialize the gather through
            # one or two hosts' egress links — defeating the fan-out.
            quotas = [0] * len(counts)
            budget = max_entries
            while budget > 0:
                granted = 0
                for shard, count in enumerate(counts):
                    if budget > 0 and quotas[shard] < count:
                        quotas[shard] += 1
                        budget -= 1
                        granted += 1
                if granted == 0:
                    break
            if any(quotas):
                chunks = self._fan_out_over(
                    [s for s, q in enumerate(quotas) if q > 0],
                    lambda proxy, i: proxy.take_multiple(
                        template, quotas[i], timeout_ms=0.0))
                got = [entry for chunk in chunks for entry in chunk]
                if got:
                    return got
            if timeout_ms == 0.0 or self._expired(deadline):
                self._hot = False
                return []
            self._camp(template, deadline)

    def _scatter_multiple_seq(self, template: Entry, max_entries: int,
                              txn: Any,
                              timeout_ms: Optional[float]) -> list[Entry]:
        deadline = self._deadline(timeout_ms)
        while True:
            got: list[Entry] = []
            for shard in self._scan_order():
                chunk = self._proxies[shard].take_multiple(
                    template, max_entries - len(got), txn=txn, timeout_ms=0.0)
                if chunk and not got:
                    self._cursor = shard
                got.extend(chunk)
                if len(got) >= max_entries:
                    break
            if got:
                return got
            if timeout_ms == 0.0 or self._expired(deadline):
                self._hot = False
                return []
            self._camp(template, deadline)

    def _probe(self, template: Entry,
               deadline: Optional[float]) -> Optional[int]:
        """Find a shard with at least one match, without consuming: scan
        ``read_if_exists`` from the cursor, then camp and rescan until a
        match or the deadline."""
        while True:
            for shard in self._scan_order():
                if self._proxies[shard].exists(template, timeout_ms=0.0):
                    return shard
            if self._expired(deadline):
                return None
            hit = self._camp(template, deadline)
            if hit is not None:
                return hit

    def _prefetch_under_txn(
        self,
        template: Entry,
        max_entries: int,
        txn: ShardedTransaction,
        timeout_ms: Optional[float],
        multiple: bool,
        piggyback: Optional[tuple] = None,
        piggyback_results: Optional[list[Any]] = None,
    ) -> Any:
        """Wildcard take under a shard-local transaction.

        Attempt cycle: pick a shard (the txn's pin, the hot cursor, a
        piggyback run's shard, or a probe hit), then issue txn_create (if
        unbound) + non-blocking take in ONE pipelined RPC there.  An
        empty take unbinds and re-probes so a worker is never stuck
        camped on a dry shard while tasks pile up on another — the
        rebind is invisible to the transaction's holder.

        ``piggyback`` is :class:`ShardedBatch`'s final unflushed
        same-shard run: when the first attempt lands on its shard, the
        prefetch rides that run's RPC (the steady-state single-RPC path).
        """
        deadline = self._deadline(timeout_ms)
        empty: Any = [] if multiple else None
        attempt_shard: Optional[int] = None
        if txn._remote is not None:
            attempt_shard = txn.shard
        elif self._hot:
            attempt_shard = self._cursor
        elif piggyback is not None:
            attempt_shard = piggyback[0]
        first = True
        while True:
            if attempt_shard is None:
                attempt_shard = self._probe(template, deadline)
                if attempt_shard is None:
                    self._hot = False
                    return empty
            if txn._remote is not None and txn.shard != attempt_shard:
                txn._unbind_quietly()
            if piggyback is not None and first and \
                    piggyback[0] == attempt_shard:
                shard, pb, mapping = piggyback
            else:
                if piggyback is not None and first:
                    # The carried run targets a different shard: flush it
                    # before the prefetch so sequence order is preserved.
                    self._flush_piggyback(piggyback, piggyback_results)
                    piggyback = None
                shard, pb, mapping = attempt_shard, \
                    self._proxies[attempt_shard].batch(), None
            first = False
            if txn._remote is None:
                remote = pb.txn_create(txn._timeout_ms)
            else:
                remote = txn._remote
            if multiple:
                pb.take_multiple(template, max_entries, txn=remote,
                                 timeout_ms=0.0)
            else:
                pb.take(template, txn=remote, timeout_ms=0.0)
            values = pb.flush()
            if mapping is not None and piggyback_results is not None:
                for op_index, pb_index, op in mapping:
                    piggyback_results[op_index] = values[pb_index]
                    optxn = op.get("txn")
                    if op["kind"] in ("commit", "abort") and \
                            isinstance(optxn, ShardedTransaction):
                        optxn.completed = True
                piggyback = None
            if txn._remote is None:
                txn._adopt(shard, remote)
            got = values[-1]
            if (multiple and got) or (not multiple and got is not None):
                self._cursor = shard
                self._hot = True
                return got
            self._hot = False
            if timeout_ms == 0.0 or self._expired(deadline):
                return empty
            txn._unbind_quietly()
            attempt_shard = None

    def _flush_piggyback(self, pending: tuple,
                         results: Optional[list[Any]]) -> None:
        shard, pb, mapping = pending
        values = pb.flush()
        if results is None:
            return
        for op_index, pb_index, op in mapping:
            results[op_index] = values[pb_index]
            txn = op.get("txn")
            if op["kind"] in ("commit", "abort") and \
                    isinstance(txn, ShardedTransaction):
                txn.completed = True
