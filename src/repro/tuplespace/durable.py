"""Durable tuple space: WAL-backed crash recovery and a hot standby.

:class:`DurableSpace` is a :class:`~repro.tuplespace.space.JavaSpace`
whose committed state changes flow into a
:class:`~repro.tuplespace.wal.WriteAheadLog`.  Crash recovery is
``DurableSpace.recover(runtime, store)``: install the latest snapshot,
replay the log tail, and the space matches the last *committed* state —
transactions open at the crash contributed nothing to the log, so they
are rolled back by construction (their takes reappear, their pending
writes never existed).

:class:`HotStandby` is the replication consumer: it opens a ``replicate``
stream to the primary's :class:`~repro.tuplespace.proxy.SpaceServer`,
bootstraps from the snapshot + log tail shipped in the reply, then
applies every streamed commit record to its own durable space.  On
``promote()`` it stops tailing and serves that space from a fresh
``SpaceServer`` — the failover sequence itself (detecting the dead
primary, re-registering with Jini lookup) lives in
:mod:`repro.tuplespace.failover`.
"""

from __future__ import annotations

import itertools
import pickle
from typing import Any, Optional

from repro.errors import (
    ConnectionClosedError,
    ConnectionRefusedError_,
    NetworkError,
)
from repro.net.address import Address
from repro.net.network import Network, StreamSocket
from repro.runtime.base import Runtime
from repro.tuplespace.proxy import SpaceServer
from repro.tuplespace.space import JavaSpace
from repro.tuplespace.transaction import TransactionManager
from repro.tuplespace.wal import CommitRecord, WalStore, WriteAheadLog

__all__ = ["DurableSpace", "HotStandby"]


class DurableSpace(JavaSpace):
    """A JavaSpace whose committed state survives the machine.

    ``snapshot_every`` bounds replay: after that many commit batches the
    committed store is serialized into the WAL's snapshot slot and the
    log truncated.  ``None`` disables automatic snapshots (manual
    :meth:`checkpoint` only).
    """

    journaling = True

    def __init__(
        self,
        runtime: Runtime,
        name: str = "JavaSpaces",
        wal: Optional[WriteAheadLog] = None,
        snapshot_every: Optional[int] = 64,
        fsync_policy: str = "always",
        group_size: int = 64,
        group_commit_ms: Optional[float] = None,
    ) -> None:
        super().__init__(runtime, name)
        if wal is None:
            wal = WriteAheadLog(
                WalStore(fsync_policy=fsync_policy, group_size=group_size),
                group_ms=group_commit_ms,
            )
        self.wal = wal
        self.wal.bind(runtime)
        self.snapshot_every = snapshot_every
        self._applying = False      # replay/replication: don't re-journal
        self._commits_since_snapshot = 0

    # -- recovery ------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        runtime: Runtime,
        store: WalStore,
        name: str = "JavaSpaces",
        snapshot_every: Optional[int] = 64,
        group_commit_ms: Optional[float] = None,
    ) -> "DurableSpace":
        """Rebuild the last committed state from a surviving WAL store."""
        space = cls(runtime, name,
                    wal=WriteAheadLog(store, group_ms=group_commit_ms),
                    snapshot_every=snapshot_every)
        space._replay()
        return space

    def sync(self) -> None:
        """Durability barrier: flush any buffered commit group."""
        self.wal.sync()

    def _replay(self) -> None:
        self._applying = True
        try:
            snapshot = self.wal.store.snapshot
            base_lsn = 0
            if snapshot is not None:
                base_lsn = snapshot[0]
                self._install_state(snapshot[1])
            for record in self.wal.records_since(base_lsn):
                self._apply_ops(record.ops)
        finally:
            self._applying = False

    def _install_state(self, state: bytes) -> None:
        last_id, entries = pickle.loads(state)
        self._reset_state()
        for entry_id, data, expiration_ms in sorted(entries):
            self._restore(entry_id, data, expiration_ms)
        if last_id > self._last_id:
            self._last_id = last_id
            self._ids = itertools.count(last_id + 1)

    def _apply_ops(self, ops: tuple) -> None:
        for op in ops:
            if op[0] == "write":
                _, entry_id, data, expiration_ms = op
                if entry_id not in self._by_id:
                    self._restore(entry_id, data, expiration_ms)
            else:  # take
                self._discard(op[1])

    # -- journaling ----------------------------------------------------------

    def _journal_ops(self, ops: list) -> None:
        if self._applying:
            return
        self.wal.append(tuple(ops))
        self._maybe_snapshot()

    def _maybe_snapshot(self) -> None:
        if self.snapshot_every is None:
            return
        self._commits_since_snapshot += 1
        if self._commits_since_snapshot >= self.snapshot_every:
            self._snapshot_locked()

    def checkpoint(self) -> None:
        """Snapshot the committed state now and truncate the log."""
        with self._lock:
            self._snapshot_locked()

    def _snapshot_locked(self) -> None:
        last_id, entries = self._committed_state()
        state = pickle.dumps((last_id, entries),
                             protocol=pickle.HIGHEST_PROTOCOL)
        self.wal.install_snapshot(self.wal.last_lsn, state)
        self._commits_since_snapshot = 0
        tracer = self.wal.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant("wal.snapshot", trace_id="wal", proc="wal",
                           lsn=self.wal.last_lsn, entries=len(entries))

    # -- replication (standby side) -------------------------------------------

    def bootstrap(self, snapshot: Optional[tuple[int, bytes]],
                  records: list[CommitRecord],
                  epoch: Optional[int] = None) -> None:
        """Adopt a primary's snapshot + log tail (idempotent: anything at
        or below our current LSN is skipped, so a reconnect after a feed
        drop never regresses state).  ``epoch`` carries the primary's
        current epoch even when no commit has happened under it yet, so
        chained failovers keep strictly increasing epochs."""
        with self._lock:
            self._applying = True
            try:
                if epoch is not None:
                    self.wal.set_epoch(epoch)
                if snapshot is not None and snapshot[0] > self.wal.last_lsn:
                    self.wal.install_snapshot(snapshot[0], snapshot[1])
                    self._install_state(snapshot[1])
                for record in records:
                    if record.lsn > self.wal.last_lsn:
                        self.wal.import_record(record)
                        self._apply_ops(record.ops)
            finally:
                self._applying = False

    def apply_commit(self, record: CommitRecord) -> None:
        """Apply one streamed commit record (live replication)."""
        with self._lock:
            if record.lsn <= self.wal.last_lsn:
                return  # already covered by the bootstrap
            self._applying = True
            try:
                self.wal.import_record(record)
                self._apply_ops(record.ops)
            finally:
                self._applying = False
            self._maybe_snapshot()


class HotStandby:
    """Tails a primary space's commit stream into a local durable replica.

    The tail loop reconnects (bounded by ``max_retries`` consecutive
    failures) so a primary *restart* resumes replication; a primary
    *death* leaves the loop backing off until a supervisor calls
    :meth:`promote`, which stops the tail and serves the caught-up
    replica on ``address``.
    """

    def __init__(
        self,
        runtime: Runtime,
        network: Network,
        host: str,
        primary_address: Address,
        address: Address,
        name: str = "JavaSpaces-standby",
        snapshot_every: Optional[int] = 64,
        retry_ms: float = 200.0,
        max_retries: int = 50,
        metrics: Any = None,
        sync_replication: bool = False,
        repl_ack_timeout_ms: float = 500.0,
    ) -> None:
        self.runtime = runtime
        self.network = network
        self.host = host
        self.primary_address = primary_address
        self.address = address
        self.space = DurableSpace(runtime, name=name,
                                  snapshot_every=snapshot_every)
        self.retry_ms = retry_ms
        self.max_retries = max_retries
        self.metrics = metrics
        #: Carried onto the server this standby becomes when promoted, so
        #: commit-gating survives a failover chain.
        self.sync_replication = sync_replication
        self.repl_ack_timeout_ms = repl_ack_timeout_ms
        self.caught_up = False
        self.promoted = False
        self.server: Optional[SpaceServer] = None
        self._running = False
        self._conn: Optional[StreamSocket] = None

    @property
    def applied_lsn(self) -> int:
        """Highest WAL frame applied to the replica — the primary's
        ``last_lsn`` minus this is the replication lag in frames."""
        return self.space.wal.last_lsn

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.runtime.spawn(self._tail, name=f"standby-tail:{self.host}")

    def stop(self) -> None:
        self._running = False
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()
        if self.server is not None:
            self.server.stop(drain_ms=0.0)

    def promote(self, txn_manager: Optional[TransactionManager] = None) -> SpaceServer:
        """Stop tailing and serve the replica at ``self.address``.

        The epoch is bumped *before* the first request is served, so
        every commit the new primary accepts is stamped with the new
        epoch — the deposed primary (and any proxy still bound to it)
        is fenced from that instant on.
        """
        self.promoted = True
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()
        self.space.wal.bump_epoch()
        self.server = SpaceServer(
            self.runtime, self.space, self.network, self.address,
            txn_manager=txn_manager,
        )
        self.server.fencing = True
        self.server.sync_replication = self.sync_replication
        self.server.repl_ack_timeout_ms = self.repl_ack_timeout_ms
        self.server.start()
        if self.metrics is not None:
            self.metrics.event("standby-promoted", host=self.host,
                               lsn=self.space.wal.last_lsn,
                               epoch=self.space.wal.epoch)
        return self.server

    # -- the tail loop ---------------------------------------------------------

    def _tail(self) -> None:
        failures = 0
        while self._running and not self.promoted:
            try:
                conn = self.network.connect(self.host, self.primary_address)
                self._conn = conn
                conn.send({"op": "replicate",
                           "args": {"from_lsn": self.space.wal.last_lsn}})
                reply = conn.receive(timeout_ms=None)
                if reply is None or not reply.get("ok"):
                    raise ConnectionClosedError("replication bootstrap refused")
                value = reply["value"]
                self.space.bootstrap(value["snapshot"], value["records"],
                                     epoch=value.get("epoch"))
                failures = 0
                # Confirm what we durably hold — after the bootstrap and
                # after every applied batch.  The ack travels standby →
                # primary on the feed connection, the direction an egress
                # partition of the primary leaves open, which is what lets
                # a cut-off primary *notice* replication has stalled and
                # stop acknowledging clients (see SpaceServer.sync_replication).
                conn.send({"repl_ack": self.space.wal.last_lsn})
                if not self.caught_up:
                    self.caught_up = True
                    if self.metrics is not None:
                        self.metrics.event("standby-caught-up", host=self.host,
                                           lsn=self.space.wal.last_lsn)
                while self._running and not self.promoted:
                    message = conn.receive(timeout_ms=None)
                    if message is None:
                        continue
                    # The feed ships commit *batches* (records coalesced
                    # within one kernel tick); single-record messages are
                    # accepted too for compatibility.
                    batch = message.get("repl_batch")
                    if batch is not None:
                        for record in batch:
                            self._apply_contiguous(conn, record)
                        conn.send({"repl_ack": self.space.wal.last_lsn})
                        continue
                    record = message.get("repl")
                    if record is not None:
                        self._apply_contiguous(conn, record)
                        conn.send({"repl_ack": self.space.wal.last_lsn})
            except (ConnectionClosedError, ConnectionRefusedError_, NetworkError):
                if not self._running or self.promoted:
                    return
                failures += 1
                if failures > self.max_retries:
                    if self.metrics is not None:
                        self.metrics.event("standby-gave-up", host=self.host)
                    return
                self.runtime.sleep(self.retry_ms)
        self._conn = None

    def _apply_contiguous(self, conn: StreamSocket, record: Any) -> None:
        """Apply one streamed record, refusing to ack across a hole.

        LSNs are dense, so a record more than one ahead means an earlier
        feed message was silently dropped (a partition eats batches
        without closing the stream).  Acking ``last_lsn`` past such a
        hole would tell the primary the missing commits are safe when
        they are gone — so tear the feed down and re-bootstrap from our
        true LSN instead; the bootstrap reply fills the gap exactly.
        """
        if record.lsn > self.space.wal.last_lsn + 1:
            have = self.space.wal.last_lsn
            conn.close()
            raise ConnectionClosedError(
                f"replication gap: have lsn {have}, got {record.lsn}")
        self.space.apply_commit(record)
