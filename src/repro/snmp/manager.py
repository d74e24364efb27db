"""The SNMP manager: polls worker-agents with retries and timeouts.

The paper's monitoring agent calls into this layer (there via JNI; here
directly) to fetch system parameters such as CPU load from registered
workers.  Every monitor loop shares one manager, so each agent gets its
own datagram socket: a response lands on the socket of the poller
waiting for it, never on one that would discard it as someone else's.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.errors import NoSuchOidError, SnmpError, TimeoutError_
from repro.net.address import Address
from repro.net.network import DatagramSocket, Network
from repro.runtime.base import Runtime
from repro.snmp.agent import SNMP_PORT
from repro.snmp.oid import Oid
from repro.snmp.pdu import (
    ERROR_NO_SUCH_NAME,
    GetBulkRequest,
    GetNextRequest,
    GetRequest,
    SetRequest,
    decode_message,
    encode_message,
)

__all__ = ["SnmpManager"]


class SnmpManager:
    """Issues GET/GETNEXT/SET requests to agents and matches responses."""

    def __init__(
        self,
        runtime: Runtime,
        network: Network,
        host: str,
        community: str = "public",
        timeout_ms: float = 200.0,
        retries: int = 2,
    ) -> None:
        self.runtime = runtime
        self.network = network
        self.host = host
        self.community = community
        self.timeout_ms = timeout_ms
        self.retries = retries
        self._request_ids = itertools.count(1)
        #: Agent address → the socket its requests go out on (bound on
        #: first use), so concurrent polls of different agents never
        #: read each other's responses.
        self._sockets: dict[Address, DatagramSocket] = {}
        self.stats = {"requests": 0, "retries": 0, "timeouts": 0}

    def close(self) -> None:
        for sock in self._sockets.values():
            sock.close()
        self._sockets.clear()

    # -- public operations ------------------------------------------------------

    def get(self, agent_host: str, oids: list[Oid], port: int = SNMP_PORT) -> dict[Oid, Any]:
        """GET one or more OIDs from an agent; returns ``{oid: value}``."""
        request = GetRequest(
            request_id=next(self._request_ids),
            varbinds=[(Oid(o), None) for o in oids],
            community=self.community,
        )
        response = self._transact(Address(agent_host, port), request)
        if response.error_status == ERROR_NO_SUCH_NAME:
            bad = response.varbinds[response.error_index - 1][0]
            raise NoSuchOidError(str(bad))
        if response.error_status != 0:
            raise SnmpError(f"agent error status {response.error_status}")
        return dict(response.varbinds)

    def get_one(self, agent_host: str, oid: Oid, port: int = SNMP_PORT) -> Any:
        return self.get(agent_host, [oid], port)[Oid(oid)]

    def get_next(
        self, agent_host: str, oid: Oid, port: int = SNMP_PORT
    ) -> tuple[Oid, Any]:
        request = GetNextRequest(
            request_id=next(self._request_ids),
            varbinds=[(Oid(oid), None)],
            community=self.community,
        )
        response = self._transact(Address(agent_host, port), request)
        if response.error_status == ERROR_NO_SUCH_NAME:
            raise NoSuchOidError(f"end of MIB after {oid}")
        if response.error_status != 0:
            raise SnmpError(f"agent error status {response.error_status}")
        return response.varbinds[0]

    def get_bulk(
        self,
        agent_host: str,
        oids: list[Oid],
        non_repeaters: int = 0,
        max_repetitions: int = 10,
        port: int = SNMP_PORT,
    ) -> list[tuple[Oid, Any]]:
        """SNMPv2 GetBulk: batched GETNEXT sweeps in one round trip."""
        request = GetBulkRequest(
            request_id=next(self._request_ids),
            varbinds=[(Oid(o), None) for o in oids],
            error_status=non_repeaters,
            error_index=max_repetitions,
            community=self.community,
        )
        response = self._transact(Address(agent_host, port), request)
        if response.error_status != 0:
            raise SnmpError(f"agent error status {response.error_status}")
        return list(response.varbinds)

    def walk_bulk(self, agent_host: str, subtree: Oid, port: int = SNMP_PORT,
                  max_repetitions: int = 16) -> list[tuple[Oid, Any]]:
        """Like :meth:`walk` but fetching ``max_repetitions`` per round
        trip — the v2 way to dump a table cheaply."""
        subtree = Oid(subtree)
        results: list[tuple[Oid, Any]] = []
        cursor = subtree
        while True:
            batch = self.get_bulk(agent_host, [cursor], port=port,
                                  max_repetitions=max_repetitions)
            progressed = False
            for oid, value in batch:
                if not oid.starts_with(subtree):
                    return results
                results.append((oid, value))
                cursor = oid
                progressed = True
            if not progressed or len(batch) < max_repetitions:
                return results

    def walk(self, agent_host: str, subtree: Oid, port: int = SNMP_PORT) -> list[tuple[Oid, Any]]:
        """GETNEXT sweep of every OID under ``subtree``."""
        subtree = Oid(subtree)
        results: list[tuple[Oid, Any]] = []
        cursor = subtree
        while True:
            try:
                oid, value = self.get_next(agent_host, cursor, port)
            except NoSuchOidError:
                break
            if not oid.starts_with(subtree):
                break
            results.append((oid, value))
            cursor = oid
        return results

    def set(self, agent_host: str, oid: Oid, value: Any, port: int = SNMP_PORT) -> None:
        request = SetRequest(
            request_id=next(self._request_ids),
            varbinds=[(Oid(oid), value)],
            community=self.community,
        )
        response = self._transact(Address(agent_host, port), request)
        if response.error_status != 0:
            raise SnmpError(f"set failed with status {response.error_status}")

    # -- plumbing -----------------------------------------------------------------

    def _socket_for(self, agent: Address) -> DatagramSocket:
        sock = self._sockets.get(agent)
        if sock is None:
            sock = self._sockets[agent] = self.network.bind_datagram(
                self.network.ephemeral(self.host))
        return sock

    def _transact(self, agent: Address, request) -> Any:
        """Send with retries; match the response by request id."""
        sock = self._socket_for(agent)
        data = encode_message(request)
        attempts = self.retries + 1
        for attempt in range(attempts):
            self.stats["requests"] += 1
            if attempt > 0:
                self.stats["retries"] += 1
            sock.send_to(agent, data)
            deadline = self.runtime.now() + self.timeout_ms
            while True:
                remaining = deadline - self.runtime.now()
                if remaining <= 0:
                    break
                received = sock.receive(timeout_ms=remaining)
                if received is None:
                    break
                payload, _sender = received
                try:
                    response = decode_message(payload)
                except Exception:
                    continue  # not ours / corrupt: keep listening
                if response.request_id == request.request_id:
                    return response
        self.stats["timeouts"] += 1
        raise TimeoutError_(f"no SNMP response from {agent} after {attempts} attempts")
