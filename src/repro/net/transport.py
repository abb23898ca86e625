"""Hosts, listeners and TCP-like connections.

The model is a reliable, ordered byte stream (what the paper's probes
see above the kernel's TCP) with WAN realism where it matters to the
measurements:

* **latency** — each server host has a round-trip time; delivery of a
  chunk takes ``rtt / 2`` one way;
* **bandwidth** — each direction of a connection serializes bytes at
  the link rate, so large responses take time and interleaving of
  concurrently transmitted streams is visible in arrival order;
* **loss** — modelled as retransmission *delay* (an RTO-style penalty
  added to the affected chunk and everything queued behind it) rather
  than literal byte loss, because all probes run above reliable
  delivery; this preserves loss's timing effect without re-implementing
  TCP recovery;
* **handshake** — ``connect`` completes after one RTT (SYN/SYN-ACK at
  kernel level), which is what the paper's TCP-based RTT estimator
  measures (§III-F).

Determinism: per-connection RNGs are seeded from the network seed plus
a connection counter.

Ownership: a :class:`Network` and what hangs off it is one universe, a
tree (network → hosts → listeners, network → endpoints) plus back-edges:
the ends of a connection name each other as ``peer``, and ``on_data`` /
``on_close`` are bound methods of the client or server connection holding
the endpoint.  :meth:`Network.close` cuts them in one place (DESIGN §8).
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from repro.net.clock import Simulation
from repro.net.faults import (
    FaultKind,
    FaultPlan,
    FaultSession,
    FaultState,
    stable_seed,
)

#: Segment size used for serialization and loss accounting.
MSS = 1460


@dataclass(slots=True)
class LinkProfile:
    """Path characteristics from the measurement client to one host."""

    rtt: float = 0.05  # seconds, round trip
    bandwidth: float = 10e6  # bytes per second, each direction
    loss_rate: float = 0.0  # probability a segment needs retransmission

    #: Extra delay charged per retransmitted segment.  A real RTO is at
    #: least max(200ms, rtt); we use rtt + 0.2s as a plain approximation.
    def rto(self) -> float:
        return self.rtt + 0.2


class LinkChannel:
    """One direction of one host's access link.

    Shared by every connection to/from the host, so parallel
    connections *contend* for serialization capacity instead of each
    getting the full link — the physics that makes the §VI single-vs-
    multiple-connection comparison meaningful.
    """

    __slots__ = ("busy_until",)

    def __init__(self) -> None:
        self.busy_until = 0.0


class Endpoint:
    """One end of an established connection."""

    def __init__(
        self,
        sim: Simulation,
        label: tuple[str, int, bool],
        profile: LinkProfile,
        channel: LinkChannel,
        rng_key: tuple,
    ):
        self._sim = sim
        #: ``(server, port, towards_server)``; the text is only made
        #: when an error message needs it.
        self._label = label
        self.peer: "Endpoint | None" = None
        self.on_data: Callable[[bytes], None] | None = None
        self.on_close: Callable[[], None] | None = None
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self._recv_buffer = bytearray()
        self._one_way_delay = profile.rtt / 2
        self._bandwidth = profile.bandwidth
        self._profile = profile
        self._channel = channel  # shared per host+direction
        self._stall_until = 0.0  # per-connection loss-recovery stall
        self._rng_key = rng_key
        #: Injected fault applied to this endpoint's traffic (if any).
        self.fault: FaultState | None = None

    @property
    def label(self) -> str:
        server, port, towards_server = self._label
        if towards_server:
            return f"client->{server}:{port}"
        return f"{server}:{port}->client"

    @cached_property
    def _rng(self) -> random.Random:
        """Loss draws, built — seed included — on first use: on a clean
        link no draw is ever observable, so the hash, the Random
        instance and its costly seeding are skipped entirely."""
        # stable_seed, not hash(): string hashing is randomized per
        # process, and a resumed campaign must replay a site's original
        # universe from a fresh process bit-for-bit.
        return random.Random(stable_seed(*self._rng_key))

    # -- sending ----------------------------------------------------------

    def send(self, data: bytes) -> None:
        """Queue ``data`` for delivery to the peer."""
        if self.closed:
            raise ConnectionError(f"{self.label}: send on closed connection")
        if not data:
            return
        assert self.peer is not None

        fault_delay = 0.0
        close_peer = False
        if self.fault is not None:
            filtered, fault_delay, close_peer = self.fault.on_send(
                self._sim.now, data
            )
            if filtered is None:
                if close_peer:
                    self._sim.call_at(
                        self._sim.now + self._one_way_delay,
                        Endpoint._deliver_close,
                        self.peer,
                    )
                return
            data = filtered
        self.bytes_sent += len(data)

        # Serialization: the shared link transmits at most `bandwidth`
        # B/s across ALL connections; this chunk also cannot start
        # before our own connection finishes any loss recovery.
        start = self._sim.now
        channel = self._channel
        if channel.busy_until > start:
            start = channel.busy_until
        if self._stall_until > start:
            start = self._stall_until
        serialize = len(data) / self._bandwidth if self._bandwidth else 0.0
        channel.busy_until = start + serialize

        # Loss: each segment independently needs a retransmission with
        # probability loss_rate, each costing one RTO of extra delay.
        # The stall is per-connection: other connections keep using the
        # link while this one waits for its retransmission timer.
        # On a clean link (``loss_rate == 0``) every draw's outcome is
        # discarded, so the whole block — and the RNG — is skipped; on
        # a lossy link the draw order matches the original
        # implementation exactly, bit for bit.
        profile = self._profile
        arrival = start + serialize
        if profile.loss_rate:
            rng = self._rng
            segments = max(1, (len(data) + MSS - 1) // MSS)
            retransmissions = sum(
                1 for _ in range(segments) if rng.random() < profile.loss_rate
            )
            arrival += retransmissions * profile.rto()
        self._stall_until = arrival
        arrival = arrival + self._one_way_delay + fault_delay
        self._sim.call_at(arrival, self._deliver_to_peer, data)
        if close_peer:
            # Truncated close: the peer observes FIN/RST right after the
            # final partial chunk (same instant, later queue order).
            self._sim.call_at(arrival, Endpoint._deliver_close, self.peer)

    def _deliver_to_peer(self, data: bytes) -> None:
        peer = self.peer
        if peer is None or peer.closed:
            return
        if peer.fault is not None and peer.fault.intercept_receive():
            # Mid-handshake RST: the peer tears the connection down
            # instead of processing the bytes; we learn of it one
            # propagation delay later.
            peer.closed = True
            if peer.on_close is not None:
                peer.on_close()
            if not self.closed:
                self._sim.call_at(
                    self._sim.now + self._one_way_delay,
                    Endpoint._deliver_close,
                    self,
                )
            return
        peer.bytes_received += len(data)
        if peer.on_data is not None:
            peer.on_data(data)
        else:
            peer._recv_buffer.extend(data)

    def drain(self) -> bytes:
        """Take any bytes that arrived before ``on_data`` was attached."""
        if not self._recv_buffer:
            return b""
        data = bytes(self._recv_buffer)
        self._recv_buffer.clear()
        return data

    # -- closing -------------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        peer = self.peer
        if peer is not None and not peer.closed:
            self._sim.call_at(
                self._sim.now + self._one_way_delay, self._deliver_close, peer
            )

    @staticmethod
    def _deliver_close(peer: "Endpoint") -> None:
        if peer.closed:
            return
        peer.closed = True
        if peer.on_close is not None:
            peer.on_close()


class Host:
    """A named machine on the simulated network."""

    def __init__(self, name: str, profile: LinkProfile):
        self.name = name
        self.profile = profile
        self._listeners: dict[int, Callable[[Endpoint], None]] = {}
        #: Kernel-level turnaround added to ICMP echo / SYN-ACK replies.
        self.kernel_delay = 0.00005
        #: Shared access-link capacity, one channel per direction.
        self.downlink = LinkChannel()
        self.uplink = LinkChannel()

    def listen(self, port: int, on_accept: Callable[[Endpoint], None]) -> None:
        """Register ``on_accept(server_endpoint)`` for inbound connections."""
        if port in self._listeners:
            raise ValueError(f"{self.name}: port {port} already listening")
        self._listeners[port] = on_accept

    def listener(self, port: int) -> Callable[[Endpoint], None] | None:
        return self._listeners.get(port)


class ConnectAttempt:
    """Pending TCP connect; resolves after the simulated handshake."""

    def __init__(self, sim: Simulation):
        self._sim = sim
        self.established = False
        self.refused = False
        self.endpoint: Endpoint | None = None
        self.started_at = sim.now
        self.completed_at: float | None = None
        self.on_connect: Callable[[Endpoint], None] | None = None

    @property
    def handshake_rtt(self) -> float | None:
        """SYN → SYN-ACK interval, i.e. the TCP-based RTT estimate."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    def _handshake_done(self, listener, server_end: Endpoint, client_end: Endpoint) -> None:
        listener(server_end)
        self._complete(client_end)

    def _complete(self, endpoint: Endpoint | None) -> None:
        self.completed_at = self._sim.now
        if endpoint is None:
            self.refused = True
        else:
            self.established = True
            self.endpoint = endpoint
            if self.on_connect is not None:
                self.on_connect(endpoint)


class Network:
    """Registry of hosts plus the connection factory."""

    def __init__(
        self, sim: Simulation, seed: int = 0, fault_plan: FaultPlan | None = None
    ):
        self.sim = sim
        self.seed = seed
        self.hosts: dict[str, Host] = {}
        #: Both ends of every connection made, for :meth:`close`.
        self._endpoints: list[Endpoint] = []
        self.closed = False
        self._connection_counter = 0
        self.fault_plan = fault_plan
        self.fault_session: FaultSession | None = (
            fault_plan.session() if fault_plan is not None else None
        )

    def close(self) -> None:
        """End the universe by cutting its back-edges (module docstring).
        Afterwards nothing is pending, ``connect`` raises and every
        endpoint is closed, so ``send`` raises too.  Idempotent."""
        self.closed = True
        self.sim.clear()
        self.hosts.clear()
        for endpoint in self._endpoints:
            endpoint.closed = True
            endpoint.peer = endpoint.on_data = endpoint.on_close = None
        self._endpoints.clear()

    def add_host(self, name: str, profile: LinkProfile | None = None) -> Host:
        if name in self.hosts:
            raise ValueError(f"host {name} already exists")
        host = Host(name, profile or LinkProfile())
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def connect(self, server_name: str, port: int) -> ConnectAttempt:
        """Open a TCP-like connection from the measurement client.

        Returns a :class:`ConnectAttempt`; the handshake needs one RTT
        of virtual time, so callers run the simulation until
        ``attempt.established`` (or ``attempt.refused``).
        """
        if self.closed:
            raise RuntimeError("connect on a closed network")
        attempt = ConnectAttempt(self.sim)
        server = self.hosts.get(server_name)
        if server is None:
            # No such host: model as immediate refusal after one RTT
            # (an RST from an intermediate router would be faster, but
            # the distinction is irrelevant to the probes).
            self.sim.call_later(0.0, attempt._complete, None)
            return attempt

        listener = server.listener(port)
        profile = server.profile
        if listener is None:
            self.sim.call_later(profile.rtt, attempt._complete, None)
            return attempt

        self._connection_counter += 1
        fault = None
        if self.fault_session is not None:
            fault = self.fault_session.draw(
                server_name, port, self._connection_counter
            )
            if fault is not None and fault.kind is FaultKind.REFUSE:
                # The SYN is answered with RST: same observable shape as
                # a missing listener, one RTT later.
                self.sim.call_later(profile.rtt, attempt._complete, None)
                return attempt

        # Both ends draw loss from the same per-connection stream;
        # parallel connections to one host contend for its access link.
        rng_key = (self.seed, server_name, port, self._connection_counter)
        client_end = Endpoint(
            self.sim, (server_name, port, True), profile, server.uplink, rng_key
        )
        server_end = Endpoint(
            self.sim, (server_name, port, False), profile, server.downlink, rng_key
        )
        client_end.peer = server_end
        server_end.peer = client_end
        self._endpoints += (client_end, server_end)
        # Injected faults ride on the server side: its outbound stream
        # is filtered and its inbound delivery can become an RST.
        server_end.fault = fault

        # SYN out + SYN-ACK back: one RTT plus the server kernel's
        # (tiny) turnaround.  The final ACK piggybacks on first data.
        self.sim.call_later(
            profile.rtt + server.kernel_delay,
            attempt._handshake_done,
            listener,
            server_end,
            client_end,
        )
        return attempt
