"""Loopback bridge: simulated vendor engines behind real TCP sockets.

The testbed engines (:class:`~repro.servers.engine.H2Server`) are pure
sans-IO state machines driven by a discrete-event
:class:`~repro.net.clock.Simulation`.  This module puts them on the
other end of *real* asyncio sockets so the socket transport backend
(:mod:`repro.net.socket_backend`) can be exercised end-to-end: the
differential test probes ``nginx.testbed`` & co. over 127.0.0.1 and
asserts the feature matrix matches the simulated one cell-for-cell.

Two design points matter for fidelity:

* **Event pacing.**  Draining a site's simulation to quiescence after
  every received TCP chunk would make responses serial — the engine's
  virtual processing delays (~12 ms) would elapse "instantly", so each
  response would complete before the next request arrived and
  multiplexing/priority verdicts would flip.  Instead a
  :class:`_SiteRuntime` maps virtual delays onto asyncio timers 1:1
  (virtual second = wall second): whenever the simulation has a due
  event, one ``call_later`` fires at its wall-clock due time, runs the
  simulation up to exactly that instant, and re-arms for the next
  event.  Engine delays are small (0.5–20 ms), so the wall cost is
  negligible while concurrency behaviour is preserved.

* **Link latency.**  On bare loopback the client's WINDOW_UPDATEs
  return in microseconds, so the first response can stream to
  completion before the next request's processing delay has even
  elapsed — serialising responses that the simulator (whose default
  link has a 50 ms RTT) delivers interleaved.  The bridge therefore
  charges a one-way delay on every byte in both directions, routed
  through the site's own simulation so ordering is preserved exactly
  (the event queue breaks timestamp ties by insertion order).

* **Seeding.**  Each site's engine is seeded exactly like
  :func:`~repro.servers.site.deploy_site`
  (``stable_seed(seed, domain) & 0xFFFFFFFF``), and probes run
  sequentially, so per-connection RNG draws (HPACK noise, jitter) come
  from the same generators in both modes.

The bridge hosts its listeners on a
:class:`~repro.net.socket_backend.LoopDriver` of its own; every
simulation touch happens on that loop, so no locking is needed.
:meth:`LoopbackBridge.resolver` returns the ``{(domain, port):
(host, port)}`` mapping :class:`~repro.net.socket_backend.SocketBackend`
uses to route simulated domains onto the loopback listeners.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable

from repro.net.clock import Simulation
from repro.net.faults import stable_seed
from repro.net.socket_backend import LoopDriver
from repro.servers.engine import H2Server, _ServerConnection
from repro.servers.site import Site


class _BridgeEndpoint:
    """Server end of a real TCP connection, duck-typing ``Endpoint``.

    The engine's ``_ServerConnection`` attaches its ``on_data`` /
    ``on_close`` handlers here and calls :meth:`send` to answer; all of
    it runs on the bridge's event loop.  Both directions are charged a
    one-way link delay through the site's simulation (see the module
    docstring), so the engine observes request bytes ``delay`` virtual
    seconds after they hit the socket and response bytes hit the
    socket ``delay`` seconds after the engine emits them.
    """

    def __init__(self, runtime: "_SiteRuntime", label: str):
        self.runtime = runtime
        self.label = label
        self.on_data: Callable[[bytes], None] | None = None
        self.on_close: Callable[[], None] | None = None
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self._recv_buffer = bytearray()
        self._transport: asyncio.Transport | None = None

    # -- engine-facing side ------------------------------------------------

    def send(self, data: bytes) -> None:
        if self.closed:
            raise ConnectionError(f"{self.label}: send on closed connection")
        if not data:
            return
        self.bytes_sent += len(data)
        self.runtime.after_delay(self._write_out, data)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.runtime.after_delay(self._close_out)

    def drain(self) -> bytes:
        data = bytes(self._recv_buffer)
        self._recv_buffer.clear()
        return data

    # -- socket-facing side ------------------------------------------------

    def _write_out(self, data: bytes) -> None:
        if self._transport is not None and not self._transport.is_closing():
            self._transport.write(data)

    def _close_out(self) -> None:
        if self._transport is not None:
            self._transport.close()

    def _feed(self, data: bytes) -> None:
        self.bytes_received += len(data)
        self.runtime.after_delay(self._deliver, data)

    def _deliver(self, data: bytes) -> None:
        if self.on_data is not None:
            self.on_data(data)
        else:
            self._recv_buffer.extend(data)

    def _peer_closed(self) -> None:
        self.runtime.after_delay(self._deliver_close)

    def _deliver_close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.on_close is not None:
            self.on_close()


class _ServerProtocol(asyncio.Protocol):
    """Feeds one :class:`_BridgeEndpoint` and kicks the site runtime."""

    def __init__(self, runtime: "_SiteRuntime", tls: bool):
        self.runtime = runtime
        self.tls = tls
        self.endpoint: _BridgeEndpoint | None = None

    def connection_made(self, transport) -> None:
        self.endpoint = self.runtime.accept(transport, tls=self.tls)

    def data_received(self, data: bytes) -> None:
        assert self.endpoint is not None
        self.endpoint._feed(data)
        self.runtime.kick()

    def connection_lost(self, exc) -> None:
        if self.endpoint is not None:
            self.endpoint._peer_closed()
            self.runtime.release(self.endpoint)
        self.runtime.kick()


class _SiteRuntime:
    """One site's engine, simulation, and virtual-to-wall event pacing."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        site: Site,
        seed: int,
        link_rtt: float,
        record_frames: bool = False,
    ):
        self.loop = loop
        self.site = site
        self.delay = link_rtt / 2.0  # one-way, charged per direction
        self.sim = Simulation()
        #: Wall instant corresponding to virtual t=0.  The virtual clock
        #: is re-anchored to this on every external stimulus (see
        #: :meth:`_sync`): without it the simulation's ``now`` lags the
        #: wall whenever the event queue is sparse, and long timers —
        #: the engines' abuse-guard deadlines — would recede by that lag
        #: every time a new byte arrived.
        self._epoch = loop.time()
        self.server = H2Server(
            self.sim,
            site.profile,
            site.website,
            # Mirror deploy_site so both modes draw from the same RNGs.
            seed=stable_seed(seed, site.domain) & 0xFFFFFFFF,
            record_frames=record_frames,
        )
        self._timer: asyncio.TimerHandle | None = None
        self._timer_due: float | None = None
        self._running = False
        #: Connections whose transport is still up, by endpoint: a fleet
        #: serves many campaigns, and none may outlive its sockets.
        self.endpoints: dict[_BridgeEndpoint, _ServerConnection] = {}
        #: Connections ever accepted: the next one's engine index (an
        #: input of its RNG seed, so it must not restart when some leave).
        self._accepted = 0

    def accept(self, transport: asyncio.Transport, tls: bool) -> _BridgeEndpoint:
        """Wrap a fresh TCP connection in an engine connection."""
        # Anchor the virtual clock first: the connection's guard timers
        # are armed relative to ``sim.now``, which may trail the wall if
        # the site has been idle.
        self._sync()
        kind = "tls" if tls else "clear"
        endpoint = _BridgeEndpoint(self, f"{self.site.domain}:{kind}")
        endpoint._transport = transport
        # Same construction as H2Server._accept_tls/_accept_clear.
        conn = _ServerConnection(
            self.server, endpoint, index=self._accepted, tls=tls
        )
        self._accepted += 1
        self.endpoints[endpoint] = conn
        self.server.connections.append(conn)
        self.kick()
        return endpoint

    def release(self, endpoint: _BridgeEndpoint) -> None:
        """Forget a connection whose transport is lost.  Events already
        queued for it (the engine's ``on_close``, one link delay out)
        hold their own references."""
        conn = self.endpoints.pop(endpoint, None)
        if conn is not None:
            self.server.connections.remove(conn)

    # -- pacing -----------------------------------------------------------

    def _sync(self) -> None:
        """Advance the virtual clock to the wall-equivalent instant.

        Virtual events due before that instant run now (their wall
        timers would have fired by now anyway, modulo scheduler slop);
        events further out keep their armed timers.  Never called while
        the simulation is mid-run: there ``sim.now`` is the executing
        event's own timestamp and must not jump.
        """
        if self._running:
            return
        wall_now = self.loop.time() - self._epoch
        if wall_now <= self.sim.now:
            return
        self._running = True
        try:
            self.sim.run(until=wall_now)
        finally:
            self._running = False

    def after_delay(self, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` one link-delay from now (simulation-ordered)."""
        self._sync()
        self.sim.call_later(self.delay, fn, *args)
        self.kick()

    def kick(self) -> None:
        """(Re-)arm the wall timer for the simulation's earliest event."""
        if self._running:
            return  # _fire re-kicks once the current batch finishes
        due = self.sim.next_event_time()
        if due is None:
            return
        if self._timer is not None:
            if self._timer_due is not None and self._timer_due <= due:
                return  # already armed for this (or an earlier) event
            self._timer.cancel()
        delay = max(0.0, due - self.sim.now)
        self._timer_due = due
        self._timer = self.loop.call_later(delay, self._fire, due)

    def _fire(self, due: float) -> None:
        self._timer = None
        self._timer_due = None
        self._running = True
        try:
            self.sim.run(until=max(due, self.sim.now))
        finally:
            self._running = False
        self.kick()

    def close(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        for endpoint in list(self.endpoints):
            endpoint._close_out()


class LoopbackBridge:
    """Serves simulated vendor engines over real loopback TCP sockets.

    Usage::

        bridge = LoopbackBridge(seed=0)
        bridge.serve(site)                      # one or more sites
        backend = SocketBackend(resolver=bridge.resolver(), ...)
        ...probe f"{site.domain}" over real sockets...
        bridge.close()

    Also usable as a context manager.  ``serve`` binds two ephemeral
    listeners per site: one standing in for port 443 (the simulated
    TLS handshake runs in-band over the byte stream, as in the
    simulator) and one for cleartext port 80.
    """

    def __init__(self, seed: int = 0, link_rtt: float = 0.02):
        self.seed = seed
        #: Emulated round-trip time (seconds) between probe and engine.
        #: Must stay well above the engines' processing jitter so that
        #: concurrent responses overlap the way they do in the simulator
        #: (see module docstring); 20 ms is a good speed/fidelity spot.
        self.link_rtt = link_rtt
        self._driver = LoopDriver()
        self._loop = self._driver.loop
        self._runtimes: dict[str, _SiteRuntime] = {}
        self._servers: list[asyncio.AbstractServer] = []
        self._addresses: dict[tuple[str, int], tuple[str, int]] = {}
        self._closed = False

    # -- serving ----------------------------------------------------------

    def serve(
        self, site: Site, record_frames: bool = False
    ) -> dict[tuple[str, int], tuple[str, int]]:
        """Deploy ``site`` on two loopback listeners; returns its address
        mapping ``{(domain, 443): (host, port), (domain, 80): ...}``.
        ``record_frames`` is :func:`~repro.servers.site.deploy_site`'s."""
        if self._closed:
            raise RuntimeError("bridge is closed")
        future = asyncio.run_coroutine_threadsafe(
            self._serve(site, record_frames), self._loop
        )
        return future.result(timeout=30)

    async def _serve(
        self, site: Site, record_frames: bool
    ) -> dict[tuple[str, int], tuple[str, int]]:
        runtime = _SiteRuntime(
            self._loop, site, self.seed, self.link_rtt, record_frames
        )
        self._runtimes[site.domain] = runtime
        mapping: dict[tuple[str, int], tuple[str, int]] = {}
        for probe_port, tls in ((443, True), (80, False)):
            server = await self._loop.create_server(
                lambda tls=tls: _ServerProtocol(runtime, tls), "127.0.0.1", 0
            )
            self._servers.append(server)
            host, port = server.sockets[0].getsockname()[:2]
            mapping[(site.domain, probe_port)] = (host, port)
        self._addresses.update(mapping)
        return mapping

    def resolver(self) -> dict[tuple[str, int], tuple[str, int]]:
        """Address mapping for :class:`SocketBackend`'s ``resolver=``."""
        return dict(self._addresses)

    def engine(self, domain: str):
        """The :class:`~repro.servers.engine.H2Server` behind ``domain``.

        The engine runs on the bridge's loop thread; callers on other
        threads must treat reads as best-effort samples (the attack
        battery's loopback metric sampling does exactly that).
        """
        return self._runtimes[domain].server

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        future = asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop)
        future.result(timeout=30)
        # The driver gives the transport closes their slices, then
        # closes the loop.
        self._driver.close()

    async def _shutdown(self) -> None:
        for server in self._servers:
            server.close()
        for runtime in self._runtimes.values():
            runtime.close()
        for server in self._servers:
            await server.wait_closed()

    def __enter__(self) -> "LoopbackBridge":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
