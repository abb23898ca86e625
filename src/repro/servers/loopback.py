"""Loopback bridge: simulated vendor engines behind real TCP sockets.

The testbed engines (:class:`~repro.servers.engine.H2Server`) are pure
sans-IO state machines driven by a discrete-event
:class:`~repro.net.clock.Simulation`.  This module puts them on the
other end of *real* TCP sockets so the socket transport backend
(:mod:`repro.net.socket_backend`) can be exercised end-to-end: the
differential test probes ``nginx.testbed`` & co. over 127.0.0.1 and
asserts the feature matrix matches the simulated one cell-for-cell.

Two design points matter for fidelity:

* **Event pacing.**  Draining a site's simulation to quiescence after
  every received TCP chunk would make responses serial — the engine's
  virtual processing delays (~12 ms) would elapse "instantly", so each
  response would complete before the next request arrived and
  multiplexing/priority verdicts would flip.  Instead a
  :class:`_SiteRuntime` maps virtual time onto the wall 1:1 (virtual
  second = wall second) from one anchor, the wall instant of virtual
  t=0: whenever the simulation has a due event, one ``call_at`` is
  armed at the anchor plus the event's virtual time, runs the
  simulation up to exactly that instant, and re-arms for the next
  event.  Each timer is armed from the anchor, never from the last
  event's (already late) firing, so lateness does not carry down a
  chain of link and processing delays.  The loop's poll waits whole
  milliseconds, rounded up, so timers are armed half of that grain
  early to centre the error; the virtual clock may then run that far
  ahead of the wall.  The simulation still runs its events in virtual
  order, so ordering is unchanged.  Engine delays are small
  (0.5–20 ms), so the wall cost is negligible while concurrency
  behaviour is preserved.

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
  (``stable_seed(seed, domain) & 0xFFFFFFFF``), and the engine keys
  each response's draws (processing jitter, cookies, header noise) by
  the request path alone, so both modes draw the same values whichever
  connection carries a request.

The bridge serves its listeners and the connections they accept with
``add_reader`` / ``add_writer`` on a :class:`LoopDriver`, one asyncio
loop on a thread of its own; every socket and simulation touch happens
on that loop, so no locking is needed.  The probing side shares
nothing with it: a :class:`~repro.net.socket_backend.SocketBackend`
serves its own sockets on the probing thread.
:meth:`LoopbackBridge.resolver` returns the ``{(domain, port): (host,
port)}`` mapping the backend uses to route simulated domains onto the
loopback listeners.

A connection ends the way a simulated universe does (DESIGN §8): once
its close has been delivered to the engine, the endpoint drops the
engine's handlers, and its socket is already closed and dropped, so
reference counting frees the engine connection and the endpoint
without the cyclic collector.  (An asyncio transport would not go:
it holds a bound method of itself.)
"""

from __future__ import annotations

import asyncio
import socket
import threading
from collections.abc import Callable

from repro.net.clock import Simulation
from repro.net.faults import stable_seed
from repro.servers.engine import H2Server, _ServerConnection
from repro.servers.site import Site

#: Most bytes one readable socket yields in one pass.
_RECV_SIZE = 1 << 16
#: Resolution of the loop's timers: epoll waits whole milliseconds,
#: rounded up, so a timer fires up to one grain after its instant.
#: Timers are armed half a grain early to centre that error on zero.
_TIMER_GRAIN = 1e-3


class LoopDriver:
    """One asyncio event loop on a thread of its own, for the bridge's
    listeners and every connection they accept."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="h2scope-loop", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        try:
            self.loop.run_forever()
        finally:
            self.loop.close()

    def close(self) -> None:
        """Stop the loop once the callbacks queued before this call have
        run, and release it (idempotent)."""
        if self.loop.is_closed():
            return
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10.0)


class _BridgeEndpoint:
    """Server end of a real TCP connection, duck-typing ``Endpoint``.

    The engine's ``_ServerConnection`` attaches its ``on_data`` /
    ``on_close`` handlers here and calls :meth:`send` to answer; the
    socket is read and written on the bridge's loop, and all of it runs
    there.  Both directions are charged a one-way link delay through
    the site's simulation (see the module docstring), so the engine
    observes request bytes ``delay`` virtual seconds after they hit the
    socket and response bytes hit the socket ``delay`` seconds after the
    engine emits them.
    """

    def __init__(self, runtime: "_SiteRuntime", label: str, sock: socket.socket):
        self.runtime = runtime
        self.label = label
        self.on_data: Callable[[bytes], None] | None = None
        self.on_close: Callable[[], None] | None = None
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self._recv_buffer = bytearray()
        self._sock: socket.socket | None = sock
        #: Bytes the kernel has not taken yet; the socket closes once
        #: they are gone if ``_closing``.
        self._outbox = bytearray()
        self._closing = False

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
        if self._sock is None or self._closing:
            return
        if self._outbox:
            self._outbox += data  # behind bytes already waiting
            return
        try:
            sent = self._sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._lost()
            return
        if sent < len(data):
            self._outbox += data[sent:]
            self.runtime.loop.add_writer(self._sock, self._flush)

    def _flush(self) -> None:
        try:
            sent = self._sock.send(self._outbox)
        except BlockingIOError:
            return
        except OSError:
            self._lost()
            return
        del self._outbox[:sent]
        if not self._outbox:
            self.runtime.loop.remove_writer(self._sock)
            if self._closing:
                self._lost()

    def _close_out(self) -> None:
        """The engine's close reaches the socket: stop reading, and
        close once the bytes before it are written."""
        if self._sock is None:
            return
        self._closing = True
        self.runtime.loop.remove_reader(self._sock)
        if not self._outbox:
            self._lost()

    def _readable(self) -> None:
        try:
            data = self._sock.recv(_RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._lost()
            return
        self.bytes_received += len(data)
        self.runtime.after_delay(self._deliver, data)

    def _deliver(self, data: bytes) -> None:
        if self.on_data is not None:
            self.on_data(data)
        else:
            self._recv_buffer.extend(data)

    def _lost(self) -> None:
        """The connection is over, whichever side ended it: close the
        socket, and hand the engine the close one link delay out, behind
        the bytes that came before it."""
        sock, self._sock = self._sock, None
        self.runtime.loop.remove_reader(sock)
        self.runtime.loop.remove_writer(sock)
        sock.close()
        self.runtime.release(self)
        self.runtime.after_delay(self._deliver_close)

    def _deliver_close(self) -> None:
        on_close = None if self.closed else self.on_close
        self.closed = True
        # Nothing is delivered after this: cut the engine <-> endpoint
        # edges (module docstring).
        self.on_data = self.on_close = None
        if on_close is not None:
            on_close()


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
        #: Wall instant corresponding to virtual t=0.  Every timer is
        #: armed from it (:meth:`kick`), and the virtual clock is
        #: re-anchored to it on every external stimulus (see
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
        #: Connections whose socket is still open, by endpoint: a fleet
        #: serves many campaigns, and none may outlive its sockets.
        self.endpoints: dict[_BridgeEndpoint, _ServerConnection] = {}
        #: Connections ever accepted: the next one's engine index (the
        #: guard log's connection number, so it must not restart when
        #: some leave).
        self._accepted = 0

    def accept(self, listener: socket.socket, tls: bool) -> None:
        """Wrap the connection waiting on ``listener`` in an engine
        connection and start reading it."""
        try:
            sock, _ = listener.accept()
        except OSError:  # gone before we got to it
            return
        sock.setblocking(False)
        # As asyncio's transports do: no Nagle delay on small frames.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Anchor the virtual clock first: the connection's guard timers
        # are armed relative to ``sim.now``, which may trail the wall if
        # the site has been idle.
        self._sync()
        kind = "tls" if tls else "clear"
        endpoint = _BridgeEndpoint(self, f"{self.site.domain}:{kind}", sock)
        # Same construction as H2Server._accept_tls/_accept_clear.
        conn = _ServerConnection(
            self.server, endpoint, index=self._accepted, tls=tls
        )
        self._accepted += 1
        self.endpoints[endpoint] = conn
        self.server.connections.append(conn)
        self.loop.add_reader(sock, endpoint._readable)
        self.kick()

    def release(self, endpoint: _BridgeEndpoint) -> None:
        """Forget a connection whose socket is closed.  Events already
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
        events further out keep their armed timers.  A timer fires up
        to half a grain early, so the virtual clock may be that far
        ahead of the wall; then there is nothing to run.  Never called
        while the simulation is mid-run: there ``sim.now`` is the
        executing event's own timestamp and must not jump.
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
        self._timer_due = due
        # From the anchor, not from sim.now: that is the last event's
        # instant, and the last event ran late (module docstring).
        self._timer = self.loop.call_at(
            self._epoch + due - _TIMER_GRAIN / 2, self._fire, due
        )

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
        for endpoint in list(self.endpoints):
            endpoint._lost()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None


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
        self._listeners: list[socket.socket] = []
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
        runtime = _SiteRuntime(
            self._loop, site, self.seed, self.link_rtt, record_frames
        )
        self._runtimes[site.domain] = runtime
        mapping: dict[tuple[str, int], tuple[str, int]] = {}
        for probe_port, tls in ((443, True), (80, False)):
            listener = socket.create_server(("127.0.0.1", 0), backlog=100)
            listener.setblocking(False)
            self._listeners.append(listener)
            # Connects before the loop runs this wait in the backlog.
            self._loop.call_soon_threadsafe(
                self._loop.add_reader, listener, runtime.accept, listener, tls
            )
            mapping[(site.domain, probe_port)] = listener.getsockname()[:2]
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
        # Queued ahead of the driver's stop, so it runs on the loop first.
        self._loop.call_soon_threadsafe(self._shutdown)
        self._driver.close()

    def _shutdown(self) -> None:
        for listener in self._listeners:
            self._loop.remove_reader(listener)
            listener.close()
        for runtime in self._runtimes.values():
            runtime.close()

    def __enter__(self) -> "LoopbackBridge":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
