"""Real-socket transport backend over asyncio TCP.

Implements the :class:`repro.net.backend.TransportBackend` contract
against the operating system's TCP stack with wall-clock deadlines.
The probe driver stays synchronous: every socket lives on an asyncio
loop hosted by a :class:`LoopDriver` thread, and the probing thread
blocks inside :meth:`SocketBackend.run_until` on a per-backend wakeup
event, so from the probes' point of view a socket connection behaves
exactly like a simulated one — bytes arrive through ``on_data``
callbacks while the client is blocked inside a wait.

Time is the loop's monotonic clock.

Name resolution is pluggable so hermetic tests can map simulated
domains onto loopback ports (see :class:`repro.servers.loopback`): a
``resolver`` is either a ``{(domain, port): (host, port)}`` mapping or
a callable returning such a pair (or ``None`` for "no such host").

Loop ownership: ``SocketBackend(driver=None)`` starts a
:class:`LoopDriver` of its own and closes it in ``close()``; a live
campaign passes one ``driver=`` to every session so all sockets
multiplex onto a single loop.  Either way the delivery contract keeps
the sans-IO client single-threaded: loop callbacks only *enqueue*
(received bytes into per-endpoint inboxes, completed connects into a
ready queue) and set the wakeup; the session's thread pumps those
queues inside ``run_until`` / ``sleep_until``, so ``on_data`` /
``on_close`` / ``on_connect`` — and all client state they touch — run
on the probing thread only.  Writes are marshalled to the loop with
``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from collections import deque
from collections.abc import Callable

from repro.net.backend import TransportBackend

#: Upper bound on one wakeup wait.  The wakeup event makes delivery
#: latency ~0; the cap is belt-and-braces against a lost-wakeup bug
#: ever wedging a session forever.
_WAKEUP_CAP = 0.25


def lookup(resolver, domain: str, port: int) -> tuple[str, int] | None:
    """Ask a mapping or callable ``resolver`` (module docstring) for
    ``(domain, port)``'s socket address; ``None`` is "no such host"."""
    if callable(resolver):
        return resolver(domain, port)
    return resolver.get((domain, port))


class LoopDriver:
    """One asyncio event loop on one thread, shared by many backends.

    All of a campaign's sockets multiplex onto this single loop and
    each session's ``run_until`` blocks on an event the loop signals
    when *that* backend has activity.  See the module docstring for the
    delivery contract (loop thread enqueues, session thread pumps).
    The loopback bridge's listeners live on a driver of their own.
    """

    def __init__(self) -> None:
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="h2scope-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()

    def _run(self) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)
        loop.call_soon(self._started.set)
        try:
            loop.run_forever()
            # Stopped by close(): reap connects a closing backend has
            # just cancelled, then give deferred transport closes their
            # slices (unregister, _call_connection_lost), so no task or
            # fd outlives the loop.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            for _ in range(3):
                loop.run_until_complete(asyncio.sleep(0))
        finally:
            loop.close()

    @property
    def loop(self):
        return self._loop

    def close(self) -> None:
        """Stop and release the loop (idempotent)."""
        if self._loop.is_closed():
            return
        try:
            self._loop.call_soon_threadsafe(self._loop.stop)
        except RuntimeError:  # pragma: no cover - already stopping
            pass
        self._thread.join(timeout=10.0)

    def __enter__(self) -> "LoopDriver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SocketEndpoint:
    """Client end of a real TCP connection, duck-typing ``Endpoint``.

    The protocol fires on the loop's thread, so ``_feed`` /
    ``_peer_closed`` only enqueue into ``_inbox`` under ``_lock``; the
    owning backend's pump delivers on the session thread, and writes go
    the other way via ``call_soon_threadsafe``.
    """

    def __init__(self, label: str, backend: "SocketBackend | None" = None):
        self.label = label
        self.on_data: Callable[[bytes], None] | None = None
        self.on_close: Callable[[], None] | None = None
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self._recv_buffer = bytearray()
        self._transport: asyncio.Transport | None = None
        self._backend = backend
        self._lock = threading.Lock()
        self._inbox: list[bytes] = []
        self._pending_close = False

    # -- sending ----------------------------------------------------------

    def send(self, data: bytes) -> None:
        if self.closed:
            raise ConnectionError(f"{self.label}: send on closed connection")
        if not data:
            return
        assert self._transport is not None
        self.bytes_sent += len(data)
        self._backend._loop.call_soon_threadsafe(self._write_on_loop, data)

    def _write_on_loop(self, data: bytes) -> None:
        transport = self._transport
        if transport is not None and not transport.is_closing():
            transport.write(data)

    # -- receiving (called from the protocol, on the loop thread) ----------

    def _feed(self, data: bytes) -> None:
        with self._lock:
            self._inbox.append(data)
        self._backend._wakeup.set()

    def drain(self) -> bytes:
        data = bytes(self._recv_buffer)
        self._recv_buffer.clear()
        return data

    def _pump(self) -> None:
        """Deliver queued bytes/close on the session thread.

        Bytes queued before a close are always delivered before the
        close; a close racing fresh data re-loops until the inbox is
        observed empty *after* the close flag, so nothing is dropped.
        """
        while True:
            with self._lock:
                chunks = self._inbox
                self._inbox = []
                pending_close = self._pending_close and not chunks
            for data in chunks:
                self.bytes_received += len(data)
                if self.on_data is not None:
                    self.on_data(data)
                else:
                    self._recv_buffer.extend(data)
            if chunks:
                continue
            if pending_close and not self.closed:
                self.closed = True
                if self.on_close is not None:
                    self.on_close()
            return

    # -- closing ----------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        transport = self._transport
        if transport is None:
            return
        try:
            self._backend._loop.call_soon_threadsafe(transport.close)
        except RuntimeError:  # driver loop already closed
            pass

    def _peer_closed(self) -> None:
        with self._lock:
            self._pending_close = True
        self._backend._wakeup.set()


class _ClientProtocol(asyncio.Protocol):
    """Feeds a :class:`SocketEndpoint` from the asyncio loop."""

    def __init__(self, endpoint: SocketEndpoint):
        self.endpoint = endpoint

    def connection_made(self, transport) -> None:
        self.endpoint._transport = transport

    def data_received(self, data: bytes) -> None:
        self.endpoint._feed(data)

    def connection_lost(self, exc) -> None:
        self.endpoint._peer_closed()


class SocketConnectAttempt:
    """Pending real TCP connect; same observable surface as simulated."""

    def __init__(self, backend: "SocketBackend"):
        self._backend = backend
        self.established = False
        self.refused = False
        #: Set when the failure was name resolution (no such host),
        #: not a live host declining: callers map it onto the DNS
        #: error class instead of retrying a transient refusal.
        self.dns_failure = False
        self.endpoint: SocketEndpoint | None = None
        self.started_at = backend.now
        self.completed_at: float | None = None
        self.on_connect: Callable[[SocketEndpoint], None] | None = None

    @property
    def handshake_rtt(self) -> float | None:
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    def _complete(self, endpoint: SocketEndpoint | None) -> None:
        if self.completed_at is not None:
            return  # already terminal (e.g. cancelled during close())
        self.completed_at = self._backend.now
        if endpoint is None:
            self.refused = True
        else:
            self.established = True
            self.endpoint = endpoint
            if self.on_connect is not None:
                self.on_connect(endpoint)


class SocketBackend(TransportBackend):
    """Wall-clock transport over asyncio TCP sockets."""

    def __init__(
        self,
        resolver=None,
        timeout_scale: float = 1.0,
        connect_timeout: float = 10.0,
        gate: Callable[[str, int], None] | None = None,
        driver=None,
    ):
        self.timeout_scale = timeout_scale
        self.connect_timeout = connect_timeout
        self._resolver = resolver
        #: Politeness hook: called (and allowed to block) before every
        #: connection attempt, with the probe-level ``(domain, port)``.
        #: The live campaign layer installs its per-host-gap gate and
        #: global rate limiter here; ``None`` means no throttling.
        self._gate = gate
        #: The loop host this backend started itself (``driver=None``)
        #: and must close; a ``driver`` handed in (anything with a
        #: running ``.loop``) stays its owner's to close.
        self._own_driver = None
        if driver is None:
            driver = self._own_driver = LoopDriver()
        self._loop = driver.loop
        self._endpoints: list[SocketEndpoint] = []
        self._attempts: list[SocketConnectAttempt] = []
        #: concurrent.futures handles for in-flight
        #: run_coroutine_threadsafe connects, cancellable from close().
        self._cfutures: set = set()
        #: Connects completed on the loop thread, awaiting
        #: ``attempt._complete`` on the session thread.
        self._ready: deque[tuple[SocketConnectAttempt, SocketEndpoint | None]] = (
            deque()
        )
        self._wakeup = threading.Event()
        self._closed = False
        #: Per-attempt probing policy slot (see resilience layer).
        self.probe_policy = None

    # -- resolution -------------------------------------------------------

    def resolve(self, domain: str, port: int) -> tuple[str, int] | None:
        """Map a probe-level (domain, port) to a socket address."""
        if self._resolver is None:
            return (domain, port)  # the OS resolves at connect time
        return lookup(self._resolver, domain, port)

    # -- connections ------------------------------------------------------

    def connect(self, domain: str, port: int) -> SocketConnectAttempt:
        if self._closed:
            raise ConnectionError("socket backend is closed")
        if self._gate is not None:
            # Politeness: may block the probing thread until the host's
            # inter-contact gap has elapsed and a rate token is free.
            self._gate(domain, port)
        attempt = SocketConnectAttempt(self)
        self._attempts.append(attempt)
        try:
            address = self.resolve(domain, port)
        except socket.gaierror:
            address = None
        if address is None:
            # No such host: resolve to a terminal failure on the next
            # pump so callers still go through their normal wait.
            attempt.dns_failure = True
            self._enqueue_ready(attempt, None)
            return attempt

        endpoint = SocketEndpoint(f"client->{domain}:{port}", self)

        async def _establish() -> None:
            host, real_port = address
            try:
                transport, _ = await asyncio.wait_for(
                    self._loop.create_connection(
                        lambda: _ClientProtocol(endpoint), host, real_port
                    ),
                    timeout=self.connect_timeout,
                )
            except asyncio.CancelledError:
                # close() tore us down mid-connect: leave a terminal
                # refusal behind for anyone still holding the attempt.
                self._enqueue_ready(attempt, None)
                raise
            except socket.gaierror:
                attempt.dns_failure = True
                self._enqueue_ready(attempt, None)
                return
            except (OSError, asyncio.TimeoutError):
                self._enqueue_ready(attempt, None)
                return
            if self._closed:
                transport.close()
                self._enqueue_ready(attempt, None)
                return
            self._enqueue_ready(attempt, endpoint)

        future = asyncio.run_coroutine_threadsafe(_establish(), self._loop)
        self._cfutures.add(future)
        future.add_done_callback(self._cfutures.discard)
        return attempt

    def _enqueue_ready(
        self, attempt: SocketConnectAttempt, endpoint: SocketEndpoint | None
    ) -> None:
        """Terminal connect outcome, queued from whichever thread found
        it so ``attempt.on_connect`` — client code — runs on the session
        thread during the next pump."""
        self._ready.append((attempt, endpoint))
        self._wakeup.set()

    def _pump(self) -> None:
        """Session-thread delivery: complete ready connects, then drain
        every endpoint's inbox."""
        while True:
            try:
                attempt, endpoint = self._ready.popleft()
            except IndexError:
                break
            if endpoint is not None:
                self._endpoints.append(endpoint)
            attempt._complete(endpoint)
        for endpoint in self._endpoints:
            endpoint._pump()

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._loop.time()

    def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        # clear -> pump -> predicate -> wait is lost-wakeup-free: any
        # enqueue after the clear sets the event, so the wait returns
        # immediately and the next pump delivers it.
        self._pump()
        if predicate():
            return True
        deadline = self._loop.time() + timeout
        while True:
            self._wakeup.clear()
            self._pump()
            if predicate():
                return True
            remaining = deadline - self._loop.time()
            if remaining <= 0:
                self._pump()
                return predicate()
            self._wakeup.wait(min(remaining, _WAKEUP_CAP))

    def sleep_until(self, when: float) -> None:
        # Keep pumping while asleep so inboxes drain during the wait,
        # exactly as they do inside run_until.
        while True:
            delay = when - self._loop.time()
            if delay <= 0:
                return
            self._wakeup.clear()
            self._pump()
            self._wakeup.wait(min(delay, _WAKEUP_CAP))

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Tear the backend down completely: cancel in-flight connect
        attempts, close every live transport, and release the loop if
        this backend started it.

        After close() no task is left pending (so the interpreter never
        logs "Task was destroyed but it is pending"), every file
        descriptor the backend opened is closed, and every outstanding
        :class:`SocketConnectAttempt` has reached a terminal state so
        a caller blocked on ``established or refused`` can make
        progress.  Idempotent.  A loop handed in as ``driver=`` belongs
        to its owner and stays running: only this backend's futures,
        transports and attempts are torn down.
        """
        if self._closed:
            return
        self._closed = True
        # 1. Cancel in-flight connects.  A cancelled _establish enqueues
        #    a terminal refusal from the loop thread; step 4 resolves
        #    any attempt the cancellation beat to the queue.
        for future in list(self._cfutures):
            future.cancel()
        # 2. Flush completions that already happened, so every live
        #    endpoint is in self._endpoints.
        self._pump()
        # 3. Close this backend's transports on the loop thread.
        endpoints = list(self._endpoints)
        done = threading.Event()

        def _teardown() -> None:
            try:
                for endpoint in endpoints:
                    transport = endpoint._transport
                    if transport is not None:
                        transport.close()
            finally:
                done.set()

        try:
            self._loop.call_soon_threadsafe(_teardown)
        except RuntimeError:  # driver already gone; fds die with it
            pass
        else:
            done.wait(timeout=5.0)
        # 4. Deliver what arrived during teardown, then force every
        #    attempt terminal so no caller stays blocked.
        self._pump()
        for attempt in self._attempts:
            attempt._complete(None)
        # 5. A loop of our own winds down with us: the driver reaps the
        #    cancelled connects and lets the transport closes finish.
        if self._own_driver is not None:
            self._own_driver.close()
