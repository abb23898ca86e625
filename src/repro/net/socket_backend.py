"""Real-socket transport backend: non-blocking sockets on one selector.

Implements the :class:`repro.net.backend.TransportBackend` contract
against the operating system's TCP stack with wall-clock deadlines.
Each :class:`SocketBackend` owns one :class:`selectors.DefaultSelector`
and the non-blocking sockets it opened, and nothing else touches them:
:meth:`SocketBackend.run_until` and :meth:`SocketBackend.sleep_until`
call ``select()`` with the remaining deadline and dispatch whatever is
ready — a connect completing, bytes arriving, a peer closing — on the
calling thread.  So ``on_connect`` / ``on_data`` / ``on_close``, and
all client state they touch, run on the probing thread, and from the
probes' point of view a socket connection behaves exactly like a
simulated one: bytes arrive through callbacks while the client is
blocked inside a wait.  As in a sans-IO stack, the caller owns the
loop: no other thread, and nothing handed between threads.

Time is the monotonic clock.

Name resolution is pluggable so hermetic tests can map simulated
domains onto loopback ports (see :class:`repro.servers.loopback`): a
``resolver`` is either a ``{(domain, port): (host, port)}`` mapping or
a callable returning such a pair (or ``None`` for "no such host").
Without one, ``getaddrinfo`` runs inside :meth:`SocketBackend.connect`.
"""

from __future__ import annotations

import errno
import selectors
import socket
import time
from collections.abc import Callable

from repro.net.backend import TransportBackend

#: Most bytes one readable socket yields in one pass.
_RECV_SIZE = 1 << 16
#: ``connect_ex`` results of a non-blocking connect still under way.
_IN_PROGRESS = (0, errno.EINPROGRESS, errno.EAGAIN, errno.EWOULDBLOCK)
_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE


def lookup(resolver, domain: str, port: int) -> tuple[str, int] | None:
    """Ask a mapping or callable ``resolver`` (module docstring) for
    ``(domain, port)``'s socket address; ``None`` is "no such host"."""
    if callable(resolver):
        return resolver(domain, port)
    return resolver.get((domain, port))


class SocketEndpoint:
    """Client end of a real TCP connection, duck-typing ``Endpoint``.

    Its socket is registered on the owning backend's selector, which
    reads it inside a wait.  :meth:`send` writes straight to the socket;
    what the kernel does not take waits in ``_outbox`` until the
    selector reports the socket writable (a peer that stops reading
    loses it at :meth:`close`).
    """

    def __init__(self, label: str, sock=None, selector=None):
        self.label = label
        self.on_data: Callable[[bytes], None] | None = None
        self.on_close: Callable[[], None] | None = None
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self._recv_buffer = bytearray()
        self._outbox = bytearray()
        self._sock = sock
        self._selector = selector

    # -- sending ----------------------------------------------------------

    def send(self, data: bytes) -> None:
        if self.closed:
            raise ConnectionError(f"{self.label}: send on closed connection")
        if not data:
            return
        self.bytes_sent += len(data)
        if self._outbox:
            self._outbox += data  # behind bytes already waiting
            return
        try:
            sent = self._sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:
            return  # the peer is gone; the next read delivers the close
        if sent < len(data):
            self._outbox += data[sent:]
            self._selector.modify(self._sock, _READ | _WRITE, self)

    def _flush(self) -> None:
        try:
            sent = self._sock.send(self._outbox)
        except BlockingIOError:
            return
        except OSError:
            sent = len(self._outbox)
        del self._outbox[:sent]
        if not self._outbox:
            self._selector.modify(self._sock, _READ, self)

    # -- receiving (called by the backend, inside a wait) ------------------

    def _ready(self, mask: int) -> None:
        if self._sock is None:
            return  # released earlier in the same pass
        if mask & _WRITE:
            self._flush()
        if not mask & _READ:
            return
        try:
            data = self._sock.recv(_RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            on_close = self.on_close
            self.closed = True
            self._release()
            if on_close is not None:
                on_close()
            return
        self.bytes_received += len(data)
        if self.on_data is not None:
            self.on_data(data)
        else:
            self._recv_buffer.extend(data)

    def drain(self) -> bytes:
        data = bytes(self._recv_buffer)
        self._recv_buffer.clear()
        return data

    # -- closing ----------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._release()

    def _release(self) -> None:
        """Unregister and close the socket and cut every edge out of the
        endpoint, so no callback fires again and reference counting
        frees the endpoint and whatever it called back into."""
        sock, selector = self._sock, self._selector
        self._sock = self._selector = None
        self.on_data = self.on_close = None
        if sock is not None:
            selector.unregister(sock)
            sock.close()


class SocketConnectAttempt:
    """Pending real TCP connect; same observable surface as simulated."""

    def __init__(self, label: str):
        self.label = label
        self.established = False
        self.refused = False
        #: Set when the failure was name resolution (no such host),
        #: not a live host declining: callers map it onto the DNS
        #: error class instead of retrying a transient refusal.
        self.dns_failure = False
        self.endpoint: SocketEndpoint | None = None
        self.started_at = time.monotonic()
        self.completed_at: float | None = None
        self.on_connect: Callable[[SocketEndpoint], None] | None = None
        #: When the attempt ends refused if still pending; an attempt
        #: that failed before reaching the network is due at once.
        self._deadline = self.started_at
        self._sock = None
        self._selector = None

    @property
    def handshake_rtt(self) -> float | None:
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    def _ready(self, mask: int) -> None:
        """The selector reports the connecting socket writable."""
        sock, selector = self._sock, self._selector
        if sock is None:
            return
        if sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR):
            self._complete(None)
            return
        self._sock = self._selector = None
        endpoint = SocketEndpoint(self.label, sock, selector)
        selector.modify(sock, _READ, endpoint)
        self._complete(endpoint)

    def _complete(self, endpoint: SocketEndpoint | None) -> None:
        if self.completed_at is not None:
            return  # already terminal (e.g. refused by close())
        self.completed_at = time.monotonic()
        if endpoint is None:
            self.refused = True
            sock, self._sock = self._sock, None
            if sock is not None:
                self._selector.unregister(sock)
                sock.close()
            self._selector = None
        else:
            self.established = True
            self.endpoint = endpoint
            if self.on_connect is not None:
                self.on_connect(endpoint)


class SocketBackend(TransportBackend):
    """Wall-clock transport over non-blocking TCP sockets."""

    def __init__(
        self,
        resolver=None,
        timeout_scale: float = 1.0,
        connect_timeout: float = 10.0,
        gate: Callable[[str, int], None] | None = None,
    ):
        self.timeout_scale = timeout_scale
        self.connect_timeout = connect_timeout
        self._resolver = resolver
        #: Politeness hook: called (and allowed to block) before every
        #: connection attempt, with the probe-level ``(domain, port)``.
        #: The live campaign layer installs its per-host-gap gate and
        #: global rate limiter here; ``None`` means no throttling.
        self._gate = gate
        self._selector = selectors.DefaultSelector()
        #: Attempts not yet established or refused.
        self._connecting: list[SocketConnectAttempt] = []
        self._closed = False
        #: Per-attempt deadline slot (see resilience layer).
        self.deadline = None

    # -- resolution -------------------------------------------------------

    def resolve(self, domain: str, port: int) -> tuple[str, int] | None:
        """Map a probe-level (domain, port) to a socket address."""
        if self._resolver is None:
            return (domain, port)  # getaddrinfo resolves it at connect
        return lookup(self._resolver, domain, port)

    # -- connections ------------------------------------------------------

    def connect(self, domain: str, port: int) -> SocketConnectAttempt:
        if self._closed:
            raise ConnectionError("socket backend is closed")
        if self._gate is not None:
            # Politeness: may block the probing thread until the host's
            # inter-contact gap has elapsed and a rate token is free.
            self._gate(domain, port)
        attempt = SocketConnectAttempt(f"client->{domain}:{port}")
        self._connecting.append(attempt)
        try:
            address = self.resolve(domain, port)
            infos = address and socket.getaddrinfo(*address, type=socket.SOCK_STREAM)
        except socket.gaierror:
            infos = None
        if not infos:
            # No such host: ends refused on the next pass, so callers
            # still go through their normal wait.
            attempt.dns_failure = True
            return attempt
        family, _, _, _, sockaddr = infos[0]
        sock = None
        try:
            sock = socket.socket(family, socket.SOCK_STREAM)
            sock.setblocking(False)
            # Without it Nagle's algorithm and delayed ACKs stall small
            # request/response exchanges.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if sock.connect_ex(sockaddr) in _IN_PROGRESS:
                self._selector.register(sock, _WRITE, attempt)
                attempt._sock, attempt._selector = sock, self._selector
                attempt._deadline += self.connect_timeout
                return attempt
        except OSError:
            pass
        if sock is not None:
            sock.close()
        return attempt  # refused at once: due on the next pass

    def _poll(self, timeout: float) -> None:
        """One pass: wait up to ``timeout`` (less if a connect falls due
        first) for the sockets, dispatch what is ready, then end every
        overdue connect refused."""
        connecting = self._connecting
        if connecting:
            due = min(attempt._deadline for attempt in connecting)
            timeout = min(timeout, due - time.monotonic())
        for key, mask in self._selector.select(max(timeout, 0.0)):
            key.data._ready(mask)
        if connecting:
            now = time.monotonic()
            for attempt in connecting:
                if attempt._deadline <= now:
                    attempt._complete(None)
            self._connecting = [a for a in connecting if a.completed_at is None]

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        return time.monotonic()

    def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        self._poll(0.0)
        while not predicate():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            self._poll(remaining)
        return True

    def sleep_until(self, when: float) -> None:
        # Keep serving the sockets while asleep, as run_until does.
        while (remaining := when - time.monotonic()) > 0:
            self._poll(remaining)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Unregister and close every socket, end every pending attempt
        refused, and cut the endpoints' edges (idempotent).

        Afterwards no descriptor the backend opened is open and a caller
        blocked on ``established or refused`` can make progress.
        """
        if self._closed:
            return
        self._closed = True
        for key in list(self._selector.get_map().values()):
            if isinstance(key.data, SocketEndpoint):
                key.data.close()
        for attempt in self._connecting:
            attempt._complete(None)
        self._connecting = []
        self._selector.close()
