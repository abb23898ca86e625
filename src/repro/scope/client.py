"""The frame-level probing client.

A :class:`ScopeClient` owns one connection to one site: TCP connect,
TLS hello (ALPN/NPN), then an :class:`~repro.h2.connection.H2Connection`
in **non-strict** mode so probes can send protocol-violating frames
(zero window updates, overflowing increments, self-dependent PRIORITY
frames).  Automatic window replenishment is off by default: most probes
need full manual control of flow-control windows (Algorithm 1 depends
on deliberately exhausting the connection window).

The client is a sans-IO driver: all transport and clock access goes
through a :class:`~repro.net.backend.TransportBackend`, so the same
probe logic runs against the discrete-event simulator (the default,
byte-identical to the pre-abstraction behavior) and against real
asyncio TCP sockets with wall-clock deadlines.  The constructor takes
that backend and nothing else; a simulated universe is reached as
``SimulatedBackend(network)``.

Every received event is timestamped and logged; probes work from that
log.  Frames are not kept: the connection leaves each call's frames in
:attr:`~repro.h2.connection.H2Connection.received`, and the client
passes them to the session's
:class:`~repro.scope.trace.TraceRecorder`, when it has one, which keeps
them only while a probe has asked for its trace.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.h2 import events as ev
from repro.h2.connection import ConnectionConfig, H2Connection, Side
from repro.h2.constants import SettingCode
from repro.h2.errors import H2Error
from repro.h2.frames import PriorityData
from repro.net.backend import TransportBackend
from repro.net.tls import (
    H2,
    HTTP11,
    NPN_PREFERENCES,
    decode_server_hello,
    encode_client_hello,
    negotiate_npn,
)

# Probe modules compare negotiated protocols against these tokens; they
# import them from here so the probe layer never touches repro.net.*
# directly (enforced by tests/scope/test_probe_layering.py).
__all__ = ["H2", "HTTP11", "ScopeClient", "TimedEvent", "DEFAULT_TIMEOUT", "BULK_TIMEOUT", "HEADERS_ONLY_WINDOW", "IWS"]
from repro.scope.resilience import (
    ConnectionRefusedFault,
    ConnectionResetFault,
    Deadline,
    DnsFault,
    ProbeTimeout,
    TlsFault,
)

#: Default budget (backend clock-seconds) for a server-reaction wait.
DEFAULT_TIMEOUT = 8.0
#: Budget for a wait that drains large objects (Algorithm 1).
BULK_TIMEOUT = 120.0
#: The SETTINGS_INITIAL_WINDOW_SIZE identifier, as a ``settings=`` key.
IWS = int(SettingCode.INITIAL_WINDOW_SIZE)
#: The IWS a probe that reads header blocks only (negotiation, HPACK,
#: push) announces and never returns: the most DATA a server sends a
#: stream.  Not below LiteSpeed's 16-octet HEADERS hold nor a hardened
#: server's 1 024-octet slow-read bound (DESIGN §8).
HEADERS_ONLY_WINDOW = 1_024


@dataclass
class TimedEvent:
    """An event with the virtual time it was observed at."""

    at: float
    event: ev.Event


@dataclass
class TlsOutcome:
    alpn_protocol: str | None = None
    npn_protocol: str | None = None
    chosen: str | None = None
    mechanism: str | None = None
    tcp_handshake_rtt: float | None = None


class ScopeClient:
    """One probing connection to one site."""

    def __init__(
        self,
        backend: TransportBackend,
        domain: str,
        port: int = 443,
        alpn: list[str] | None = None,
        offer_npn: bool = True,
        settings: dict[int, int] | None = None,
        auto_window_update: bool = False,
        enable_push: bool | None = None,
        trace=None,
    ):
        self.backend = backend
        self.domain = domain
        self.port = port
        self.alpn = [H2, HTTP11] if alpn is None else alpn
        self.offer_npn = offer_npn
        self.initial_settings = dict(settings or {})
        if enable_push is not None:
            self.initial_settings[2] = int(enable_push)
        self.auto_window_update = auto_window_update

        self.endpoint = None  # duck-typed transport Endpoint
        self.conn: H2Connection | None = None
        self._trace = trace
        self.tls = TlsOutcome()
        self.events: list[TimedEvent] = []
        #: ``events`` by exact event class (they are all leaf classes),
        #: so a wait predicate does not rescan the whole log after
        #: every clock event.
        self._events_by_type: dict[type, list[TimedEvent]] = {}
        self._hello_buffer = b""
        self._mode = "idle"
        #: Bytes that arrived while no parser was live: before the TLS
        #: hello started ("idle") or between hello completion and the
        #: protocol engine attaching ("negotiated"): the negotiation
        #: probe holds a negotiated connection through a second
        #: handshake before attaching, a real TCP stack may coalesce
        #: the server hello with the first protocol bytes into one
        #: segment, and a server can speak before our hello.  They are
        #: replayed when the mode settles.
        self._limbo_buffer = bytearray()
        self._raw_http1 = bytearray()
        self._http1_response_at: float | None = None
        #: Set when the *peer* closed the connection (reset/truncation).
        self.peer_closed = False
        #: Inside :meth:`batch`: sends stay in the connection's buffer.
        self._batching = False

    # ------------------------------------------------------------------
    # Resilience: a failed connect or hello raises its classified
    # ScanFault in every mode, and while the backend carries an
    # attempt's Deadline every wait is clamped to it.
    # ------------------------------------------------------------------

    def _clamp(self, timeout: float, what: str) -> float:
        """Clamp a wait to the attempt's deadline (raising once spent)."""
        deadline: Deadline | None = self.backend.deadline
        if deadline is not None:
            return deadline.clamp(timeout, self.domain, what)
        return timeout

    def _budget(self, timeout: float, what: str) -> float:
        """Scale a probe-level timeout to the backend, then clamp it."""
        backend = self.backend
        if backend.deadline is None and backend.timeout_scale == 1.0:
            return timeout  # nothing to scale or clamp
        return self._clamp(backend.scale(timeout), what)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current backend clock reading (virtual or wall seconds)."""
        return self.backend.now

    def sleep(self, seconds: float) -> None:
        """Let ``seconds`` probe-level seconds elapse (backend-scaled)."""
        self._refuse_wait_in_batch()
        self.backend.sleep(self.backend.scale(seconds))

    def _wait(self, predicate, timeout: float) -> bool:
        """Advance the backend until ``predicate()`` or ``timeout``."""
        self._refuse_wait_in_batch()
        return self.backend.run_until(predicate, timeout)

    def _refuse_wait_in_batch(self) -> None:
        if self._batching:
            raise RuntimeError(
                f"{self.domain}: a wait inside batch() would strand its sends"
            )

    # ------------------------------------------------------------------
    # Connection establishment
    # ------------------------------------------------------------------

    def connect(self, timeout: float = DEFAULT_TIMEOUT) -> None:
        """TCP connect and record the handshake RTT; raises if none is made."""
        attempt = self.backend.connect(self.domain, self.port)
        self._wait(
            lambda: attempt.established or attempt.refused,
            self._budget(timeout, "tcp connect"),
        )
        if not attempt.established:
            # Wall-clock backends flag attempts that died in name
            # resolution; report those as DNS, not refused, so the
            # campaign layer can quarantine instead of retrying.
            if getattr(attempt, "dns_failure", False):
                raise DnsFault(f"{self.domain}:{self.port}: name resolution failed")
            raise ConnectionRefusedFault(
                f"{self.domain}:{self.port}: connection refused"
            )
        self.tls.tcp_handshake_rtt = attempt.handshake_rtt
        self.endpoint = attempt.endpoint
        assert self.endpoint is not None
        self.endpoint.on_data = self._on_data
        self.endpoint.on_close = self._on_close
        # Bytes the server sent before on_data was attached (a server
        # that speaks first, read in the wait that completed the
        # connect or one after it) sit in the endpoint's
        # receive buffer: drain them into the limbo path now instead of
        # stranding them.  The simulator never has any (no time passes
        # between completion and attach), so sim bytes are unaffected.
        pending = self.endpoint.drain()
        if pending:
            self._on_data(pending)

    def tls_handshake(self, timeout: float = DEFAULT_TIMEOUT) -> TlsOutcome:
        """Exchange hellos; sets :attr:`tls` and returns it, or raises."""
        assert self.endpoint is not None, "connect() first"
        self._mode = "hello"
        self.endpoint.send(encode_client_hello(self.alpn, self.offer_npn))
        self._replay_limbo()  # a server that spoke before our hello
        self._wait(
            lambda: self._mode != "hello",
            self._budget(timeout, "tls hello"),
        )
        if self._mode == "reset":
            raise ConnectionResetFault(
                f"{self.domain}:{self.port}: reset during TLS hello"
            )
        if self._mode == "failed":
            raise TlsFault(f"{self.domain}: malformed server hello")
        if self._mode == "hello":
            raise ProbeTimeout(f"{self.domain}: no server hello within {timeout}s")
        return self.tls

    def establish_h2(self, timeout: float = DEFAULT_TIMEOUT) -> bool:
        """connect + TLS + HTTP/2 preface/SETTINGS; False if h2 not chosen."""
        self.connect(timeout=timeout)
        self.tls_handshake(timeout=timeout)
        if self.tls.chosen != H2:
            return False
        self.speak_h2(timeout=timeout)
        return True

    def speak_h2(self, timeout: float = DEFAULT_TIMEOUT) -> None:
        """On a connection whose hello chose h2: :meth:`start_h2`, then
        wait for the server's SETTINGS (or silence)."""
        self.start_h2()
        self.wait_for(
            lambda: ev.SettingsReceived in self._events_by_type, timeout=timeout
        )

    def start_h2(self) -> None:
        """Attach the HTTP/2 engine and send preface + our SETTINGS."""
        config = ConnectionConfig(
            side=Side.CLIENT,
            strict=False,
            auto_ping_ack=True,
            auto_window_update=self.auto_window_update,
            initial_settings=self.initial_settings,
        )
        self.conn = H2Connection(config)
        self._mode = "h2"
        # The preface, our SETTINGS and the ACK of any SETTINGS that came
        # with the server's hello leave in one write (DESIGN §8).
        with self.batch():
            self.conn.initiate()
            self._replay_limbo()

    def _replay_limbo(self) -> None:
        """Feed bytes that arrived before the current mode was entered."""
        if self._limbo_buffer:
            data = bytes(self._limbo_buffer)
            self._limbo_buffer.clear()
            self._on_data(data)

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------

    def _on_data(self, data: bytes) -> None:
        if self._mode == "hello":
            self._hello_buffer += data
            if b"\n" not in self._hello_buffer:
                return
            line, _, rest = self._hello_buffer.partition(b"\n")
            self._hello_buffer = b""
            self._finish_hello(line)
            if rest:
                self._on_data(rest)
            return
        if self._mode == "http1":
            if not self._raw_http1:
                self._http1_response_at = self.backend.now
            self._raw_http1.extend(data)
            return
        if self._mode in ("negotiated", "idle"):
            # Not parsing yet (pre-hello, or between hello completion
            # and engine attach): hold the bytes for _replay_limbo
            # instead of dropping them on the floor.
            self._limbo_buffer.extend(data)
            return
        if self._mode != "h2" or self.conn is None:
            return
        try:
            produced = self.conn.receive_bytes(data)
        except H2Error:
            # A connection error in the peer's bytes: the chunk's events
            # are lost, the frames it carried still reach the trace, and
            # the probe reads whatever the server does next.
            produced = []
        now = self.backend.now
        if self._trace is not None:
            for frame in self.conn.received:
                self._trace.record(now, frame)
        by_type = self._events_by_type
        for event in produced:
            timed = TimedEvent(at=now, event=event)
            self.events.append(timed)
            by_type.setdefault(type(event), []).append(timed)
        self.flush()

    def _on_close(self) -> None:
        """Peer-initiated close (our own ``close()`` never lands here)."""
        self.peer_closed = True
        if self._mode == "hello":
            self._mode = "reset"

    def _finish_hello(self, line: bytes) -> None:
        try:
            alpn_choice, npn_list = decode_server_hello(line)
        except ValueError:
            self._mode = "failed"
            return
        outcome = self.tls
        outcome.alpn_protocol = alpn_choice
        outcome.npn_protocol = negotiate_npn(NPN_PREFERENCES, npn_list)
        if outcome.alpn_protocol is not None:
            outcome.chosen = outcome.alpn_protocol
            outcome.mechanism = "alpn"
        elif outcome.npn_protocol is not None:
            outcome.chosen = outcome.npn_protocol
            outcome.mechanism = "npn"
        self._mode = "negotiated"

    # ------------------------------------------------------------------
    # Outbound helpers
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Hand what the connection has to send to the transport, unless
        a :meth:`batch` is open: then its end does."""
        if (
            self._batching
            or self.conn is None
            or self.endpoint is None
            or self.endpoint.closed
        ):
            return
        data = self.conn.data_to_send()
        if data:
            self.endpoint.send(data)

    @contextmanager
    def batch(self):
        """Send what the block sends in one transport write, at its end.

        A probe's burst of control frames (requests, PRIORITY,
        RST_STREAM, WINDOW_UPDATE) then leaves as one write, as a real
        stack hands its peer every pending frame at once (DESIGN §8).
        Outside a batch every send leaves at once.  A wait inside one
        raises, because the bytes it waits on would not have left; what
        the block sent before still leaves at its end.
        """
        self._batching = True
        try:
            yield
        finally:
            self._batching = False
            self.flush()

    def request(
        self,
        path: str = "/",
        priority: PriorityData | None = None,
        extra_headers: list[tuple[str, str]] | None = None,
    ) -> int:
        """Send a GET request; returns the new stream id."""
        assert self.conn is not None
        stream_id = self.conn.next_stream_id()
        headers: list[tuple[str, str]] = [
            (":method", "GET"),
            (":scheme", "https"),
            (":path", path),
            (":authority", self.domain),
            ("user-agent", "h2scope/1.0"),
        ]
        headers.extend(extra_headers or [])
        self.conn.send_headers(
            stream_id, headers, end_stream=True, priority=priority
        )
        self.flush()
        return stream_id

    def send_settings(self, settings: dict[int, int]) -> None:
        assert self.conn is not None
        self.conn.send_settings(settings)
        self.flush()

    def send_window_update(self, stream_id: int, increment: int) -> None:
        assert self.conn is not None
        self.conn.send_window_update(stream_id, increment)
        self.flush()

    def send_priority(
        self, stream_id: int, depends_on: int, weight: int = 16, exclusive: bool = False
    ) -> None:
        assert self.conn is not None
        self.conn.send_priority(stream_id, depends_on, weight, exclusive)
        self.flush()

    def send_ping(self, payload: bytes = b"h2scope!") -> None:
        assert self.conn is not None
        self.conn.send_ping(payload)
        self.flush()

    def send_rst_stream(self, stream_id: int, error_code: int = 8) -> None:
        assert self.conn is not None
        self.conn.send_rst_stream(stream_id, error_code)
        self.flush()

    # ------------------------------------------------------------------
    # Waiting / inspection
    # ------------------------------------------------------------------

    def wait_for(self, predicate, timeout: float = DEFAULT_TIMEOUT) -> bool:
        """Advance the backend clock until ``predicate()`` or timeout.

        Under :func:`~repro.scope.resilience.run_resilient` the wait is
        additionally bounded by the attempt's deadline;
        :class:`DeadlineExceeded` is raised once the budget is spent.
        """
        return self._wait(predicate, self._budget(timeout, "wait"))

    def settle(self, quiet_period: float = 1.0, timeout: float = 30.0) -> None:
        """Run until no new events arrive for ``quiet_period`` seconds."""
        quiet = self.backend.scale(quiet_period)
        deadline = self.backend.now + self.backend.scale(timeout)
        while self.backend.now < deadline:
            count = len(self.events)
            self._wait(
                lambda: len(self.events) > count,
                self._clamp(min(quiet, deadline - self.backend.now), "wait"),
            )
            if len(self.events) == count:
                return

    def events_of(self, event_type) -> list[TimedEvent]:
        return list(self._events_by_type.get(event_type, ()))

    def headers_for(self, stream_id: int) -> ev.HeadersReceived | None:
        for te in self.events_of(ev.HeadersReceived):
            if te.event.stream_id == stream_id:
                return te.event
        return None

    def close(self) -> None:
        if self.endpoint is not None and not self.endpoint.closed:
            self.endpoint.close()

    # ------------------------------------------------------------------
    # HTTP/1.1 mode (for the Fig. 6 h1-request RTT estimator)
    # ------------------------------------------------------------------

    def upgrade_h2c(self, path: str = "/", timeout: float = DEFAULT_TIMEOUT) -> bool:
        """Attempt an HTTP/1.1 → HTTP/2 cleartext upgrade (RFC 7540 §3.2).

        The client must be connected to a cleartext port (no TLS hello).
        On a 101 response the connection switches to HTTP/2 with the
        upgrading request installed as stream 1; returns whether the
        upgrade succeeded.  A normal HTTP/1.1 response means the server
        declined (or ignores) the Upgrade header.
        """
        import base64

        assert self.endpoint is not None, "connect() first"
        from repro.h2.frames import SettingsFrame

        payload = SettingsFrame(
            settings=[(int(k), int(v)) for k, v in self.initial_settings.items()]
        ).serialize_payload()
        token = base64.urlsafe_b64encode(payload).rstrip(b"=").decode()

        self._mode = "http1"
        self._raw_http1.clear()
        self._replay_limbo()
        self.endpoint.send(
            (
                f"GET {path} HTTP/1.1\r\n"
                f"Host: {self.domain}\r\n"
                "Connection: Upgrade, HTTP2-Settings\r\n"
                "Upgrade: h2c\r\n"
                f"HTTP2-Settings: {token}\r\n\r\n"
            ).encode()
        )
        self._wait(
            lambda: b"\r\n\r\n" in self._raw_http1,
            self._budget(timeout, "h2c upgrade"),
        )
        raw = bytes(self._raw_http1)
        head, _, rest = raw.partition(b"\r\n\r\n")
        if not head.startswith(b"HTTP/1.1 101"):
            return False
        self._raw_http1.clear()
        self.start_h2()  # sends the connection preface + SETTINGS
        assert self.conn is not None
        self.conn.upgrade_stream()
        if rest:
            self._on_data(rest)
        return True

    def http1_get(self, path: str = "/") -> float | None:
        """Issue an HTTP/1.1 GET; returns request→first-byte interval."""
        assert self.endpoint is not None
        self._mode = "http1"
        self._raw_http1.clear()
        self._replay_limbo()
        self._http1_response_at = None
        start = self.backend.now
        self.endpoint.send(
            f"GET {path} HTTP/1.1\r\nHost: {self.domain}\r\n\r\n".encode()
        )
        self._wait(
            lambda: self._http1_response_at is not None,
            self._budget(DEFAULT_TIMEOUT, "http/1.1 response"),
        )
        if self._http1_response_at is None:
            return None
        return self._http1_response_at - start
