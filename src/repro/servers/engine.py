"""The HTTP/2 server engine.

One engine serves every vendor: it is a *real* HTTP/2 server — it
parses actual bytes with :mod:`repro.h2`, maintains stream state, obeys
(or deliberately bends) flow control, schedules DATA frames, pushes,
and compresses headers — while a :class:`~repro.servers.profiles.
ServerProfile` decides every behaviour the paper found to differ
between implementations.

Connection lifecycle::

    TCP accept -> TLS hello exchange (ALPN/NPN) -> h2 | http/1.1
"""

from __future__ import annotations

import base64
import random
from dataclasses import dataclass
from functools import cached_property

from repro.h2 import events as ev
from repro.h2.abuse import AbuseRules
from repro.h2.connection import ConnectionConfig, H2Connection, Side
from repro.h2.constants import DEFAULT_INITIAL_WINDOW_SIZE, ErrorCode, SettingCode
from repro.h2.errors import H2ConnectionError, H2Error
from repro.h2.frames import Frame
from repro.net.clock import Simulation
from repro.net.faults import stable_seed
from repro.net.tls import (
    H2,
    HTTP11,
    NPN_PREFERENCES,
    TlsServerConfig,
    decode_client_hello,
    encode_server_hello,
    negotiate_alpn,
    negotiate_npn,
)
from repro.net.transport import Endpoint, Host
from repro.servers.profiles import ServerProfile, TinyWindowBehavior
from repro.servers.website import Resource, Website

#: Streams with less available window than this are "tiny" (§V-D1).
TINY_WINDOW_THRESHOLD = 16
#: Upper bound on a single DATA chunk, so that concurrent streams
#: interleave even when windows and MAX_FRAME_SIZE are huge.
CHUNK_LIMIT = 16_384
#: Seconds a guard-evicted connection lingers between its terminal
#: GOAWAY and the FIN, so the frame outruns the close on slow links.
GUARD_CLOSE_LINGER = 0.05
#: Increment of the WINDOW_UPDATEs with which an announce-zero server
#: (Nginx, §V-C) reopens the connection window and each stream's.
WINDOW_UPDATE_GRANT = DEFAULT_INITIAL_WINDOW_SIZE
#: PING turnaround, seconds: handled on the protocol fast path, before
#: request processing (the RFC says PING responses *should* get higher
#: priority than anything else).
PING_DELAY = 0.0002
#: Maximum resources pushed per response under the learned push policy.
LEARNED_PUSH_LIMIT = 8


@dataclass
class GuardEvent:
    """One abuse-guard breach: which connection tripped which knob."""

    at: float
    connection: int
    reason: str


@dataclass
class _ResponseTask:
    """One response (or push) being delivered on a stream."""

    stream_id: int
    headers: list[tuple[str, str]]
    #: What the stream serves (``None``: a 404).  The task keeps no
    #: octets: ``_send_chunk`` asks for each DATA frame's as it sends it.
    resource: Resource | None
    size: int
    offset: int = 0
    headers_sent: bool = False
    sent_empty_probe: bool = False
    credit: float = 0.0
    arrival_index: int = 0

    @property
    def remaining(self) -> int:
        return self.size - self.offset

    @property
    def finished(self) -> bool:
        return self.headers_sent and self.remaining == 0


class H2Server:
    """A simulated origin server speaking HTTP/2 and HTTP/1.1."""

    def __init__(
        self,
        sim: Simulation,
        profile: ServerProfile,
        website: Website,
        seed: int = 0,
        record_frames: bool = False,
    ):
        self.sim = sim
        self.profile = profile
        self.website = website
        self.seed = seed
        self.tls = self._make_tls_config()
        #: Read once: nothing reassigns a server's profile or its guards.
        self.guards_enabled = profile.guards.any_enabled
        self.connections: list[_ServerConnection] = []
        #: Learned push state (§VI point 4): for each page, how often
        #: each resource was requested right after it.
        self.follow_counts: dict[str, dict[str, int]] = {}
        #: When set, every connection records its inbound frames into a
        #: :class:`~repro.scope.trace.ConnectionTimeline` (detector and
        #: corpus input).  Off by default: recording is opt-in so the
        #: scan hot path never pays for it.
        self.record_frames = record_frames
        self.timelines: list = []
        #: Every abuse-guard breach, in firing order.
        self.guard_log: list[GuardEvent] = []
        #: One random stream per request path, built on first use: see
        #: :meth:`path_rng`.
        self._path_rngs: dict[str, random.Random] = {}

    @cached_property
    def h2_config(self) -> ConnectionConfig:
        """The configuration every h2 connection of this server runs with,
        built when the first one starts.  One object serves them all:
        nothing reassigns a config or a server's profile."""
        profile = self.profile
        return ConnectionConfig(
            side=Side.SERVER,
            strict=True,
            auto_ping_ack=False,  # handled on the timed fast path
            auto_window_update=True,
            on_zero_window_update_stream=profile.on_zero_window_update_stream,
            on_zero_window_update_connection=profile.on_zero_window_update_connection,
            on_window_overflow_stream=profile.on_window_overflow_stream,
            on_window_overflow_connection=profile.on_window_overflow_connection,
            on_self_dependency=profile.on_self_dependency,
            max_tracked_priority_streams=profile.max_tracked_priority_streams,
            zero_window_update_debug=profile.zero_window_update_debug,
            hpack_send_policy=profile.indexing_policy,
            initial_settings=dict(profile.settings),
            max_peer_header_table_size=profile.max_peer_header_table_size,
        )

    def path_rng(self, path: str) -> random.Random:
        """The stream a response to ``path`` draws its processing delay,
        cookie token and header noise from.  It is keyed by the site and
        the path alone and read in request order: the n-th request for
        ``path`` gets the n-th draw, whichever connection or probe group
        sent it.  So a connection more or fewer moves no draw, but two
        groups that fetch the same path swap draws when they swap turns."""
        rng = self._path_rngs.get(path)
        if rng is None:
            rng = self._path_rngs[path] = random.Random(stable_seed(self.seed, path))
        return rng

    def record_follow(self, page: str, follower: str) -> None:
        """Learn that ``follower`` was requested after ``page``."""
        counts = self.follow_counts.setdefault(page, {})
        counts[follower] = counts.get(follower, 0) + 1

    def learned_push_list(self, page: str) -> list[str]:
        """Most-requested followers of ``page``, most frequent first."""
        counts = self.follow_counts.get(page, {})
        ranked = sorted(counts, key=lambda path: (-counts[path], path))
        return ranked[:LEARNED_PUSH_LIMIT]

    def _make_tls_config(self) -> TlsServerConfig:
        protos = [H2, HTTP11]
        return TlsServerConfig(
            alpn_protocols=protos if self.profile.supports_alpn else None,
            npn_protocols=protos if self.profile.supports_npn else None,
        )

    def install(self, host: Host, port: int = 443, tls: bool = True) -> None:
        """Listen on ``port``; ``tls=False`` serves cleartext HTTP/1.1
        (with Upgrade: h2c if the profile supports it)."""
        if tls:
            host.listen(port, self._accept_tls)
        else:
            host.listen(port, self._accept_clear)

    def _accept_tls(self, endpoint: Endpoint) -> None:
        conn = _ServerConnection(self, endpoint, index=len(self.connections))
        self.connections.append(conn)

    def _accept_clear(self, endpoint: Endpoint) -> None:
        conn = _ServerConnection(
            self, endpoint, index=len(self.connections), tls=False
        )
        self.connections.append(conn)

    def close(self) -> None:
        """Let go of the accepted connections; each one points back at
        its server, so nothing else can free the pair (DESIGN §8)."""
        self.connections.clear()

    @property
    def pending_response_bytes(self) -> int:
        """Octets of accepted responses not yet sent, over all connections:
        what a real server would be holding for its slow readers."""
        return sum(conn.pending_response_bytes for conn in self.connections)

    @property
    def _h2_connections(self) -> list[H2Connection]:
        return [conn.conn for conn in self.connections if conn.conn is not None]

    @property
    def tracked_stream_states(self) -> int:
        """Stream-state objects alive across all h2 connections — what
        a reset-churn attacker inflates."""
        return sum(len(conn.streams) for conn in self._h2_connections)

    @property
    def header_assembly_bytes(self) -> int:
        """Bytes pinned in open HEADERS→CONTINUATION assemblies — what
        the slow-HEADERS drip inflates."""
        return sum(
            len(frame.header_block)
            for conn in self._h2_connections
            if conn._header_assembly is not None
            for frame in conn._header_assembly[1]
        )

    @property
    def hpack_encoder_bytes(self) -> int:
        """HPACK encoder dynamic-table memory, whose limit the *peer*
        announces — what a table flood inflates (§VI point 5)."""
        return sum(conn.encoder.table.size for conn in self._h2_connections)

    @property
    def hpack_decoder_bytes(self) -> int:
        """HPACK decoder dynamic-table memory, bounded by our own
        SETTINGS_HEADER_TABLE_SIZE whatever the peer sends."""
        return sum(conn.decoder.table.size for conn in self._h2_connections)

    @property
    def priority_tree_nodes(self) -> int:
        """Streams tracked in dependency trees — state a PRIORITY frame
        creates for streams that never open (§VI point 3)."""
        return sum(len(conn.priority_tree) for conn in self._h2_connections)

    @property
    def priority_tree_depth(self) -> int:
        """Deepest dependency chain a scheduling decision may walk."""
        return max(
            (conn.priority_tree.height() for conn in self._h2_connections),
            default=0,
        )

    @property
    def priority_tree_operations(self) -> int:
        """Tree mutations performed so far, over all connections."""
        return sum(conn.priority_tree.operations for conn in self._h2_connections)


class _ServerConnection:
    """State of one accepted connection."""

    def __init__(
        self,
        server: H2Server,
        endpoint: Endpoint,
        index: int = 0,
        tls: bool = True,
    ):
        self.server = server
        self.sim = server.sim
        self.profile = server.profile
        self.endpoint = endpoint
        self.mode = "hello" if tls else "http1"
        self._buffer = b""
        self.conn: H2Connection | None = None
        self._tasks: dict[int, _ResponseTask] = {}
        #: Streams whose request was accepted and whose response is not
        #: yet fully delivered — the MAX_CONCURRENT_STREAMS population.
        self._active_requests: set[int] = set()
        self._rr_last_arrival = 0
        self._page_path: str | None = None
        self.index = index

        # -- abuse guards (ISSUE 7) ------------------------------------
        # Timers are armed ONLY for enabled knobs: an all-off guard
        # config must leave the simulation's event schedule untouched
        # (the determinism contract the pinned campaign hashes rely on).
        self.guards = guards = server.profile.guards
        self._guard_reason: str | None = None
        self._last_inbound = self.sim.now
        self._progress_at = self.sim.now
        self._stall_check_armed = False
        #: The preface, header and rate rules (the detector's core), and
        #: the deadline its one timer is armed for.
        self._rules: AbuseRules | None = None
        self._rules_due: float | None = None
        if server.guards_enabled:
            self._rules = AbuseRules(
                self.sim.now,
                preface=guards.preface_timeout,
                header=guards.header_timeout,
                window=guards.rate_window,
                ping=guards.ping_rate_limit,
                settings=guards.settings_rate_limit,
                rst=guards.rst_rate_limit,
            )
            self._enforce_rules()
        if guards.idle_timeout is not None:
            self.sim.call_later(guards.idle_timeout, self._check_idle)

        # -- frame-timeline recording ----------------------------------
        self.timeline = None
        if server.record_frames:
            from repro.scope.trace import ConnectionTimeline

            self.timeline = ConnectionTimeline(
                opened_at=self.sim.now,
                protocol="hello" if tls else "http1",
            )
            server.timelines.append(self.timeline)

        endpoint.on_data = self._on_data
        endpoint.on_close = self._on_close
        pending = endpoint.drain()
        if pending:
            self._on_data(pending)

    # ------------------------------------------------------------------
    # TLS hello
    # ------------------------------------------------------------------

    def _on_data(self, data: bytes) -> None:
        self._last_inbound = self.sim.now
        if self._guard_reason is not None:
            return
        if self.mode == "hello":
            self._buffer += data
            if b"\n" not in self._buffer:
                return
            line, _, rest = self._buffer.partition(b"\n")
            self._buffer = b""
            self._handle_hello(line + b"\n")
            if rest:
                self._on_data(rest)
        elif self.mode == "h2":
            self._feed_h2(data)
        elif self.mode == "http1":
            self._feed_http1(data)

    def _handle_hello(self, line: bytes) -> None:
        try:
            client_alpn, npn_offered = decode_client_hello(line)
        except ValueError:
            self.endpoint.close()
            return
        tls = self.server.tls
        alpn_choice = negotiate_alpn(client_alpn, tls) if client_alpn else None
        npn_list = tls.npn_protocols if npn_offered else None
        hello = encode_server_hello(alpn_choice, npn_list)

        # Anticipate the client's NPN pick (the one rule, DESIGN §9) to
        # know which protocol engine to attach.
        chosen = alpn_choice or negotiate_npn(NPN_PREFERENCES, npn_list)
        if chosen == H2:
            self._start_h2()
        else:
            self.mode = "http1"
            if self.timeline is not None:
                self.timeline.protocol = "http1"
        # The hello and the first SETTINGS leave in one write (DESIGN §8).
        if self.conn is not None:
            hello += self.conn.data_to_send()
        self.endpoint.send(hello)

    # ------------------------------------------------------------------
    # HTTP/2
    # ------------------------------------------------------------------

    def _start_h2(self) -> None:
        """Attach the HTTP/2 engine; its SETTINGS wait in the connection's
        buffer for the caller's write."""
        self.mode = "h2"
        profile = self.profile
        if self.timeline is not None:
            self.timeline.protocol = "h2"
        if profile.h2_unresponsive:
            # Negotiates h2 and then goes mute: no SETTINGS, no
            # responses.  §V-B's negotiation-vs-HEADERS gap.
            self.mode = "h2-mute"
            if self.timeline is not None:
                self.timeline.protocol = "h2-mute"
            if self._rules is not None:
                # It reads nothing more, so it waits for no preface.
                self._rules.preface_done()
            return
        self.conn = H2Connection(self.server.h2_config)
        self.conn.initiate(send_settings=profile.send_settings_frame)
        if profile.announce_zero_then_window_update:
            # Nginx quirk (§V-C): announce INITIAL_WINDOW_SIZE 0, then
            # immediately re-open the connection window; per-stream
            # windows are granted as streams arrive.
            self.conn.send_window_update(0, WINDOW_UPDATE_GRANT)

    def _feed_h2(self, data: bytes) -> None:
        assert self.conn is not None
        try:
            events = self.conn.receive_bytes(data)
        except H2Error as exc:
            # A stream error was answered inside receive_bytes with
            # RST_STREAM; anything that surfaces is protocol-fatal
            # (including flow-control violations) and tears the
            # connection down; a serving process must never crash.
            if not self.conn.terminated:
                self.conn.send_goaway(exc.error_code)
            self._flush()
            return
        finally:
            # Frames parsed before an error still count: recording and
            # guard accounting must see everything the peer sent.
            self._observe_frames(self.conn.received)
        if self._guard_reason is not None:
            return
        # A stream this call closed leaves with its response task and its
        # MAX_CONCURRENT_STREAMS slot, whoever reset it: the peer, or the
        # connection itself on a stream error such as a window overflow.
        streams = self.conn.streams
        for sid in [sid for sid in self._tasks if streams[sid].closed]:
            del self._tasks[sid]
        self._active_requests.difference_update(
            [sid for sid in self._active_requests if streams[sid].closed]
        )
        for event in events:
            self._handle_event(event)
        self._pump()
        self._flush()

    def _observe_frames(self, arrived: list[Frame]) -> None:
        """Timeline recording + guard accounting for newly parsed frames."""
        rules = self._rules
        if self.timeline is None and rules is None:
            return
        now = self.sim.now
        if self.timeline is not None and arrived:
            from repro.scope.trace import TracedFrame

            self.timeline.frames.extend(
                TracedFrame(at=now, frame=frame) for frame in arrived
            )
        if rules is not None:
            for frame in arrived:
                rules.observe(now, frame)
            self._enforce_rules()

    # -- abuse guards ------------------------------------------------------

    def _enforce_rules(self, fired: float | None = None) -> None:
        """Evict on the rule core's verdict, else keep its one timer armed
        at the next deadline; ``fired`` is the deadline a timer fired for."""
        rules = self._rules
        if fired is not None:
            if fired != self._rules_due:
                return  # a later arming superseded this timer
            self._rules_due = None
            rules.tick(fired)
        if rules.verdict is not None:
            self._trip_guard(rules.verdict.rule)
            return
        due = rules.due()
        if due is not None and due != self._rules_due:
            self._rules_due = due
            self.sim.call_at(due, self._enforce_rules, due)

    def _check_idle(self) -> None:
        if self.endpoint.closed or self._guard_reason is not None:
            return
        assert self.guards.idle_timeout is not None
        deadline = self._last_inbound + self.guards.idle_timeout
        if self.sim.now + 1e-9 >= deadline:
            self._trip_guard("idle-timeout")
        else:
            self.sim.call_later(deadline - self.sim.now, self._check_idle)

    def _arm_stall_check(self) -> None:
        if self.guards.stall_timeout is None or self._stall_check_armed:
            return
        self._stall_check_armed = True
        self.sim.call_later(self.guards.stall_timeout, self._check_stall)

    def _check_stall(self) -> None:
        self._stall_check_armed = False
        if self.endpoint.closed or self._guard_reason is not None:
            return
        if not self._tasks:
            return  # drained; re-armed by the next _enqueue
        assert self.guards.stall_timeout is not None
        deadline = self._progress_at + self.guards.stall_timeout
        if self.sim.now + 1e-9 >= deadline:
            self._trip_guard("stall-timeout")
        else:
            self._stall_check_armed = True
            self.sim.call_later(deadline - self.sim.now, self._check_stall)

    def _trip_guard(self, reason: str) -> None:
        """Evict the connection: one terminal GOAWAY(ENHANCE_YOUR_CALM),
        then close.  Idempotent — a guard fires at most once."""
        if self._guard_reason is not None or self.endpoint.closed:
            return
        self._guard_reason = reason
        self.server.guard_log.append(
            GuardEvent(at=self.sim.now, connection=self.index, reason=reason)
        )
        if self.conn is not None and not self.conn.terminated:
            self.conn.send_goaway(
                int(ErrorCode.ENHANCE_YOUR_CALM),
                debug_data=reason.encode("ascii"),
            )
            self._flush()
        self._tasks.clear()
        self._active_requests.clear()
        if self.timeline is not None:
            self.timeline.closed_at = self.sim.now
        # Linger before the FIN so the GOAWAY bytes (queued behind the
        # link's serialization delay) reach the peer; an immediate close
        # would overtake them and the client would only see a reset.
        self.sim.call_later(GUARD_CLOSE_LINGER, self.endpoint.close)

    def _handle_event(self, event: ev.Event) -> None:
        # Window and priority changes need nothing here: _pump() runs
        # after the events.
        handler = self._EVENT_HANDLERS.get(type(event))
        if handler is not None:
            handler(self, event)

    def _schedule_ping_ack(self, event: ev.PingReceived) -> None:
        self.sim.call_later(PING_DELAY, self._ping_ack, event.payload)

    def _drop_tasks(self, event: ev.GoAwayReceived) -> None:
        self._tasks.clear()

    def _enforce_window_lower_bound(self, event: ev.SettingsReceived) -> None:
        """The Discussion's proposed slow-read defence: refuse abusive
        SETTINGS_INITIAL_WINDOW_SIZE announcements outright."""
        bound = self.profile.min_accepted_initial_window
        if not bound or self.conn is None:
            return
        for identifier, value in event.settings:
            if identifier == int(SettingCode.INITIAL_WINDOW_SIZE) and value < bound:
                self.conn.send_goaway(
                    int(ErrorCode.ENHANCE_YOUR_CALM),
                    debug_data=b"initial window below server policy",
                )
                self._tasks.clear()
                self._active_requests.clear()
                return

    @property
    def pending_response_bytes(self) -> int:
        """Response octets awaiting flow-control window — the memory a
        slow-read attacker pins on a real server (§V-D1's DoS
        observation).  A modeled figure, ``size - offset`` per task, not
        a buffer: this engine makes each octet as the wire takes it."""
        return sum(task.remaining for task in self._tasks.values())

    def _ping_ack(self, payload: bytes) -> None:
        if self.conn is None or self.endpoint.closed:
            return
        self.conn.send_ping(payload, ack=True)
        self._flush()

    # -- request handling -------------------------------------------------

    def _handle_request(self, event: ev.HeadersReceived) -> None:
        assert self.conn is not None
        if self.conn.terminated:
            return
        profile = self.profile

        if profile.announce_zero_then_window_update:
            announced = profile.settings.get(int(SettingCode.INITIAL_WINDOW_SIZE))
            if announced == 0:
                self.conn.send_window_update(event.stream_id, WINDOW_UPDATE_GRANT)

        # Past MAX_CONCURRENT_STREAMS the stream is refused with
        # RST_STREAM(REFUSED_STREAM), as Nginx and Tengine do (§V-A).
        limit = self.conn.local_settings.max_concurrent_streams
        if limit is not None and len(self._active_requests) + 1 > limit:
            self.conn.send_rst_stream(event.stream_id, int(ErrorCode.REFUSED_STREAM))
            return
        self._active_requests.add(event.stream_id)

        headers = {name: value for name, value in event.headers}
        path = headers.get(b":path", b"/").decode("latin-1")

        # Learned-push bookkeeping (§VI point 4): the connection's first
        # request is "the page"; later requests are its followers.
        if self._page_path is None:
            self._page_path = path
        else:
            self.server.record_follow(self._page_path, path)

        resource = self.server.website.get(path)
        delay = max(
            0.0005,
            self.server.path_rng(path).gauss(
                profile.processing_delay, profile.processing_jitter
            ),
        )
        self.sim.call_later(delay, self._respond, event.stream_id, resource, path)

    #: What each connection event asks of the engine, by event class.
    _EVENT_HANDLERS = {
        ev.HeadersReceived: _handle_request,
        ev.PingReceived: _schedule_ping_ack,
        ev.SettingsReceived: _enforce_window_lower_bound,
        ev.GoAwayReceived: _drop_tasks,
    }

    def _respond(self, stream_id: int, resource: Resource | None, path: str) -> None:
        conn = self.conn
        if conn is None or self.endpoint.closed or conn.terminated:
            return
        stream = conn.streams.get(stream_id)
        if stream is None or stream.closed:
            return
        profile = self.profile

        if resource is None:
            self._enqueue(stream_id, self._response_headers("404", None, path), None)
        else:
            if profile.supports_push and conn.remote_settings.enable_push:
                push_list = self._push_list(resource, path)
                if push_list:
                    self._push_resources(stream_id, push_list)
            self._enqueue(
                stream_id, self._response_headers("200", resource, path), resource
            )
        self._pump()
        self._flush()

    def _push_list(self, resource: Resource, path: str) -> list[str]:
        """Resolve the push manifest for one response per push policy."""
        if self.profile.push_policy == "learned":
            return self.server.learned_push_list(path)
        return list(resource.push)

    def _push_resources(
        self, parent_stream_id: int, push_paths: list[str]
    ) -> None:
        assert self.conn is not None
        for push_path in push_paths:
            pushed = self.server.website.get(push_path)
            if pushed is None:
                continue
            request_headers = [
                (":method", "GET"),
                (":scheme", "https"),
                (":path", push_path),
                (":authority", "localhost"),
            ]
            try:
                promised_id = self.conn.send_push_promise(
                    parent_stream_id, request_headers
                )
            except H2ConnectionError:
                return
            # RFC 7540 §5.3.5: a pushed stream initially depends on its
            # associated stream — so the page itself is never starved by
            # its own pushes under a priority-respecting scheduler.
            if promised_id not in self.conn.priority_tree:
                self.conn.priority_tree.insert(
                    promised_id, depends_on=parent_stream_id
                )
            self._enqueue(
                promised_id, self._response_headers("200", pushed, push_path), pushed
            )

    def _response_headers(
        self, status: str, resource: Resource | None, path: str
    ) -> list[tuple[str, str]]:
        rng = self.server.path_rng
        headers = [
            (":status", status),
            ("server", self.profile.server_header),
            ("date", "Mon, 04 Jul 2016 12:00:00 GMT"),
        ]
        if resource is not None:
            headers.append(("content-type", resource.content_type))
            headers.append(("content-length", str(resource.size)))
            headers.append(("cache-control", "max-age=3600"))
            headers.extend(resource.extra_headers)
        else:
            headers.append(("content-length", "0"))
        if self.profile.new_cookie_each_response:
            # §V-G: these sites insert fresh cookies into the 2nd..Hth
            # responses, making S_1 < S_i and the Eq. 1 ratio exceed 1.
            self._cookie_counter = getattr(self, "_cookie_counter", 0) + 1
            if self._cookie_counter >= 2:
                token = "".join(
                    f"{rng(path).getrandbits(64):016x}" for _ in range(10)
                )
                headers.append(
                    (
                        "set-cookie",
                        f"visit={self._cookie_counter:08d}; sid={token}; Path=/",
                    )
                )
        if (
            self.profile.response_header_noise
            and rng(path).random() < self.profile.response_header_noise
        ):
            # A unique, unindexable value (request ids, trace tokens):
            # keeps repeated header blocks from collapsing to indices.
            headers.append(("x-request-id", f"{rng(path).getrandbits(96):024x}"))
        return headers

    def _enqueue(
        self, stream_id: int, headers: list[tuple[str, str]], resource: Resource | None
    ) -> None:
        # FCFS order is *request* order (stream ids are monotonic per
        # RFC 7540 §5.1.1), not response-generation order: a FCFS server
        # drains its accept queue in the order requests arrived, which
        # is what makes it deterministically fail Algorithm 1 rather
        # than passing by a lucky permutation.
        self._tasks[stream_id] = _ResponseTask(
            stream_id=stream_id,
            headers=headers,
            resource=resource,
            size=max(0, resource.size) if resource is not None else 0,
            arrival_index=stream_id,
        )
        self._progress_at = self.sim.now
        self._arm_stall_check()

    # ------------------------------------------------------------------
    # The send scheduler
    # ------------------------------------------------------------------

    def _pump(self) -> None:
        """Send whatever flow control and the scheduler allow right now."""
        conn = self.conn
        if conn is None or self.endpoint.closed:
            return

        progress = True
        while progress:
            progress = False
            progress |= self._send_ready_headers()

            ready = self._data_ready_streams()
            if not ready:
                break
            sid = self._schedule(ready)
            if sid is None:
                break
            if self._send_chunk(self._tasks[sid]):
                progress = True

        for sid in [s for s, t in self._tasks.items() if t.finished]:
            del self._tasks[sid]
            self._active_requests.discard(sid)

    def _send_ready_headers(self) -> bool:
        conn = self.conn
        assert conn is not None
        profile = self.profile
        sent_any = False
        for task in sorted(self._tasks.values(), key=lambda t: t.arrival_index):
            if task.headers_sent:
                continue
            stream = conn.streams.get(task.stream_id)
            if stream is None or stream.closed:
                continue
            if profile.flow_control_on_headers and task.size:
                # Misapplied flow control: HEADERS wait for windows the
                # RFC says do not govern them.  The threshold separates
                # the common zero-window variant from LiteSpeed's
                # stricter one (§V-D1 vs §V-D2).
                needed = min(profile.headers_hold_threshold, task.size)
                if (
                    stream.outbound_window.available < needed
                    or conn.outbound_window.available <= 0
                ):
                    continue
            conn.send_headers(
                task.stream_id,
                task.headers,
                end_stream=not task.size,
            )
            task.headers_sent = True
            sent_any = True
        if sent_any:
            self._progress_at = self.sim.now
        return sent_any

    def _data_ready_streams(self) -> set[int]:
        conn = self.conn
        assert conn is not None
        ready = set()
        for sid, task in self._tasks.items():
            if not task.headers_sent or task.remaining == 0:
                continue
            stream = conn.streams.get(sid)
            if stream is None or not stream.can_send:
                continue
            ready.add(sid)
        return ready

    def _schedule(self, ready: set[int]) -> int | None:
        """Pick the next stream to send a DATA chunk on.

        Priority servers run weighted fair sharing over the dependency
        tree (ready ancestors shadow descendants).  Servers that ignore
        priority round-robin over the ready streams in arrival order —
        they still *multiplex* (Table III says all six do) but pay no
        attention to the dependency tree, which is exactly what makes
        them fail Algorithm 1.  Either way a stream without usable
        window is skipped — the disturbance Algorithm 1's context
        preparation must defeat.
        """
        conn = self.conn
        assert conn is not None
        if conn.outbound_window.available <= 0:
            return None

        mode = self.profile.scheduler_mode
        if mode == "wfq":
            # A soft-WFQ server flushes each response's *first* chunk in
            # arrival order (the write buffered when the response was
            # generated) before weighted sharing takes over.  This is
            # what makes such sites satisfy §V-E1's rules by last DATA
            # frame while failing them by first DATA frame.
            unstarted = sorted(
                (sid for sid in ready if self._tasks[sid].offset == 0),
                key=lambda sid: self._tasks[sid].arrival_index,
            )
            for sid in unstarted:
                if self._sendable(sid):
                    return sid
        if mode in ("strict", "wfq"):
            shares = conn.priority_tree.allocation(
                ready, shadowing=(mode == "strict")
            )
            for sid in ready:
                self._tasks[sid].credit += shares.get(sid, 0.0)
            candidates = sorted(
                ready,
                key=lambda sid: (-self._tasks[sid].credit, sid),
            )
        else:
            by_arrival = sorted(
                ready, key=lambda sid: self._tasks[sid].arrival_index
            )
            after = [
                sid
                for sid in by_arrival
                if self._tasks[sid].arrival_index > self._rr_last_arrival
            ]
            before = [sid for sid in by_arrival if sid not in after]
            candidates = after + before

        for sid in candidates:
            if self._sendable(sid):
                if mode == "fcfs":
                    self._rr_last_arrival = self._tasks[sid].arrival_index
                return sid
        return None

    def _sendable(self, sid: int) -> bool:
        conn = self.conn
        assert conn is not None
        stream = conn.streams.get(sid)
        if stream is None:
            return False
        available = stream.outbound_window.available
        if available <= 0:
            return self.profile.tiny_window_behavior is TinyWindowBehavior.SEND_EMPTY
        if (
            available < TINY_WINDOW_THRESHOLD
            and self.profile.tiny_window_behavior is TinyWindowBehavior.SILENT
        ):
            return False
        return True

    def _send_chunk(self, task: _ResponseTask) -> bool:
        conn = self.conn
        assert conn is not None
        stream = conn.streams.get(task.stream_id)
        if stream is None:
            return False

        stream_avail = stream.outbound_window.available
        conn_avail = conn.outbound_window.available
        behavior = self.profile.tiny_window_behavior

        if stream_avail <= 0 or conn_avail <= 0:
            if behavior is TinyWindowBehavior.SEND_EMPTY and not task.sent_empty_probe:
                conn.send_data(task.stream_id, b"", end_stream=False)
                task.sent_empty_probe = True
                if self.profile.scheduler_mode != "fcfs":
                    task.credit -= 1.0
                return False
            return False

        chunk_len = min(
            task.remaining,
            stream_avail,
            conn_avail,
            conn.remote_settings.max_frame_size,
            CHUNK_LIMIT,
        )
        if (
            chunk_len < min(TINY_WINDOW_THRESHOLD, task.remaining)
            and behavior is TinyWindowBehavior.SEND_EMPTY
            and not task.sent_empty_probe
        ):
            conn.send_data(task.stream_id, b"", end_stream=False)
            task.sent_empty_probe = True
            return False

        chunk = task.resource.body_slice(task.offset, chunk_len)
        end = task.offset + chunk_len >= task.size
        conn.send_data(task.stream_id, chunk, end_stream=end)
        task.offset += chunk_len
        self._progress_at = self.sim.now
        if self.profile.scheduler_mode != "fcfs":
            task.credit -= 1.0
        # One transport write per DATA frame: the wire then carries the
        # scheduler's interleaving with per-chunk timing, instead of one
        # indivisible burst.
        self._flush()
        return True

    # ------------------------------------------------------------------
    # HTTP/1.1
    # ------------------------------------------------------------------

    def _feed_http1(self, data: bytes) -> None:
        self._buffer += data
        while b"\r\n\r\n" in self._buffer:
            raw, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
            self._handle_http1_request(raw)

    def _handle_http1_request(self, raw: bytes) -> None:
        lines = raw.split(b"\r\n")
        if not lines or not lines[0]:
            return
        if self._rules is not None:
            self._rules.preface_done()
        parts = lines[0].split()
        path = parts[1].decode("latin-1") if len(parts) >= 2 else "/"
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            headers[name.strip().lower()] = value.strip()

        upgrade_tokens = {
            token.strip().lower()
            for token in headers.get(b"upgrade", b"").split(b",")
        }
        if b"h2c" in upgrade_tokens and self.profile.supports_h2c:
            self._upgrade_to_h2c(path, headers.get(b"http2-settings", b""))
            return

        resource = self.server.website.get(path)
        delay = max(
            0.0005,
            self.server.path_rng(path).gauss(
                self.profile.processing_delay, self.profile.processing_jitter
            ),
        )
        self.sim.call_later(delay, self._respond_http1, resource)

    def _upgrade_to_h2c(self, path: str, settings_token: bytes) -> None:
        """RFC 7540 §3.2: 101 Switching Protocols, then HTTP/2 frames.

        The upgrading request becomes stream 1 (half-closed remote) and
        the response to it is sent as HTTP/2.
        """
        self.endpoint.send(
            b"HTTP/1.1 101 Switching Protocols\r\n"
            b"Connection: Upgrade\r\n"
            b"Upgrade: h2c\r\n\r\n"
        )
        self._start_h2()
        assert self.conn is not None
        # Apply the client's HTTP2-Settings header (a base64url-encoded
        # SETTINGS payload) as its initial settings.
        if settings_token:
            try:
                padded = settings_token + b"=" * (-len(settings_token) % 4)
                payload = base64.urlsafe_b64decode(padded)
                for offset in range(0, len(payload) - len(payload) % 6, 6):
                    identifier = int.from_bytes(payload[offset : offset + 2], "big")
                    value = int.from_bytes(payload[offset + 2 : offset + 6], "big")
                    self.conn._apply_remote_setting(identifier, value)
            except (ValueError, H2ConnectionError):
                pass
        self.conn.upgrade_stream()
        resource = self.server.website.get(path)
        delay = max(
            0.0005,
            self.server.path_rng(path).gauss(
                self.profile.processing_delay, self.profile.processing_jitter
            ),
        )
        self.sim.call_later(delay, self._respond, 1, resource, path)
        self._flush()

    def _respond_http1(self, resource: Resource | None) -> None:
        if self.endpoint.closed:
            return
        if resource is None:
            status, body = "404 Not Found", b""
        else:
            status, body = "200 OK", resource.body()
        head = (
            f"HTTP/1.1 {status}\r\n"
            f"Server: {self.profile.server_header}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n\r\n"
        ).encode()
        self.endpoint.send(head + body)

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------

    def _flush(self) -> None:
        if self.conn is None or self.endpoint.closed:
            return
        data = self.conn.data_to_send()
        if data:
            self.endpoint.send(data)

    def _on_close(self) -> None:
        self._tasks.clear()
        if self.timeline is not None and self.timeline.closed_at is None:
            self.timeline.closed_at = self.sim.now
