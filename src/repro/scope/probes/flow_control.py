"""Flow-control probes (§III-B, results in §V-D).

Four sub-probes:

1. **Controlling DATA frames** — announce a tiny
   SETTINGS_INITIAL_WINDOW_SIZE (``Sframe``) and check that the
   response DATA frame is exactly that big (the DoS-angle the paper
   highlights: a malicious receiver can pin a server's memory).
2. **Zero initial window on HEADERS** — with a zero window a compliant
   server still returns HEADERS, since flow control governs only DATA.
3. **Zero window update** — send WINDOW_UPDATE with increment 0 and
   classify the reaction (RST_STREAM / GOAWAY / ignore).
4. **Large window update** — overflow the window past 2^31-1 with two
   updates and classify the reaction.

:func:`probe_flow_control` is the one sequence the population scan and
Table III both run.  Sub-probe 2 takes the one turn on a connection of
its own: it announces a zero window and reads the server's answer to
it.  The other five take turns, in this order, on one connection
announcing ``Sframe``, a :class:`SharedConnection`: 1, then 3 and 4 at
stream level, then 3 and 4 at connection level.  Each reads its own
stream's reaction and a GOAWAY that arrives during its turn, nothing
the connection carried before.  The connection-level turns come last
because their bogus updates are the ones most likely to end the
connection; the overflow needs no particular starting window, since
the two increments sum past 2^31-1 on their own.

:class:`SharedConnection` is how every probe that reads one stream's
answer takes its turn on a connection: the HPACK and self-dependency
probes take theirs on one of their own.
"""

from __future__ import annotations

from repro.h2 import events as ev
from repro.h2.constants import MAX_WINDOW_SIZE
from repro.scope.client import DEFAULT_TIMEOUT, IWS, ScopeClient
from repro.scope.report import ErrorReaction, FlowControlResult, TinyWindowResult
from repro.scope.session import ProbeSession


class SharedConnection:
    """One connection announcing ``window`` that probes take turns on.

    :meth:`acquire` hands out the open connection unless the server
    ended it (GOAWAY or close), and opens a fresh one otherwise, so a
    server that answers a turn with GOAWAY costs the connections it
    always did.  :meth:`release` cancels a turn's stream unless the
    server ended it, so no stream outlives its turn: the cancel leaves
    in the write that opens the next turn's stream (:meth:`request`),
    in the next turn's first PING when that turn opens no stream
    (:meth:`ping`), or before the connection closes.  A stream nobody
    released is not cancelled.  Leaving the ``with`` block closes the
    connection on every way out, a raised wait or handshake included.
    """

    def __init__(self, session: ProbeSession, domain: str, window: int = 1):
        self.session = session
        self.domain = domain
        self.window = window
        self.client: ScopeClient | None = None
        #: The stream the last turn released and nobody cancelled yet.
        self._cancel: int | None = None

    def acquire(self) -> tuple[ScopeClient, int] | None:
        """The connection for the next turn, and the index in its
        ``events`` where the turn's own begin (0 on a fresh one); None
        when HTTP/2 could not be established."""
        client = self.client
        if client is not None:
            assert client.conn is not None
            if not (client.peer_closed or client.conn.terminated):
                return client, len(client.events)
            self.close()
        # Ours before the handshake, so close() ends it if that raises.
        self.client = self.session.client(self.domain, settings={IWS: self.window})
        if not self.client.establish_h2():
            self.close()
            return None
        return self.client, 0

    def request(self, path: str) -> int:
        """Open the turn's stream, in one write with the cancel of the
        stream the previous turn released."""
        client = self.client
        assert client is not None
        with client.batch():
            self._send_cancel()
            return client.request(path)

    def ping(self, payload: bytes) -> None:
        """Send a PING, in one write with the cancel of the stream the
        previous turn released."""
        client = self.client
        assert client is not None
        with client.batch():
            self._send_cancel()
            client.send_ping(payload)

    def release(self, stream_id: int) -> None:
        """End a turn: its stream is cancelled unless the server ended
        it."""
        client = self.client
        assert client is not None and client.conn is not None
        stream = client.conn.streams.get(stream_id)
        if stream is not None and not stream.closed and not client.peer_closed:
            self._cancel = stream_id

    def _send_cancel(self) -> None:
        if self._cancel is not None:
            assert self.client is not None
            self.client.send_rst_stream(self._cancel)
            self._cancel = None

    def close(self) -> None:
        if self.client is not None:
            self._send_cancel()
            self.client.close()
            self.client = None

    def __enter__(self) -> SharedConnection:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def probe_flow_control(
    session: ProbeSession,
    domain: str,
    result: FlowControlResult,
    sframe: int,
    blocked_path: str,
) -> None:
    """§III-B's four sub-probes, filling ``result`` as each answers, so
    a sub-probe that raises keeps the verdicts read before it.

    Sub-probes 1 and 2 fetch ``/``; 3 and 4 block ``blocked_path``,
    which must be larger than ``sframe``.
    """
    result.headers_with_zero_window = probe_zero_window_headers(
        session, domain, "/"
    )
    with SharedConnection(session, domain, window=sframe) as shared:
        result.tiny_window, result.first_data_size, _ = probe_tiny_window(
            shared, "/"
        )
        result.zero_update_stream, result.zero_update_debug_data = (
            probe_zero_window_update(shared, "stream", blocked_path)
        )
        result.large_update_stream = probe_large_window_update(
            shared, "stream", blocked_path
        )
        result.zero_update_connection, _ = probe_zero_window_update(
            shared, "connection", blocked_path
        )
        result.large_update_connection = probe_large_window_update(
            shared, "connection", blocked_path
        )


def probe_tiny_window(
    shared: SharedConnection, path: str = "/"
) -> tuple[TinyWindowResult, int | None, bool]:
    """§III-B1 on ``shared``, whose window is ``Sframe``.  Returns
    (category, first DATA size, headers_received)."""
    turn = shared.acquire()
    if turn is None:
        return TinyWindowResult.NO_RESPONSE, None, False

    client = turn[0]
    stream_id = shared.request(path)

    def first_data() -> ev.DataReceived | None:
        for te in client.events_of(ev.DataReceived):
            if te.event.stream_id == stream_id:
                return te.event
        return None

    client.wait_for(lambda: first_data() is not None)
    data = first_data()
    headers_received = client.headers_for(stream_id) is not None
    shared.release(stream_id)

    if data is None:
        return TinyWindowResult.NO_RESPONSE, None, headers_received
    first_size = len(data.data)
    if first_size == 0:
        return TinyWindowResult.ZERO_LENGTH_DATA, 0, headers_received
    return TinyWindowResult.WINDOW_SIZED_DATA, first_size, headers_received


def probe_zero_window_headers(
    session: ProbeSession, domain: str, path: str = "/"
) -> bool | None:
    """§III-B2.  True iff HEADERS arrive while the window is zero.

    Returns None when HTTP/2 could not be established at all.
    """
    with SharedConnection(session, domain, window=0) as link:
        turn = link.acquire()
        if turn is None:
            return None
        client = turn[0]
        stream_id = link.request(path)
        client.wait_for(lambda: client.headers_for(stream_id) is not None)
        got_data = any(
            te.event.stream_id == stream_id and te.event.data
            for te in client.events_of(ev.DataReceived)
        )
        # Compliance requires headers *without* data.
        return client.headers_for(stream_id) is not None and not got_data


def probe_zero_window_update(
    shared: SharedConnection, level: str, path: str
) -> tuple[ErrorReaction | None, bytes]:
    """§III-B3 on ``shared``.  Returns (reaction, GOAWAY debug data if
    any)."""
    turn = blocked_stream(shared, path)
    if turn is None:
        return None, b""
    client, since, stream_id = turn

    target = 0 if level == "connection" else stream_id
    client.send_window_update(target, 0)

    reaction = await_reaction(client, stream_id, since)
    debug = b""
    for te in client.events[since:]:
        if isinstance(te.event, ev.GoAwayReceived):
            debug = te.event.debug_data
    shared.release(stream_id)
    return reaction, debug


def probe_large_window_update(
    shared: SharedConnection, level: str, path: str
) -> ErrorReaction | None:
    """§III-B4 on ``shared``: two WINDOW_UPDATEs whose sum exceeds
    2^31-1."""
    turn = blocked_stream(shared, path)
    if turn is None:
        return None
    client, since, stream_id = turn

    target = 0 if level == "connection" else stream_id
    half = MAX_WINDOW_SIZE // 2 + 1
    # Both frames leave in one write so the window cannot drain between
    # them; their sum exceeds 2^31-1 regardless of the starting window.
    with client.batch():
        client.send_window_update(target, half)
        client.send_window_update(target, half)

    reaction = await_reaction(client, stream_id, since)
    shared.release(stream_id)
    return reaction


def blocked_stream(
    shared: SharedConnection, path: str
) -> tuple[ScopeClient, int, int] | None:
    """Take a turn on ``shared``: open a stream for ``path`` behind the
    connection's small window, so the server still knows the stream
    when a bogus frame for it arrives, and wait for its HEADERS.

    Returns the client, the index in ``client.events`` where the turn's
    events begin and the stream id; None when HTTP/2 could not be
    established.
    """
    turn = shared.acquire()
    if turn is None:
        return None
    client, since = turn
    stream_id = shared.request(path)
    client.wait_for(
        lambda: client.headers_for(stream_id) is not None,
        timeout=DEFAULT_TIMEOUT / 2,
    )
    return client, since, stream_id


def await_reaction(
    client: ScopeClient, stream_id: int, since: int = 0
) -> ErrorReaction:
    """Wait for RST_STREAM on ``stream_id`` or a GOAWAY, reading only
    the events from ``client.events[since]`` on; silence within the
    wait = ignore."""

    def reaction() -> ErrorReaction | None:
        for te in client.events[since:]:
            event = te.event
            if isinstance(event, ev.StreamReset) and event.stream_id == stream_id:
                return ErrorReaction.RST_STREAM
            if isinstance(event, ev.GoAwayReceived):
                return ErrorReaction.GOAWAY
        return None

    client.wait_for(lambda: reaction() is not None)
    return reaction() or ErrorReaction.IGNORE
