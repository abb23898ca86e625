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
"""

from __future__ import annotations

from repro.h2 import events as ev
from repro.h2.constants import MAX_WINDOW_SIZE
from repro.scope.client import DEFAULT_TIMEOUT, IWS, ScopeClient
from repro.scope.report import ErrorReaction, TinyWindowResult
from repro.scope.session import ProbeSession


def probe_tiny_window(
    session: ProbeSession,
    domain: str,
    sframe: int = 1,
    path: str = "/",
) -> tuple[TinyWindowResult, int | None, bool]:
    """§III-B1.  Returns (category, first DATA size, headers_received)."""
    client = session.client(domain, settings={IWS: sframe})
    if not client.establish_h2():
        client.close()
        return TinyWindowResult.NO_RESPONSE, None, False

    stream_id = client.request(path)
    client.wait_for(
        lambda: any(
            te.event.stream_id == stream_id
            for te in client.events_of(ev.DataReceived)
        )
    )
    data_events = [
        te
        for te in client.events_of(ev.DataReceived)
        if te.event.stream_id == stream_id
    ]
    headers_received = client.headers_for(stream_id) is not None
    client.close()

    if not data_events:
        return TinyWindowResult.NO_RESPONSE, None, headers_received
    first_size = len(data_events[0].event.data)
    if first_size == 0:
        return TinyWindowResult.ZERO_LENGTH_DATA, 0, headers_received
    return TinyWindowResult.WINDOW_SIZED_DATA, first_size, headers_received


def probe_zero_window_headers(
    session: ProbeSession, domain: str, path: str = "/"
) -> bool | None:
    """§III-B2.  True iff HEADERS arrive while the window is zero.

    Returns None when HTTP/2 could not be established at all.
    """
    client = session.client(domain, settings={IWS: 0})
    if not client.establish_h2():
        client.close()
        return None
    stream_id = client.request(path)
    client.wait_for(lambda: client.headers_for(stream_id) is not None)
    headers = client.headers_for(stream_id) is not None
    got_data = any(
        te.event.stream_id == stream_id and te.event.data
        for te in client.events_of(ev.DataReceived)
    )
    client.close()
    # Compliance requires headers *without* data.
    return headers and not got_data


def probe_zero_window_update(
    session: ProbeSession,
    domain: str,
    level: str = "stream",
    path: str = "/big.bin",
) -> tuple[ErrorReaction | None, bytes]:
    """§III-B3.  Returns (reaction, GOAWAY debug data if any)."""
    # A one-octet window keeps the response stream alive and blocked,
    # so the server definitely still knows the stream when the bogus
    # update arrives.
    client = session.client(domain, settings={IWS: 1})
    if not client.establish_h2():
        client.close()
        return None, b""
    stream_id = client.request(path)
    client.wait_for(
        lambda: client.headers_for(stream_id) is not None,
        timeout=DEFAULT_TIMEOUT / 2,
    )

    target = 0 if level == "connection" else stream_id
    client.send_window_update(target, 0)

    reaction = _await_reaction(client, stream_id)
    debug = b""
    for te in client.events_of(ev.GoAwayReceived):
        debug = te.event.debug_data
    client.close()
    return reaction, debug


def probe_large_window_update(
    session: ProbeSession,
    domain: str,
    level: str = "stream",
    path: str = "/big.bin",
) -> ErrorReaction | None:
    """§III-B4: two WINDOW_UPDATEs whose sum exceeds 2^31-1."""
    client = session.client(domain, settings={IWS: 1})
    if not client.establish_h2():
        client.close()
        return None
    stream_id = client.request(path)
    client.wait_for(
        lambda: client.headers_for(stream_id) is not None,
        timeout=DEFAULT_TIMEOUT / 2,
    )

    target = 0 if level == "connection" else stream_id
    half = MAX_WINDOW_SIZE // 2 + 1
    # Both frames leave in one flight so the window cannot drain between
    # them; their sum exceeds 2^31-1 regardless of the starting window.
    assert client.conn is not None
    client.conn.send_window_update(target, half)
    client.conn.send_window_update(target, half)
    client.flush()

    reaction = _await_reaction(client, stream_id)
    client.close()
    return reaction


def _await_reaction(client: ScopeClient, stream_id: int) -> ErrorReaction:
    """Wait for RST_STREAM / GOAWAY; silence within the wait = ignore."""

    def saw_reaction() -> bool:
        return bool(client.events_of(ev.GoAwayReceived)) or any(
            te.event.stream_id == stream_id
            for te in client.events_of(ev.StreamReset)
        )

    client.wait_for(saw_reaction)
    for te in client.events:
        if isinstance(te.event, ev.StreamReset) and te.event.stream_id == stream_id:
            return ErrorReaction.RST_STREAM
        if isinstance(te.event, ev.GoAwayReceived):
            return ErrorReaction.GOAWAY
    return ErrorReaction.IGNORE
