"""Server-push probe (§III-D, results in §V-F).

The probe fetches the front page and counts the PUSH_PROMISE frames the
fetch's stream receives: any promise means the server pushes.  The
paper browsed the front page (only six sites pushed in the first
experiment) and other URLs (nothing pushed).

Its turn is the negotiation fetch, on the site's header-block link
(DESIGN §8): promises precede the response's HEADERS (RFC 7540
§8.2.1), so the fetch has already received them, and the probe then
settles for late ones.  The link announces ``HEADERS_ONLY_WINDOW``,
which holds every body, and no SETTINGS_ENABLE_PUSH: push is enabled
unless the client announces 0, the RFC's initial value.  When the
server ended the fetch's connection, the link opens a fresh one and
fetches ``/`` there.
"""

from __future__ import annotations

from repro.h2 import events as ev
from repro.scope.probes.negotiation import HeaderBlockLink
from repro.scope.report import PushResult

#: Budget (backend clock-seconds) for the page and for the pushes to settle.
PUSH_TIMEOUT = 20.0


def probe_push(link: HeaderBlockLink, result: PushResult) -> None:
    """Fill ``result`` with the promises the fetch's stream received,
    however the turn ends: a wait that raises keeps the ones read before
    it.  The fetch stays unreleased, for the HPACK probe to read."""
    turn = link.fetch_turn()
    if turn is None:
        return
    client, stream_id = turn
    try:
        client.wait_for(
            lambda: client.headers_for(stream_id) is not None, timeout=PUSH_TIMEOUT
        )
        client.settle(quiet_period=0.5, timeout=PUSH_TIMEOUT)
    finally:
        promises = [
            te.event
            for te in client.events_of(ev.PushPromiseReceived)
            if te.event.parent_stream_id == stream_id
        ]
        result.push_received = bool(promises)
        result.promised_paths = [
            value.decode("latin-1")
            for promise in promises
            for name, value in promise.headers
            if name == b":path"
        ]
