"""HPACK probe (§III-E, Eq. 1; results in §V-G / Figs. 4-5).

Send ``H`` identical requests and record the wire size of each response
header block.  A server that maintains its dynamic table correctly
replaces repeated response fields with indices, so blocks 2..H are much
smaller than the first and the compression ratio

    r = sum(S_i) / (S_1 * H)

is small.  A server that never indexes response fields (Nginx, Tengine,
IdeaWebServer) sends equal-sized blocks: r = 1.  Sites that inject a
fresh cookie per response produce r > 1 and are filtered out by the
analysis layer, exactly as the paper filters them from Figs. 4-5.

The requests take their turns on the site's header-block link (DESIGN
§8).  S_1 is the block of the negotiation fetch, the link's first turn:
no request came before it on its connection, as Eq. 1 needs, so the
probe sends only the other ``H - 1`` requests.
Only the header block is measured: the link's ``HEADERS_ONLY_WINDOW``
holds the body back, so each stream is cancelled in the write that
opens the next, and at most one stream is open at a time.  The
connection is taken once, so a GOAWAY ends the measurement; when the
server ended the fetch's connection before the probe's turn, the link
opens a fresh one and fetches ``/`` there as S_1.
"""

from __future__ import annotations

from repro.scope.probes.negotiation import HeaderBlockLink
from repro.scope.report import REPETITIONS, HpackResult

#: Budget (backend clock-seconds) for each response's HEADERS.
HPACK_TIMEOUT = 10.0


def probe_hpack(link: HeaderBlockLink, result: HpackResult) -> None:
    """Fill ``result`` as each header block arrives: a wait that raises
    keeps the sizes read before it, and Eq. 1 (``result.ratio``) needs
    all ``REPETITIONS``."""
    turn = link.fetch_turn()
    if turn is None:
        return
    client, stream_id = turn
    for repetition in range(REPETITIONS):
        if repetition:
            stream_id = link.request("/")
        client.wait_for(
            lambda: client.headers_for(stream_id) is not None,
            timeout=HPACK_TIMEOUT,
        )
        event = client.headers_for(stream_id)
        if event is None:
            return
        result.header_sizes.append(event.encoded_size)
        link.release(stream_id)
