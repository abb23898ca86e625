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
"""

from __future__ import annotations

from repro.scope.client import HEADERS_ONLY_WINDOW
from repro.scope.probes.flow_control import SharedConnection
from repro.scope.report import HpackResult
from repro.scope.session import ProbeSession

#: Budget (backend clock-seconds) for each response's HEADERS.
HPACK_TIMEOUT = 10.0
#: Requests whose header blocks Eq. 1 compares.
REPETITIONS = 8


def probe_hpack(
    session: ProbeSession,
    domain: str,
    path: str = "/",
) -> HpackResult:
    result = HpackResult(requests=REPETITIONS)
    sizes: list[int] = []
    # Only the header block is measured: the window holds the body back,
    # so each stream is cancelled in the write that opens the next, and
    # at most one stream is open at a time.  The connection is acquired
    # once, so a GOAWAY ends the measurement.
    with SharedConnection(session, domain, window=HEADERS_ONLY_WINDOW) as link:
        turn = link.acquire()
        if turn is None:
            return result
        client = turn[0]
        for _ in range(REPETITIONS):
            stream_id = link.request(path)
            client.wait_for(
                lambda: client.headers_for(stream_id) is not None,
                timeout=HPACK_TIMEOUT,
            )
            event = client.headers_for(stream_id)
            if event is None:
                break
            sizes.append(event.encoded_size)
            link.release(stream_id)

    result.header_sizes = sizes
    if len(sizes) == REPETITIONS and sizes[0] > 0:
        result.ratio = sum(sizes) / (sizes[0] * REPETITIONS)
    return result
