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

from repro.scope.report import HpackResult
from repro.scope.session import ProbeSession


def probe_hpack(
    session: ProbeSession,
    domain: str,
    path: str = "/",
    repetitions: int = 8,
    timeout: float = 10.0,
) -> HpackResult:
    result = HpackResult(requests=repetitions)
    client = session.client(domain, auto_window_update=True)
    if not client.establish_h2():
        client.close()
        return result

    # Body i is still arriving when request i+1 goes out, and a site
    # that announces a stream limit and enforces it refuses the request
    # that exceeds it: wait for the oldest open stream to end first.
    conn = client.conn
    assert conn is not None
    limit = conn.remote_settings.max_concurrent_streams
    requested = []  # the connection's Stream objects, oldest first

    sizes: list[int] = []
    for _ in range(repetitions):
        still_open = [stream for stream in requested if not stream.closed]
        if limit is not None and len(still_open) >= max(1, limit):
            oldest = still_open[0]
            client.wait_for(lambda: oldest.closed, timeout=timeout)
        stream_id = client.request(path)
        requested.append(conn.streams[stream_id])
        client.wait_for(
            lambda: client.headers_for(stream_id) is not None, timeout=timeout
        )
        event = client.headers_for(stream_id)
        if event is None:
            break
        sizes.append(event.encoded_size)

    client.close()
    result.header_sizes = sizes
    if len(sizes) == repetitions and sizes[0] > 0:
        result.ratio = sum(sizes) / (sizes[0] * repetitions)
    return result
