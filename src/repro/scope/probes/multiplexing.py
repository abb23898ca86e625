"""Request-multiplexing probe (§III-A1).

Send N simultaneous requests for *large* objects and watch the DATA
frame arrival pattern.  If the server processes requests in parallel,
responses from the N streams interleave; a serial server completes
stream *i* entirely before stream *i+1* begins.

The paper runs this only in the testbed (small objects finish too fast
to show interleaving against arbitrary sites), and we keep that scoping:
the caller supplies paths to large objects.
"""

from __future__ import annotations

from repro.h2 import events as ev
from repro.scope.client import BULK_TIMEOUT
from repro.scope.report import MultiplexingResult
from repro.scope.session import ProbeSession


def probe_multiplexing(
    session: ProbeSession,
    domain: str,
    paths: list[str],
) -> MultiplexingResult:
    result = MultiplexingResult(streams=len(paths))
    client = session.client(domain, auto_window_update=True)
    try:
        if not client.establish_h2():
            return result

        # N must stay below the server's MAX_CONCURRENT_STREAMS (§III-A1).
        assert client.conn is not None
        limit = client.conn.remote_settings.max_concurrent_streams
        if limit is not None and len(paths) >= limit:
            paths = paths[: max(1, limit - 1)]
            result.streams = len(paths)

        stream_ids = [client.request(path) for path in paths]
        wanted = set(stream_ids)
        client.wait_for(
            lambda: wanted
            <= {
                te.event.stream_id
                for te in client.events_of(ev.StreamEnded)
            },
            timeout=BULK_TIMEOUT,
        )

        pattern = [
            te.event.stream_id
            for te in client.events_of(ev.DataReceived)
            if te.event.stream_id in wanted and te.event.data
        ]
        result.arrival_pattern = pattern
        result.interleaved = _is_interleaved(pattern)
    finally:
        client.close()
    return result


def _is_interleaved(pattern: list[int]) -> bool:
    """True if any two streams' DATA spans overlap in arrival order."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for index, sid in enumerate(pattern):
        first.setdefault(sid, index)
        last[sid] = index
    sids = list(first)
    for i, a in enumerate(sids):
        for b in sids[i + 1 :]:
            if first[a] < last[b] and first[b] < last[a]:
                return True
    return False
