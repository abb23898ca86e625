"""Server-push probe (§III-D, results in §V-F).

Push is optional, so the probe first announces SETTINGS_ENABLE_PUSH=1,
then fetches the front page; receipt of any PUSH_PROMISE frame means
the server pushes.  The paper browsed the front page (only six sites
pushed in the first experiment) and other URLs (nothing pushed).
"""

from __future__ import annotations

from repro.h2 import events as ev
from repro.scope.client import HEADERS_ONLY_WINDOW, IWS
from repro.scope.report import PushResult
from repro.scope.session import ProbeSession

#: Budget (backend clock-seconds) for the page and for the pushes to settle.
PUSH_TIMEOUT = 20.0


def probe_push(session: ProbeSession, domain: str) -> PushResult:
    result = PushResult()
    client = session.client(
        domain, settings={IWS: HEADERS_ONLY_WINDOW}, enable_push=True
    )
    try:
        if not client.establish_h2():
            return result

        # Promises precede the page's HEADERS (RFC 7540 §8.2.1); the window
        # holds every body, and the settle still counts a late promise.
        stream_id = client.request("/")
        client.wait_for(
            lambda: client.headers_for(stream_id) is not None, timeout=PUSH_TIMEOUT
        )
        client.settle(quiet_period=0.5, timeout=PUSH_TIMEOUT)

        for te in client.events_of(ev.PushPromiseReceived):
            result.push_received = True
            for name, value in te.event.headers:
                if name == b":path":
                    result.promised_paths.append(value.decode("latin-1"))
    finally:
        client.close()
    return result
