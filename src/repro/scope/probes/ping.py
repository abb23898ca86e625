"""RTT probes (§III-F, results in §V-H / Fig. 6).

Four estimators against the same target:

* **h2-ping** — HTTP/2 PING round trip.  The RFC suggests PING
  responses get priority over everything else, so the turnaround is
  nearly kernel-fast.
* **tcp-rtt** — SYN → SYN/ACK interval of the TCP handshake.
* **icmp** — classic ICMP echo.
* **h2-request** — HTTP/1.1 request → first response byte; inflated by
  server-side request processing, which is the effect Fig. 6 shows.

The PINGs read no window and no HPACK table, so they take the last turn
on the site's header-block link (DESIGN §8): the negotiation fetch's
connection, unless the server ended it, and otherwise a fresh one the
link opens.  The TCP RTT is that connection's handshake.  The turn
opens no stream; it releases the one the link still holds (the fetch,
or HPACK's last request), whose cancel leaves in the first PING's
write.  The link is closed before the ICMP and HTTP/1.1 steps, which
keep their own connection.
"""

from __future__ import annotations

from repro.h2 import events as ev
from repro.scope.client import HTTP11
from repro.scope.probes.negotiation import HeaderBlockLink
from repro.scope.report import PingResult
from repro.scope.session import ProbeSession

#: Samples each estimator averages: the scan's, Table III's and Fig. 6's.
SAMPLES = 3


def probe_ping(
    session: ProbeSession, domain: str, link: HeaderBlockLink, result: PingResult
) -> None:
    """Fill ``result`` with each estimator as it is read."""
    # -- HTTP/2 PING + TCP handshake RTT, on the link ----------------------
    try:
        turn = link.acquire()
        if turn is not None:
            client = turn[0]
            result.tcp_rtt = client.tls.tcp_handshake_rtt
            if link.fetch is not None:
                link.release(link.fetch)
            rtts: list[float] = []
            for i in range(SAMPLES):
                payload = f"scope{i:03d}".encode()[:8].ljust(8, b"\x00")
                start = client.now
                link.ping(payload)

                def ack_time() -> float | None:
                    for te in client.events_of(ev.PingAckReceived):
                        if te.event.payload == payload:
                            return te.at
                    return None

                if client.wait_for(lambda: ack_time() is not None):
                    rtts.append(ack_time() - start)
            if rtts:
                result.ping_supported = True
                result.h2_ping_rtt = sum(rtts) / len(rtts)
    finally:
        link.close()

    # -- ICMP ------------------------------------------------------------------
    result.icmp_rtt = session.icmp_rtt(domain, count=SAMPLES)

    # -- HTTP/1.1 request ---------------------------------------------------------
    h1 = session.client(domain, alpn=[HTTP11], offer_npn=False)
    try:
        h1.connect()
        h1.tls_handshake()
        h1_rtts = []
        for _ in range(SAMPLES):
            interval = h1.http1_get("/")
            if interval is not None:
                h1_rtts.append(interval)
        if h1_rtts:
            result.http1_rtt = sum(h1_rtts) / len(h1_rtts)
    finally:
        h1.close()
