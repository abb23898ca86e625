"""ALPN/NPN negotiation probe (Section IV-A, results in §V-B).

Two handshakes are attempted: one offering only ALPN and one offering
only NPN, mirroring how the paper separates the 49,334 NPN sites from
the 47,966 ALPN sites in the first experiment.  A third step uses
whichever mechanism worked to fetch ``/`` and record whether a HEADERS
frame comes back (the paper's 44,390 / 64,299 "HEADERS received"
populations) along with the ``server`` header used for Table IV.
"""

from __future__ import annotations

from repro.h2 import events as ev
from repro.scope.client import H2, HTTP11
from repro.scope.report import NegotiationResult
from repro.scope.session import ProbeSession


def probe_negotiation(
    session: ProbeSession, domain: str, timeout: float = 8.0
) -> NegotiationResult:
    result = NegotiationResult()

    # -- ALPN-only handshake ------------------------------------------------
    alpn_client = session.client(domain, alpn=[H2, HTTP11], offer_npn=False)
    if not alpn_client.connect(timeout=timeout):
        return result
    result.tcp_connected = True
    tls = alpn_client.tls_handshake(timeout=timeout)
    result.tcp_handshake_rtt = tls.tcp_handshake_rtt
    result.alpn_h2 = tls.alpn_protocol == H2
    alpn_client.close()

    # -- NPN-only handshake ----------------------------------------------------
    npn_client = session.client(domain, alpn=[], offer_npn=True)
    if npn_client.connect(timeout=timeout):
        tls = npn_client.tls_handshake(timeout=timeout)
        result.npn_h2 = tls.npn_protocol == H2
    npn_client.close()

    # -- cleartext Upgrade: h2c (§IV-A's unencrypted path) -------------------
    h2c_client = session.client(domain, port=80)
    if h2c_client.connect(timeout=timeout):
        result.h2c_upgrade = h2c_client.upgrade_h2c("/", timeout=timeout)
    h2c_client.close()

    # -- fetch / over HTTP/2 ------------------------------------------------------
    if not (result.alpn_h2 or result.npn_h2):
        return result
    fetch = session.client(domain, auto_window_update=True)
    if fetch.establish_h2(timeout=timeout):
        stream_id = fetch.request("/")
        fetch.wait_for(
            lambda: fetch.headers_for(stream_id) is not None, timeout=timeout
        )
        headers_event = fetch.headers_for(stream_id)
        if headers_event is not None:
            result.headers_received = True
            for name, value in headers_event.headers:
                if name == b"server":
                    result.server_header = value.decode("latin-1")
                    break
        # Let the body finish so the connection winds down cleanly.
        fetch.wait_for(
            lambda: any(
                te.event.stream_id == stream_id
                for te in fetch.events_of(ev.StreamEnded)
            ),
            timeout=timeout,
        )
    fetch.close()
    return result
