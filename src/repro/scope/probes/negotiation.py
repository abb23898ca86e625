"""ALPN/NPN negotiation probe (Section IV-A, results in §V-B).

Two handshakes are made, on two connections: one offering only ALPN
and one offering only NPN, mirroring how the paper separates the 49,334
NPN sites from the 47,966 ALPN sites in the first experiment.  The
connection whose hello chose h2 then fetches ``/`` and records whether
a HEADERS frame comes back (the paper's 44,390 / 64,299 "HEADERS
received" populations) along with the ``server`` header used for
Table IV.  Which one fetches is what a single hello offering both
mechanisms would have chosen: ALPN's choice wins, and NPN decides only
when ALPN chose nothing.  That connection has also received the
server's SETTINGS frame, which ``speak_h2`` waits for before the
request goes out, so the settings probe reads it there and the scan
opens no connection of its own for it (DESIGN §8).

The fetch reads the response HEADERS only.  Both clients announce
SETTINGS_INITIAL_WINDOW_SIZE = ``HEADERS_ONLY_WINDOW`` and return no
credit, so a server sends the page at most that many DATA octets, and
the probe returns once the HEADERS are in (DESIGN §8).  A site that
negotiates h2 and never answers costs one HEADERS wait, not a body wait
as well, so a per-attempt deadline does not erase its negotiation
verdict.

The fetch is the first turn on the site's :class:`HeaderBlockLink`:
the probe hands the fetch connection to the link instead of closing
it, the push and HPACK probes read the fetch's response as their own
first turn and ping's PINGs take the link's last (DESIGN §8, "The fetch
turn is the header-block turn").  The other connection is closed on
every way out.
"""

from __future__ import annotations

from repro.scope.client import H2, HEADERS_ONLY_WINDOW, HTTP11, IWS, ScopeClient
from repro.scope.probes.flow_control import SharedConnection
from repro.scope.probes.settings_probe import probe_settings
from repro.scope.report import NegotiationResult, SettingsResult
from repro.scope.session import ProbeSession


class HeaderBlockLink(SharedConnection):
    """The site's header-block link: a :class:`SharedConnection` announcing
    ``HEADERS_ONLY_WINDOW`` whose first turn is the fetch of ``/``.

    :attr:`fetch` is that turn's stream until a turn releases it.
    :meth:`adopt` takes the negotiation's fetch connection and makes the
    fetch on it; :meth:`fetch_turn` hands the fetch to the next
    header-block probe, and fetches ``/`` on a fresh connection when the
    server ended the one it had (GOAWAY or close) or when nothing was
    adopted.  Ping's turn takes the connection alone (:meth:`acquire`)
    and releases the fetch if no turn did.  The owner closes the link
    once no later probe takes a turn on it, and when an attempt on it
    raises.
    """

    def __init__(self, session: ProbeSession, domain: str):
        super().__init__(session, domain, window=HEADERS_ONLY_WINDOW)
        #: The stream that fetched ``/`` on this connection, unreleased.
        self.fetch: int | None = None

    def adopt(self, client: ScopeClient) -> int:
        """Take ``client``, whose hello chose h2 and whose SETTINGS are
        in, and fetch ``/`` on it; returns the fetch's stream."""
        assert self.client is None, "a link adopts one connection"
        self.client = client
        # Nothing to cancel yet, so the request needs no batch.
        self.fetch = client.request("/")
        return self.fetch

    def fetch_turn(self) -> tuple[ScopeClient, int] | None:
        """The connection and the fetch's stream for the next turn; None
        when HTTP/2 could not be established."""
        if self.acquire() is None:
            return None
        assert self.client is not None
        if self.fetch is None:
            self.fetch = self.request("/")
        return self.client, self.fetch

    def release(self, stream_id: int) -> None:
        if stream_id == self.fetch:
            self.fetch = None
        super().release(stream_id)

    def close(self) -> None:
        super().close()
        self.fetch = None


def probe_negotiation(
    session: ProbeSession,
    domain: str,
    link: HeaderBlockLink,
    result: NegotiationResult,
    settings: SettingsResult,
) -> None:
    """Fill ``result`` with each verdict as it is read, and ``settings``
    with the fetch connection's SETTINGS (empty when no hello chose h2).
    The fetch connection is left to ``link``."""
    window = {IWS: HEADERS_ONLY_WINDOW}
    alpn_client = session.client(
        domain, alpn=[H2, HTTP11], offer_npn=False, settings=window
    )
    npn_client = session.client(domain, alpn=[], offer_npn=True, settings=window)
    try:
        # -- ALPN-only handshake --------------------------------------------
        alpn_client.connect()
        result.tcp_connected = True
        tls = alpn_client.tls_handshake()
        result.tcp_handshake_rtt = tls.tcp_handshake_rtt
        result.alpn_h2 = tls.alpn_protocol == H2
        if not result.alpn_h2:
            alpn_client.close()

        # -- NPN-only handshake ---------------------------------------------
        npn_client.connect()
        result.npn_h2 = npn_client.tls_handshake().npn_protocol == H2

        # -- fetch / over HTTP/2 on the connection that chose it -------------
        if result.alpn_h2:
            fetch = alpn_client
            npn_client.close()
        elif alpn_client.tls.alpn_protocol is None and result.npn_h2:
            fetch = npn_client
        else:
            return
        fetch.speak_h2()
        probe_settings(fetch, settings)
        stream_id = link.adopt(fetch)
        fetch.wait_for(lambda: fetch.headers_for(stream_id) is not None)
        headers_event = fetch.headers_for(stream_id)
        if headers_event is not None:
            result.headers_received = True
            for name, value in headers_event.headers:
                if name == b"server":
                    result.server_header = value.decode("latin-1")
                    break
    finally:
        # Every way out, a failed wait included, leaves closed what the
        # link did not take.
        for client in (alpn_client, npn_client):
            if client is not link.client:
                client.close()
