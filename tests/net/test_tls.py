"""TLS ALPN/NPN negotiation semantics and hello wire codec (§IV-A)."""

import pytest

from repro.h2.events import SettingsReceived
from repro.net.clock import Simulation
from repro.net.tls import (
    H2,
    HTTP11,
    TlsServerConfig,
    decode_client_hello,
    decode_server_hello,
    encode_client_hello,
    encode_server_hello,
    negotiate_alpn,
    negotiate_npn,
)
from repro.net.transport import Network
from repro.servers.profiles import ServerProfile
from repro.servers.site import Site, deploy_site
from repro.servers.website import default_website
from tests.conftest import sim_session

#: A protocol token neither side offers.
SPDY3 = "spdy/3.1"


class TestAlpn:
    def test_server_preference_wins(self):
        # ALPN: the server picks, in its own preference order.
        server = TlsServerConfig(alpn_protocols=[H2, HTTP11])
        assert negotiate_alpn([HTTP11, H2], server) == H2

    def test_no_overlap_yields_none(self):
        server = TlsServerConfig(alpn_protocols=[HTTP11])
        assert negotiate_alpn([SPDY3], server) is None

    def test_server_without_alpn(self):
        server = TlsServerConfig(alpn_protocols=None)
        assert negotiate_alpn([H2], server) is None

    def test_h1_only_server(self):
        server = TlsServerConfig(alpn_protocols=[HTTP11])
        assert negotiate_alpn([H2, HTTP11], server) == HTTP11


class TestNpn:
    def test_client_preference_wins(self):
        # NPN: the server advertises, the client picks.
        assert negotiate_npn([H2, HTTP11], [HTTP11, H2]) == H2

    def test_server_without_npn(self):
        assert negotiate_npn([H2], None) is None

    def test_no_overlap(self):
        assert negotiate_npn([H2, HTTP11], [SPDY3]) is None


def hello(profile: ServerProfile, **client_options):
    """One ScopeClient hello against an engine serving ``profile``."""
    network = Network(Simulation(), seed=1)
    deploy_site(
        network,
        Site(domain="tls.test", profile=profile, website=default_website()),
    )
    client = sim_session(network).client("tls.test", **client_options)
    client.connect()
    client.tls_handshake()
    return client


class TestCombined:
    """Both mechanisms in one hello, the way H2Scope offers them, from
    a ScopeClient against the engine: the client picks, and the engine
    attaches the protocol it anticipated with the same rule."""

    def test_alpn_takes_precedence(self):
        client = hello(ServerProfile())
        assert client.tls.chosen == H2
        assert client.tls.mechanism == "alpn"

    def test_npn_fallback_when_no_alpn(self):
        # The paper: >100 server types "just speak NPN" (pre-1.0.2 OpenSSL).
        client = hello(ServerProfile(supports_alpn=False))
        assert client.tls.chosen == H2
        assert client.tls.mechanism == "npn"
        # The engine anticipated that pick: it answers the preface with
        # its SETTINGS instead of waiting for an HTTP/1.1 request.
        client.speak_h2()
        assert client.events_of(SettingsReceived)

    def test_apache_has_no_npn(self):
        client = hello(ServerProfile(supports_npn=False), alpn=[])
        assert client.tls.chosen is None
        assert client.tls.mechanism is None

    def test_both_mechanisms_recorded_independently(self):
        client = hello(ServerProfile())
        assert client.tls.alpn_protocol == H2
        assert client.tls.npn_protocol == H2


class TestWireCodec:
    def test_client_hello_roundtrip(self):
        line = encode_client_hello([H2, HTTP11], npn_offered=True)
        alpn, npn = decode_client_hello(line)
        assert alpn == (H2, HTTP11)
        assert npn is True

    def test_client_hello_without_alpn(self):
        alpn, npn = decode_client_hello(encode_client_hello(None, False))
        assert alpn == ()
        assert npn is False

    def test_server_hello_roundtrip(self):
        line = encode_server_hello(H2, [H2, HTTP11])
        choice, npn = decode_server_hello(line)
        assert choice == H2
        assert npn == (H2, HTTP11)

    def test_server_hello_nothing_negotiated(self):
        choice, npn = decode_server_hello(encode_server_hello(None, None))
        assert choice is None
        assert npn is None

    @pytest.mark.parametrize("junk", [b"GET / HTTP/1.1\n", b"\n", b"SERVERHELLO x\n"])
    def test_malformed_client_hello_rejected(self, junk):
        with pytest.raises(ValueError):
            decode_client_hello(junk)

    def test_malformed_server_hello_rejected(self):
        with pytest.raises(ValueError):
            decode_server_hello(b"CLIENTHELLO alpn=h2 npn=1\n")
