"""Abuse-guard knobs (ISSUE 7): each fires exactly once, with one
terminal GOAWAY(ENHANCE_YOUR_CALM) naming the knob, and benign traffic
never trips any of them."""

from repro.h2 import events as ev
from repro.h2.constants import ErrorCode, SettingCode
from repro.h2.frames import GoAwayFrame, HeadersFrame, parse_frames
from repro.net.clock import Simulation
from repro.net.transport import LinkProfile, Network
from repro.scope.client import ScopeClient
from repro.servers.profiles import AbuseGuards
from repro.servers.site import Site, deploy_site
from repro.servers.vendors import VENDOR_FACTORIES, vendor_guards
from repro.servers.website import Resource, Website, default_website
from tests.conftest import sim_session
from tests.support.readers import data_for, open_connections

IWS = int(SettingCode.INITIAL_WINDOW_SIZE)
CALM = int(ErrorCode.ENHANCE_YOUR_CALM)


def deploy(guards: AbuseGuards, vendor: str = "nginx", website=None):
    sim = Simulation()
    network = Network(sim, seed=0)
    profile = VENDOR_FACTORIES[vendor]().clone(guards=guards)
    site = Site(
        domain="guards.test",
        profile=profile,
        website=website or default_website(),
        link=LinkProfile(rtt=0.02, bandwidth=50e6),
    )
    server = deploy_site(network, site)
    return network, server


def stall_website() -> Website:
    site = default_website()
    site.add(Resource("/big.bin", 300_000, "application/octet-stream"))
    return site


def goaway_received(client: ScopeClient) -> ev.GoAwayReceived | None:
    for te in client.events:
        if isinstance(te.event, ev.GoAwayReceived):
            return te.event
    return None


def assert_single_breach(client, server, reason: str) -> None:
    assert [event.reason for event in server.guard_log] == [reason]
    goaway = goaway_received(client)
    assert goaway is not None
    assert goaway.error_code == CALM
    assert goaway.debug_data == reason.encode()
    client.wait_for(lambda: client.peer_closed, timeout=2.0)
    assert client.peer_closed
    assert open_connections(server) == 0


class TestDeadlineGuards:
    def test_preface_timeout_fires_once(self):
        network, server = deploy(AbuseGuards(preface_timeout=2.0))
        client = sim_session(network).client("guards.test")
        client.connect()
        client.tls_handshake()
        # Never send a preface byte; the deadline must evict us.
        client.wait_for(lambda: client.peer_closed, timeout=6.0)
        assert [event.reason for event in server.guard_log] == ["preface-timeout"]
        assert abs(server.guard_log[0].at - client.now) < 3.0
        # No engine is attached pre-preface: the GOAWAY sits in the
        # limbo buffer, parseable as a raw frame.
        frames, _rest = parse_frames(bytes(client._limbo_buffer))
        goaways = [f for f in frames if isinstance(f, GoAwayFrame)]
        assert len(goaways) == 1
        assert goaways[0].error_code == CALM
        assert goaways[0].debug_data == b"preface-timeout"
        assert client.peer_closed
        assert open_connections(server) == 0

    def test_header_timeout_fires_once(self):
        network, server = deploy(AbuseGuards(header_timeout=1.5))
        client = sim_session(network).client("guards.test")
        assert client.establish_h2()
        conn = client.conn
        block = conn.encoder.encode(
            [
                (":method", "GET"),
                (":scheme", "https"),
                (":path", "/"),
                (":authority", "guards.test"),
            ]
        )
        # HEADERS without END_HEADERS opens an assembly that never ends.
        conn.send_raw_frame(
            HeadersFrame(stream_id=conn.next_stream_id(), header_block=block[:1])
        )
        client.flush()
        client.wait_for(lambda: goaway_received(client) is not None, timeout=6.0)
        assert_single_breach(client, server, "header-timeout")

    def test_idle_timeout_fires_once(self):
        network, server = deploy(AbuseGuards(idle_timeout=2.0))
        client = sim_session(network).client("guards.test")
        assert client.establish_h2()
        client.wait_for(lambda: goaway_received(client) is not None, timeout=8.0)
        assert_single_breach(client, server, "idle-timeout")

    def test_stall_timeout_wins_over_idle(self):
        # Both deadlines armed; the stall fires first and the later
        # idle expiry must NOT add a second breach (guards trip once).
        network, server = deploy(
            AbuseGuards(stall_timeout=1.0, idle_timeout=2.0),
            website=stall_website(),
        )
        client = sim_session(network).client("guards.test", settings={IWS: 0})
        assert client.establish_h2()
        client.request("/big.bin")
        client.wait_for(lambda: goaway_received(client) is not None, timeout=8.0)
        # Let the idle deadline pass too, then count breaches.
        client.wait_for(lambda: False, timeout=3.0)
        assert_single_breach(client, server, "stall-timeout")


class TestRateGuards:
    def test_ping_flood_limit_fires_once(self):
        network, server = deploy(
            AbuseGuards(ping_rate_limit=10, rate_window=1.0)
        )
        client = sim_session(network).client("guards.test")
        assert client.establish_h2()
        for i in range(30):
            client.conn.send_ping(i.to_bytes(8, "big"))
        client.flush()
        client.wait_for(lambda: goaway_received(client) is not None, timeout=4.0)
        assert_single_breach(client, server, "ping-flood")

    def test_settings_flood_limit_fires_once(self):
        network, server = deploy(
            AbuseGuards(settings_rate_limit=5, rate_window=1.0)
        )
        client = sim_session(network).client("guards.test")
        assert client.establish_h2()
        for _ in range(12):
            client.conn.send_settings({})
        client.flush()
        client.wait_for(lambda: goaway_received(client) is not None, timeout=4.0)
        assert_single_breach(client, server, "settings-flood")

    def test_rst_churn_limit_fires_once(self):
        network, server = deploy(AbuseGuards(rst_rate_limit=10, rate_window=1.0))
        client = sim_session(network).client("guards.test")
        assert client.establish_h2()
        for _ in range(25):
            sid = client.conn.next_stream_id()
            client.conn.send_headers(
                sid,
                [
                    (":method", "GET"),
                    (":scheme", "https"),
                    (":path", "/"),
                    (":authority", "guards.test"),
                ],
                end_stream=True,
            )
            client.conn.send_rst_stream(sid, 8)
        client.flush()
        client.wait_for(lambda: goaway_received(client) is not None, timeout=4.0)
        assert_single_breach(client, server, "rst-flood")

    def test_burst_across_a_window_boundary_trips(self):
        # 1 PING, then 9 at ~0.95 s and 10 at ~1.02 s: 19 inside the last
        # second, though a window restarted at 1 s would count only 10.
        network, server = deploy(AbuseGuards(ping_rate_limit=10, rate_window=1.0))
        client = sim_session(network).client("guards.test")
        assert client.establish_h2()
        sequence = 0
        for count, pause in ((1, 0.95), (9, 0.07), (10, 0.0)):
            for _ in range(count):
                client.conn.send_ping(sequence.to_bytes(8, "big"))
                sequence += 1
            client.flush()
            client.wait_for(lambda: False, timeout=pause)
        client.wait_for(lambda: goaway_received(client) is not None, timeout=4.0)
        assert_single_breach(client, server, "ping-flood")

    def test_rates_below_limit_never_trip(self):
        network, server = deploy(
            AbuseGuards(ping_rate_limit=10, rate_window=1.0)
        )
        client = sim_session(network).client("guards.test")
        assert client.establish_h2()
        # Three polite pings per second stays far under the limit.
        for i in range(9):
            client.conn.send_ping(i.to_bytes(8, "big"))
            client.flush()
            client.wait_for(lambda: False, timeout=0.35)
        assert server.guard_log == []
        assert goaway_received(client) is None


class TestBenignTrafficUnscathed:
    def test_normal_request_completes_under_vendor_guards(self):
        network, server = deploy(vendor_guards("nginx"))
        client = sim_session(network).client("guards.test", auto_window_update=True)
        assert client.establish_h2()
        sid = client.request("/")
        client.wait_for(
            lambda: any(
                isinstance(te.event, ev.StreamEnded)
                and te.event.stream_id == sid
                for te in client.events
            )
        )
        assert data_for(client, sid) == default_website().get("/").body()
        assert server.guard_log == []
        assert not client.peer_closed

    def test_all_default_guards_change_nothing(self):
        # AbuseGuards() (every knob None) must leave even a lazy but
        # legitimate client alone.
        network, server = deploy(AbuseGuards())
        client = sim_session(network).client("guards.test")
        assert client.establish_h2()
        client.wait_for(lambda: False, timeout=10.0)
        assert server.guard_log == []
        assert not client.peer_closed
