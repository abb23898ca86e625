"""Server engine behaviour, exercised through real connections."""

import pytest

from repro.h2 import events as ev
from repro.h2.connection import Reaction
from repro.h2.constants import ErrorCode, SettingCode
from repro.h2.frames import HeadersFrame
from repro.net.clock import Simulation
from repro.net.transport import LinkProfile, Network
from repro.scope.client import ScopeClient
from repro.servers.profiles import ServerProfile, TinyWindowBehavior
from repro.servers.site import Site, deploy_site
from repro.servers.website import Resource, Website, default_website
from tests.conftest import sim_session
from tests.support.readers import data_for

IWS = int(SettingCode.INITIAL_WINDOW_SIZE)
HTS = int(SettingCode.HEADER_TABLE_SIZE)
MCS = int(SettingCode.MAX_CONCURRENT_STREAMS)
MFS = int(SettingCode.MAX_FRAME_SIZE)


def deploy(
    profile: ServerProfile,
    website: Website | None = None,
    seed: int = 0,
    bandwidth: float = 50e6,
):
    sim = Simulation()
    network = Network(sim, seed=seed)
    site = Site(
        domain="engine.test",
        profile=profile,
        website=website or default_website(),
        link=LinkProfile(rtt=0.02, bandwidth=bandwidth),
    )
    deploy_site(network, site)
    return network


def connect(network, **client_kwargs) -> ScopeClient:
    client = sim_session(network).client("engine.test", **client_kwargs)
    assert client.establish_h2()
    return client


class TestBasicServing:
    def test_get_returns_resource_body(self):
        network = deploy(ServerProfile())
        client = connect(network, auto_window_update=True)
        sid = client.request("/")
        client.wait_for(
            lambda: any(
                isinstance(te.event, ev.StreamEnded) and te.event.stream_id == sid
                for te in client.events
            )
        )
        resource = default_website().get("/")
        assert data_for(client, sid) == resource.body()
        headers = dict(client.headers_for(sid).headers)
        assert headers[b":status"] == b"200"
        assert headers[b"content-length"] == str(resource.size).encode()

    def test_missing_path_is_404(self):
        network = deploy(ServerProfile())
        client = connect(network)
        sid = client.request("/nope")
        client.wait_for(lambda: client.headers_for(sid) is not None)
        assert dict(client.headers_for(sid).headers)[b":status"] == b"404"

    def test_server_header_matches_profile(self):
        network = deploy(ServerProfile(server_header="TestServer/9"))
        client = connect(network)
        sid = client.request("/")
        client.wait_for(lambda: client.headers_for(sid) is not None)
        assert dict(client.headers_for(sid).headers)[b"server"] == b"TestServer/9"

    def test_concurrent_requests_all_served(self):
        network = deploy(ServerProfile())
        client = connect(network, auto_window_update=True)
        sids = [client.request(p) for p in ["/", "/style.css", "/app.js"]]
        client.wait_for(
            lambda: {
                te.event.stream_id
                for te in client.events
                if isinstance(te.event, ev.StreamEnded)
            }
            >= set(sids),
            timeout=30,
        )
        for sid in sids:
            assert data_for(client, sid)

    def test_data_frames_respect_max_frame_size(self):
        network = deploy(ServerProfile())
        client = connect(network, auto_window_update=True)
        sid = client.request("/big.bin")
        client.wait_for(
            lambda: any(
                isinstance(te.event, ev.StreamEnded) and te.event.stream_id == sid
                for te in client.events
            ),
            timeout=60,
        )
        sizes = [
            len(te.event.data)
            for te in client.events_of(ev.DataReceived)
            if te.event.stream_id == sid
        ]
        assert max(sizes) <= 16_384


class TestMaxConcurrent:
    def test_excess_stream_refused(self):
        profile = ServerProfile(
            settings={MCS: 2, IWS: 65_536},
            # Slow responses keep the first streams occupied.
            processing_delay=0.5,
            processing_jitter=0.0,
        )
        network = deploy(profile)
        client = connect(network)
        sids = [client.request("/") for _ in range(3)]
        client.wait_for(
            lambda: any(isinstance(te.event, ev.StreamReset) for te in client.events),
            timeout=10,
        )
        resets = [
            te.event for te in client.events if isinstance(te.event, ev.StreamReset)
        ]
        assert resets
        assert resets[0].stream_id == sids[-1]
        assert resets[0].error_code == int(ErrorCode.REFUSED_STREAM)

    def test_a_stream_the_engine_reset_gives_its_slot_back(self):
        """LiteSpeed allowing one stream (the profile of ``site000063``
        in the seed-7 population): the stream a window overflow made the
        engine reset with RST_STREAM(FLOW_CONTROL_ERROR) no longer holds
        the only slot, so the next request is answered, not refused."""
        from repro.servers.vendors import litespeed

        profile = litespeed()
        profile = profile.clone(settings={**profile.settings, MCS: 1})
        client = connect(deploy(profile))
        first = client.request("/big.bin")
        client.wait_for(lambda: client.headers_for(first) is not None)
        half = 2**30 + 1  # two of these overflow any window
        client.conn.send_window_update(first, half)
        client.conn.send_window_update(first, half)
        client.flush()

        def resets(stream_id):
            return [
                te.event.error_code
                for te in client.events_of(ev.StreamReset)
                if te.event.stream_id == stream_id
            ]

        client.wait_for(lambda: resets(first))
        assert resets(first) == [int(ErrorCode.FLOW_CONTROL_ERROR)]
        # Stream 1's DATA spent the connection window; LiteSpeed holds
        # HEADERS behind it, so return the credit first.
        client.send_window_update(0, 1_000_000)
        second = client.request("/")
        client.wait_for(
            lambda: client.headers_for(second) is not None or resets(second)
        )
        assert resets(second) == []
        assert dict(client.headers_for(second).headers)[b":status"] == b"200"

    def test_a_stream_the_engine_reset_leaves_with_its_response_task(self):
        """The reset stream's response task goes with its slot: the
        server pins no octet for it, right after the reset and 30 s
        later."""
        from repro.servers.vendors import litespeed

        sim = Simulation()
        network = Network(sim, seed=0)
        site = Site(
            domain="engine.test",
            profile=litespeed(),
            website=default_website(),
            link=LinkProfile(rtt=0.02, bandwidth=50e6),
        )
        server = deploy_site(network, site)
        client = connect(network)
        first = client.request("/big.bin")
        client.wait_for(lambda: client.headers_for(first) is not None)
        assert server.pending_response_bytes > 0
        half = 2**30 + 1  # two of these overflow any window
        client.conn.send_window_update(first, half)
        client.conn.send_window_update(first, half)
        client.flush()
        client.wait_for(lambda: client.events_of(ev.StreamReset))
        (served,) = server.connections
        assert served._tasks == {}
        assert server.pending_response_bytes == 0
        client.backend.sleep(30.0)
        assert server.pending_response_bytes == 0

    def test_zero_limit_refuses_everything(self):
        profile = ServerProfile(settings={MCS: 0})
        network = deploy(profile)
        client = connect(network)
        sid = client.request("/")
        client.wait_for(
            lambda: any(isinstance(te.event, ev.StreamReset) for te in client.events)
        )
        assert any(
            isinstance(te.event, ev.StreamReset) and te.event.stream_id == sid
            for te in client.events
        )


class TestFlowControlQuirks:
    def test_window_sized_behaviour(self):
        network = deploy(ServerProfile())
        client = connect(network, settings={IWS: 7})
        sid = client.request("/")
        client.wait_for(
            lambda: any(
                te.event.stream_id == sid
                for te in client.events_of(ev.DataReceived)
            )
        )
        first = next(
            te.event for te in client.events_of(ev.DataReceived)
            if te.event.stream_id == sid
        )
        assert len(first.data) == 7

    def test_send_empty_behaviour(self):
        profile = ServerProfile(
            tiny_window_behavior=TinyWindowBehavior.SEND_EMPTY
        )
        network = deploy(profile)
        client = connect(network, settings={IWS: 1})
        sid = client.request("/")
        client.wait_for(
            lambda: any(
                te.event.stream_id == sid
                for te in client.events_of(ev.DataReceived)
            )
        )
        first = next(
            te.event for te in client.events_of(ev.DataReceived)
            if te.event.stream_id == sid
        )
        assert first.data == b""

    def test_silent_behaviour_sends_nothing(self):
        profile = ServerProfile(
            flow_control_on_headers=True,
            headers_hold_threshold=16,
            tiny_window_behavior=TinyWindowBehavior.SILENT,
        )
        network = deploy(profile)
        client = connect(network, settings={IWS: 1})
        sid = client.request("/")
        network.sim.run(until=network.sim.now + 3.0)
        assert client.headers_for(sid) is None
        assert not client.events_of(ev.DataReceived)

    def test_headers_sent_at_zero_window_by_default(self):
        network = deploy(ServerProfile())
        client = connect(network, settings={IWS: 0})
        sid = client.request("/")
        client.wait_for(lambda: client.headers_for(sid) is not None)
        assert client.headers_for(sid) is not None
        assert not [
            te for te in client.events_of(ev.DataReceived) if te.event.data
        ]

    def test_headers_held_with_flow_control_on_headers(self):
        profile = ServerProfile(flow_control_on_headers=True)
        network = deploy(profile)
        client = connect(network, settings={IWS: 0})
        sid = client.request("/")
        network.sim.run(until=network.sim.now + 3.0)
        assert client.headers_for(sid) is None
        # Granting window releases the held HEADERS.
        client.send_window_update(sid, 100_000)
        client.wait_for(lambda: client.headers_for(sid) is not None)
        assert client.headers_for(sid) is not None

    def test_nginx_zero_window_announce_quirk(self):
        profile = ServerProfile(
            settings={IWS: 0, MCS: 128},
            announce_zero_then_window_update=True,
        )
        network = deploy(profile)
        client = connect(network)
        # The server announced IWS 0 and then re-opened the connection
        # window with a WINDOW_UPDATE.
        assert any(
            isinstance(te.event, ev.WindowUpdateReceived)
            and te.event.stream_id == 0
            for te in client.events
        )
        sid = client.request("/")
        client.wait_for(
            lambda: any(
                isinstance(te.event, ev.WindowUpdateReceived)
                and te.event.stream_id == sid
                for te in client.events
            )
        )


class TestPush:
    def test_push_promise_before_response_body(self):
        network = deploy(ServerProfile(supports_push=True))
        client = connect(network, enable_push=True, auto_window_update=True)
        sid = client.request("/")
        client.wait_for(
            lambda: any(
                isinstance(te.event, ev.StreamEnded) and te.event.stream_id == sid
                for te in client.events
            ),
            timeout=30,
        )
        promises = client.events_of(ev.PushPromiseReceived)
        assert promises
        promised_paths = {
            dict(te.event.headers)[b":path"].decode() for te in promises
        }
        assert promised_paths == set(default_website().get("/").push)

    def test_no_push_when_client_disables(self):
        network = deploy(ServerProfile(supports_push=True))
        client = connect(network, enable_push=False, auto_window_update=True)
        sid = client.request("/")
        client.wait_for(
            lambda: any(
                isinstance(te.event, ev.StreamEnded) and te.event.stream_id == sid
                for te in client.events
            ),
            timeout=30,
        )
        assert not client.events_of(ev.PushPromiseReceived)

    def test_no_push_when_profile_disables(self):
        network = deploy(ServerProfile(supports_push=False))
        client = connect(network, enable_push=True, auto_window_update=True)
        sid = client.request("/")
        client.wait_for(
            lambda: any(
                isinstance(te.event, ev.StreamEnded) and te.event.stream_id == sid
                for te in client.events
            ),
            timeout=30,
        )
        assert not client.events_of(ev.PushPromiseReceived)

    def test_pushed_body_delivered(self):
        network = deploy(ServerProfile(supports_push=True))
        client = connect(network, enable_push=True, auto_window_update=True)
        client.request("/")
        client.settle(quiet_period=0.5, timeout=30)
        promises = client.events_of(ev.PushPromiseReceived)
        promised = promises[0].event.promised_stream_id
        path = dict(promises[0].event.headers)[b":path"].decode()
        assert data_for(client, promised) == default_website().get(path).body()


class TestHpackBehaviour:
    def test_indexing_server_shrinks_repeated_responses(self):
        network = deploy(ServerProfile(hpack_index_responses=True))
        client = connect(network, auto_window_update=True)
        sizes = []
        for _ in range(3):
            sid = client.request("/style.css")
            client.wait_for(lambda: client.headers_for(sid) is not None)
            sizes.append(client.headers_for(sid).encoded_size)
        assert sizes[1] < sizes[0]
        assert sizes[2] == sizes[1]

    def test_non_indexing_server_constant_sizes(self):
        network = deploy(ServerProfile(hpack_index_responses=False))
        client = connect(network, auto_window_update=True)
        sizes = []
        for _ in range(3):
            sid = client.request("/style.css")
            client.wait_for(lambda: client.headers_for(sid) is not None)
            sizes.append(client.headers_for(sid).encoded_size)
        assert len(set(sizes)) == 1

    def test_cookie_per_response_grows_blocks(self):
        network = deploy(ServerProfile(new_cookie_each_response=True))
        client = connect(network, auto_window_update=True)
        sizes = []
        for _ in range(3):
            sid = client.request("/style.css")
            client.wait_for(lambda: client.headers_for(sid) is not None)
            sizes.append(client.headers_for(sid).encoded_size)
        # Fresh cookies keep later blocks at least as big as the first
        # indexed repeat would be — ratio ends up above 1 in Eq. 1 terms.
        assert sum(sizes) / (sizes[0] * 3) > 1.0


class _HeaderBlocks(list):
    """A client trace sink that keeps each received header block."""

    def record(self, at, frame):
        if isinstance(frame, HeadersFrame):
            self.append(bytes(frame.header_block))


class TestDrawsFollowThePath:
    """Each response draws its processing delay and header noise from a
    stream keyed by the site and the request path (DESIGN §8), so the
    same requests draw the same values however they are spread over
    connections."""

    PATHS = ["/", "/style.css", "/", "/missing", "/app.js", "/style.css", "/"]

    def serve(self, groups):
        """Send ``groups`` of requests, one connection per group, each
        request after the previous response's HEADERS; returns each
        response's request-to-HEADERS interval and header block."""
        # An unbounded link: a request's serialization, which depends on
        # the client's HPACK state, must not show in the interval.
        network = deploy(
            ServerProfile(response_header_noise=1.0), seed=5, bandwidth=1e15
        )
        intervals, blocks = [], []
        for group in groups:
            sink = _HeaderBlocks()
            # A zero-size dynamic table makes a block a function of its
            # header list, and a zero window keeps the link idle.
            client = connect(
                network, settings={HTS: 0, IWS: 0}, enable_push=False, trace=sink
            )
            for path in group:
                sent = client.now
                sid = client.request(path)
                assert client.wait_for(lambda: client.headers_for(sid) is not None)
                intervals.append(
                    next(
                        te.at
                        for te in client.events_of(ev.HeadersReceived)
                        if te.event.stream_id == sid
                    )
                    - sent
                )
                client.send_rst_stream(sid)
            client.close()
            # Each connection's first block opens with the table size
            # update that HEADER_TABLE_SIZE = 0 asks for (RFC 7541 §4.2).
            assert sink[0][:1] == b"\x20"
            blocks.extend([sink[0][1:], *sink[1:]])
        return intervals, blocks

    def test_one_connection_or_three_draw_the_same(self):
        one = self.serve([self.PATHS])
        three = self.serve([self.PATHS[:2], self.PATHS[2:5], self.PATHS[5:]])
        assert three[0] == pytest.approx(one[0], abs=1e-9)
        assert three[1] == one[1]
        # Every block carries a request id of its own.
        assert len(set(one[1])) == len(self.PATHS)


class TestHttp1Fallback:
    def test_http1_get(self):
        network = deploy(ServerProfile())
        client = sim_session(network).client(
            "engine.test", alpn=["http/1.1"], offer_npn=False
        )
        client.connect()
        client.tls_handshake()
        assert client.tls.chosen == "http/1.1"
        interval = client.http1_get("/style.css")
        assert interval is not None and interval > 0

    def test_h1_only_server_rejects_h2(self):
        network = deploy(ServerProfile(supports_alpn=False, supports_npn=False))
        client = sim_session(network).client("engine.test")
        client.connect()
        tls = client.tls_handshake()
        # Neither extension: nothing is negotiated and HTTP/1.1 is implied.
        assert tls.chosen is None
        assert client.http1_get("/style.css") is not None


class TestResetAndTermination:
    def test_client_reset_cancels_response(self):
        network = deploy(ServerProfile(processing_delay=0.2, processing_jitter=0.0))
        client = connect(network)
        sid = client.request("/big.bin")
        client.send_rst_stream(sid)
        network.sim.run(until=network.sim.now + 2.0)
        # No DATA should arrive for the reset stream.
        assert not [
            te for te in client.events_of(ev.DataReceived)
            if te.event.stream_id == sid and te.event.data
        ]

    def test_unresponsive_profile_stays_mute(self):
        network = deploy(ServerProfile(h2_unresponsive=True))
        client = sim_session(network).client("engine.test")
        client.connect()
        client.tls_handshake()
        assert client.tls.chosen == "h2"
        client.start_h2()
        client.request("/")
        network.sim.run(until=network.sim.now + 3.0)
        assert not client.events_of(ev.SettingsReceived)
        assert not client.events_of(ev.HeadersReceived)

    def test_no_settings_profile(self):
        network = deploy(ServerProfile(send_settings_frame=False))
        client = sim_session(network).client("engine.test")
        client.establish_h2(timeout=3)
        sid = client.request("/")
        client.wait_for(lambda: client.headers_for(sid) is not None)
        assert not client.events_of(ev.SettingsReceived)
        assert client.headers_for(sid) is not None


class TestGoawaySemantics:
    def test_requests_after_goaway_unanswered(self):
        """After the server GOAWAYs (e.g. reacting to a zero window
        update), later requests on the connection get no response."""
        from repro.h2.connection import Reaction

        profile = ServerProfile(
            on_zero_window_update_connection=Reaction.GOAWAY
        )
        network = deploy(profile)
        client = connect(network)
        first = client.request("/style.css")
        client.wait_for(lambda: client.headers_for(first) is not None)
        client.send_window_update(0, 0)  # provoke GOAWAY
        client.wait_for(
            lambda: any(isinstance(te.event, ev.GoAwayReceived) for te in client.events)
        )
        late = client.request("/app.js")
        network.sim.run(until=network.sim.now + 2.0)
        assert client.headers_for(late) is None

    def test_goaway_carries_highest_processed_stream(self):
        from repro.h2.connection import Reaction

        profile = ServerProfile(
            on_zero_window_update_connection=Reaction.GOAWAY
        )
        network = deploy(profile)
        client = connect(network)
        sid = client.request("/style.css")
        client.wait_for(lambda: client.headers_for(sid) is not None)
        client.send_window_update(0, 0)
        client.wait_for(
            lambda: any(isinstance(te.event, ev.GoAwayReceived) for te in client.events)
        )
        goaway = next(
            te.event for te in client.events if isinstance(te.event, ev.GoAwayReceived)
        )
        assert goaway.last_stream_id == sid


TEAR = "/tear.bin"


def tear_site(size: int) -> Website:
    """The default site plus one object whose 11-octet pattern is cut
    mid-repeat by every window the tests below grant."""
    site = default_website()
    site.add(Resource(TEAR, size, "application/octet-stream"))
    return site


def read_to_end(client: ScopeClient, sid: int, grant: int, rounds: int = 400) -> bytes:
    """A reader that never updates a window by itself: each time the
    server has used up stream ``sid``'s window (or a virtual second
    passes: a SEND_EMPTY server waits to be poked) it grants ``grant``
    octets more, until END_STREAM.  Returns what the stream carried."""

    def ended() -> bool:
        return any(te.event.stream_id == sid for te in client.events_of(ev.StreamEnded))

    def received() -> int:
        return sum(
            len(te.event.data)
            for te in client.events_of(ev.DataReceived)
            if te.event.stream_id == sid
        )

    granted = grant  # the client's SETTINGS_INITIAL_WINDOW_SIZE
    client.send_window_update(0, 2**30)  # only the stream's window limits
    for _ in range(rounds):
        client.wait_for(lambda: ended() or received() >= granted, timeout=1.0)
        if ended():
            return data_for(client, sid)
        client.send_window_update(sid, grant)
        granted += grant
    raise AssertionError(f"stream {sid} did not end in {rounds} grants")


class TestBodyMadePerChunk:
    """ISSUE 19: the engine keeps no body; every DATA frame's octets are
    made from the resource as the frame is sent."""

    @staticmethod
    def _counters(monkeypatch):
        """Octets asked of ``Resource`` — slice by slice (the HTTP/2
        path) or as a whole ``body()`` (HTTP/1.1) — and DATA payload
        octets server connections serialise."""
        from repro.h2.connection import H2Connection, Side
        from repro.h2.frames import DataFrame

        counts = {"made_h2": 0, "made_whole": 0, "sent": 0}
        whole_depth = []
        real_slice, real_body = Resource.body_slice, Resource.body
        real_send_frame = H2Connection._send_frame

        def body_slice(self, offset, length):
            chunk = real_slice(self, offset, length)
            counts["made_whole" if whole_depth else "made_h2"] += len(chunk)
            return chunk

        def body(self):
            whole_depth.append(None)
            try:
                return real_body(self)
            finally:
                whole_depth.pop()

        def send_frame(self, frame):
            if self.config.side is Side.SERVER and isinstance(frame, DataFrame):
                counts["sent"] += len(frame.data)
            real_send_frame(self, frame)

        monkeypatch.setattr(Resource, "body_slice", body_slice)
        monkeypatch.setattr(Resource, "body", body)
        monkeypatch.setattr(H2Connection, "_send_frame", send_frame)
        return counts

    def test_made_equals_sent_over_full_probe_sites(self, monkeypatch):
        """The first ten sites of the benchmark's ``sim_clean_full``
        inputs, all seven probe groups.  The probes ask for ~1 MB
        objects and refuse to read them: before ISSUE 19 the engine
        made 7.6 octets for each one it put into a DATA frame."""
        import random

        from repro.population.generator import PopulationConfig, make_population
        from repro.scope.scanner import scan_site

        sites = make_population(PopulationConfig(n_sites=160, seed=7))
        random.Random(7).shuffle(sites)
        counts = self._counters(monkeypatch)
        for site in sites[:10]:
            scan_site(site, seed=7)
        assert counts["sent"] > 1_000_000
        assert counts["made_h2"] == counts["sent"]
        # The HTTP/1.1 wire still takes whole bodies (a few front pages).
        assert 0 < counts["made_whole"] < counts["sent"]

    @pytest.mark.parametrize("grant", [1, 15, 16, 17, 16_383, 65_535])
    def test_windows_do_not_tear_the_body(self, grant, monkeypatch):
        size = min(200_000, 37 * grant + 5)
        counts = self._counters(monkeypatch)
        network = deploy(ServerProfile(), website=tear_site(size))
        client = connect(network, settings={IWS: grant})
        sid = client.request(TEAR)
        assert read_to_end(client, sid, grant) == Resource(TEAR, size).body()
        assert counts["made_h2"] == counts["sent"] == size

    def test_lowering_max_frame_size_mid_response(self):
        size, grant = 200_000, 30_000
        network = deploy(ServerProfile(), website=tear_site(size))
        client = connect(network, settings={IWS: grant, MFS: 65_536})
        sid = client.request(TEAR)
        client.wait_for(lambda: len(data_for(client, sid)) >= grant)
        client.send_settings({MFS: 16_384})
        assert read_to_end(client, sid, grant) == Resource(TEAR, size).body()

    def test_send_empty_tiny_window(self):
        profile = ServerProfile(tiny_window_behavior=TinyWindowBehavior.SEND_EMPTY)
        network = deploy(profile, website=tear_site(190))
        client = connect(network, settings={IWS: 5})
        sid = client.request(TEAR)
        assert read_to_end(client, sid, 5) == Resource(TEAR, 190).body()
        first = next(
            te.event for te in client.events_of(ev.DataReceived)
            if te.event.stream_id == sid
        )
        assert first.data == b""

    def test_pushed_resource_through_small_windows(self):
        network = deploy(ServerProfile(supports_push=True))
        client = connect(network, enable_push=True, settings={IWS: 1_000})
        client.request("/")
        client.wait_for(lambda: bool(client.events_of(ev.PushPromiseReceived)))
        promise = client.events_of(ev.PushPromiseReceived)[0].event
        path = dict(promise.headers)[b":path"].decode()
        body = default_website().get(path).body()
        assert len(body) > 16 * 1_000
        assert read_to_end(client, promise.promised_stream_id, 1_000) == body

    def test_h2c_upgraded_stream_one_through_small_windows(self):
        network = deploy(ServerProfile(supports_h2c=True))
        client = sim_session(network).client(
            "engine.test", port=80, settings={IWS: 1_000}
        )
        client.connect()
        assert client.upgrade_h2c("/style.css")
        body = default_website().get("/style.css").body()
        assert read_to_end(client, 1, 1_000) == body

    def test_slow_read_pins_what_it_pinned(self):
        """``pending_response_bytes`` is a modeled figure (size - offset
        per task) and reads what the parent's buffered bodies read: 16
        objects of 100 000 octets, one octet of each sent."""
        from repro.attacks import run_attack
        from tests.test_attacks import slow_read_site

        result = run_attack(
            "slow_read",
            slow_read_site(16, 100_000),
            duration=10.0,
            knobs={"streams": 16},
        )
        assert result.peak_pinned_bytes == 16 * (100_000 - 1)
        # From the first beat after the requests went out to the last.
        pinned = [metrics["pinned_bytes"] for _, metrics in result.samples[1:]]
        assert len(pinned) == 40 and set(pinned) == {1_599_984}
