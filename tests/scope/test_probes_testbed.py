"""Probe outcomes against the six testbed vendors == Table III.

Every test here is a paper-level assertion: H2Scope's probes, run
against the vendor behaviour models, must reproduce the corresponding
Table III cell.
"""

import pytest

from repro.scope.probes import (
    probe_priority,
    probe_self_dependency,
)
from repro.scope.probes.flow_control import (
    SharedConnection,
    probe_large_window_update,
    probe_tiny_window,
    probe_zero_window_headers,
    probe_zero_window_update,
)
from repro.scope.probes.hpack_probe import REPETITIONS
from repro.scope.report import ErrorReaction, TinyWindowResult

from tests.conftest import hpack_of, negotiation_of, ping_of, push_of, sim_session
from tests.scope.conftest import DEPLETION_PATHS, TEST_PATHS, deploy_vendor


class TestNegotiationRow:
    def test_alpn_supported_by_all(self, vendor):
        network, domain = deploy_vendor(vendor)
        result, _ = negotiation_of(sim_session(network), domain)
        assert result.alpn_h2

    def test_npn_supported_except_apache(self, vendor):
        network, domain = deploy_vendor(vendor)
        result, _ = negotiation_of(sim_session(network), domain)
        assert result.npn_h2 == (vendor != "apache")

    def test_headers_and_server_name(self, vendor):
        network, domain = deploy_vendor(vendor)
        result, _ = negotiation_of(sim_session(network), domain)
        assert result.headers_received
        assert result.server_header is not None


class TestShortProbeConnectionBudget:
    """The settings probe reads the SETTINGS the negotiation fetch
    received, on the handshake that chose h2, and ping's PINGs take
    their turn on the fetch's connection (DESIGN §8), so a fault-free
    short-probe scan opens two connections for negotiation, settings
    and the PINGs together, and one for ping's HTTP/1.1 samples: three
    a site."""

    @pytest.mark.parametrize(
        "alpn, npn", [(True, True), (False, True)], ids=["alpn-h2", "npn-only"]
    )
    def test_three_connections(self, monkeypatch, alpn, npn):
        from repro.net.transport import Network
        from repro.scope import scanner
        from repro.servers.site import Site
        from repro.servers.vendors import nginx
        from repro.servers.website import testbed_website

        connects = []
        real_connect = Network.connect

        def connect(self, *args, **kwargs):
            connects.append(args)
            return real_connect(self, *args, **kwargs)

        monkeypatch.setattr(Network, "connect", connect)
        site = Site(
            domain="four.testbed",
            profile=nginx().clone(supports_alpn=alpn, supports_npn=npn),
            website=testbed_website(),
        )
        report = scanner.scan_site(
            site, include={"negotiation", "settings", "ping"}, seed=7
        )
        assert (report.negotiation.alpn_h2, report.negotiation.npn_h2) == (alpn, npn)
        assert report.negotiation.headers_received
        assert report.settings.announced == {3: 128, 4: 0, 5: 16384}
        assert report.ping.ping_supported
        assert not report.errors
        assert len(connects) == 3


class TestHeaderBlockLink:
    """The negotiation fetch is the first turn on the site's header-block
    link: push reads the promises its stream received and HPACK takes its
    header block as S_1, so neither opens a connection while the fetch's
    connection lives.  When the server ended it, the link opens a fresh
    one and fetches ``/`` there (DESIGN §8)."""

    @pytest.mark.parametrize(
        "alpn, npn", [(True, True), (False, True)], ids=["alpn-h2", "npn-only"]
    )
    def test_push_and_hpack_open_no_connection(self, alpn, npn):
        from repro.scope import scanner
        from repro.servers.site import Site
        from repro.servers.vendors import nginx
        from repro.servers.website import testbed_website
        from tests.support.work import WorkCounter

        site = Site(
            domain="four.testbed",
            profile=nginx().clone(supports_alpn=alpn, supports_npn=npn),
            website=testbed_website(),
        )
        with WorkCounter() as counter:
            report = scanner.scan_site(site, seed=7)
        assert (report.negotiation.alpn_h2, report.negotiation.npn_h2) == (alpn, npn)
        assert not report.errors
        connects = {
            group: counter.work[group]["client.connects"]
            for group in ("negotiation", "push", "hpack")
        }
        assert connects == {"negotiation": 2, "push": 0, "hpack": 0}
        assert len(report.hpack.header_sizes) == REPETITIONS
        assert report.hpack.ratio == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "include",
        [{"negotiation", "settings", "ping"}, None],
        ids=["short-probes", "every-group"],
    )
    def test_the_pings_leave_on_the_fetch_connection(self, monkeypatch, include):
        """Ping's PINGs are the link's last turn: they leave on the
        endpoint that sent the negotiation fetch, and the first one's
        write carries the cancel of the stream the link still held (the
        fetch itself, or HPACK's last request)."""
        from repro.h2.constants import CONNECTION_PREFACE, FrameType
        from repro.h2.frames import parse_frames_view
        from repro.net.transport import Endpoint, Network
        from repro.scope import scanner
        from repro.servers.site import Site
        from repro.servers.vendors import nginx
        from repro.servers.website import testbed_website

        connects, writes = [], []
        real_connect, real_send = Network.connect, Endpoint.send

        def connect(self, *args, **kwargs):
            connects.append(args)
            return real_connect(self, *args, **kwargs)

        def send(self, data):
            towards_server = self._label[2]
            if towards_server and not data.startswith(
                (b"CLIENTHELLO", CONNECTION_PREFACE)
            ):
                frames, _ = parse_frames_view(memoryview(data), max_frame_size=1 << 24)
                writes.append((self, frames))
            return real_send(self, data)

        monkeypatch.setattr(Network, "connect", connect)
        monkeypatch.setattr(Endpoint, "send", send)
        site = Site(
            domain="link.testbed", profile=nginx(), website=testbed_website()
        )
        report = scanner.scan_site(site, include=include, seed=7)
        assert report.ping.ping_supported and not report.errors

        def types(frames):
            return [frame.frame_type for frame in frames]

        fetch_endpoint = next(
            endpoint for endpoint, frames in writes if FrameType.HEADERS in types(frames)
        )
        pings = [
            (index, endpoint, frames)
            for index, (endpoint, frames) in enumerate(writes)
            if FrameType.PING in types(frames)
        ]
        assert len(pings) == 3
        assert {endpoint for _, endpoint, _ in pings} == {fetch_endpoint}
        first, _, frames = pings[0]
        held = [
            frame.stream_id
            for endpoint, sent in writes[:first]
            if endpoint is fetch_endpoint
            for frame in sent
            if frame.frame_type is FrameType.HEADERS
        ][-1]
        assert types(frames) == [FrameType.RST_STREAM, FrameType.PING]
        assert frames[0].stream_id == held
        if include is not None:
            assert held == 1 and len(connects) == 3

    def test_hpack_takes_the_fetch_block_as_its_first_sample(self):
        from repro.scope.probes import HeaderBlockLink, probe_hpack, probe_push
        from repro.scope.report import HpackResult, PushResult

        network, domain = deploy_vendor("h2o")
        session = sim_session(network)
        push, hpack = PushResult(), HpackResult()
        with HeaderBlockLink(session, domain) as link:
            negotiation_fetch(session, domain, link)
            fetch = link.client.headers_for(link.fetch)
            probe_push(link, push)
            probe_hpack(link, hpack)
        assert hpack.header_sizes[0] == fetch.encoded_size
        assert len(hpack.header_sizes) == REPETITIONS
        assert set(push.promised_paths) == {"/style.css", "/app.js"}

    def test_a_link_the_server_ended_is_replaced(self, monkeypatch):
        from repro.net.transport import Network
        from repro.scope.probes import HeaderBlockLink, probe_hpack, probe_push
        from repro.scope.report import HpackResult, PushResult

        connects = []
        real_connect = Network.connect

        def connect(self, *args, **kwargs):
            connects.append(args)
            return real_connect(self, *args, **kwargs)

        monkeypatch.setattr(Network, "connect", connect)
        network, domain = deploy_vendor("nghttpd")
        session = sim_session(network)
        push, hpack = PushResult(), HpackResult()
        with HeaderBlockLink(session, domain) as link:
            negotiation_fetch(session, domain, link)
            ended = link.client
            # nghttpd answers a zero connection-level update with GOAWAY.
            ended.send_window_update(0, 0)
            assert ended.wait_for(lambda: ended.conn.terminated)
            before = len(connects)
            probe_push(link, push)
            assert link.client is not ended and link.fetch == 1
            assert len(connects) == before + 1
            probe_hpack(link, hpack)
            assert len(connects) == before + 1
        assert push.push_received
        assert len(hpack.header_sizes) == REPETITIONS


def negotiation_fetch(session, domain, link):
    """``probe_negotiation`` on ``link``, which then holds the fetch."""
    from repro.scope.probes import probe_negotiation
    from repro.scope.report import NegotiationResult, SettingsResult

    result = NegotiationResult()
    probe_negotiation(session, domain, link, result, SettingsResult())
    assert result.headers_received and link.fetch is not None
    return result


class TestFlowControlConnectionBudget:
    """Five flow-control sub-probes take turns on one connection, the
    connection-level zero and large updates last, and the zero-window
    HEADERS probe keeps its own (DESIGN §8).  A GOAWAY makes the next
    turn open a fresh connection, so ``flow_control`` opens two
    connections on a server that answers neither zero update with
    GOAWAY (nginx, tengine), three on one that answers only the
    connection-level one with it (h2o, litespeed) and four on one that
    answers both (apache, nghttpd).  The verdicts are the ones each
    sub-probe read on a connection of its own."""

    RST, AWAY, IGN = ErrorReaction.RST_STREAM, ErrorReaction.GOAWAY, ErrorReaction.IGNORE
    SIZED, SILENT = TinyWindowResult.WINDOW_SIZED_DATA, TinyWindowResult.NO_RESPONSE
    #: vendor -> (connections, tiny_window, first_data_size,
    #: headers_with_zero_window, zero_update_stream, zero_update_connection,
    #: large_update_stream, large_update_connection)
    EXPECTED = {
        "apache": (4, SIZED, 1, True, AWAY, AWAY, RST, AWAY),
        "h2o": (3, SIZED, 1, True, RST, AWAY, RST, AWAY),
        "litespeed": (3, SILENT, None, False, RST, AWAY, RST, AWAY),
        "nghttpd": (4, SIZED, 1, True, AWAY, AWAY, RST, AWAY),
        "nginx": (2, SIZED, 1, True, IGN, IGN, RST, AWAY),
        "tengine": (2, SIZED, 1, True, IGN, IGN, RST, AWAY),
    }

    def test_flow_control_connections_and_verdicts(self, monkeypatch, vendor):
        from repro.net.transport import Network
        from repro.scope import scanner
        from repro.servers.site import Site
        from repro.servers.vendors import VENDOR_FACTORIES
        from repro.servers.website import default_website

        connects = []
        real_connect = Network.connect

        def connect(self, *args, **kwargs):
            connects.append(args)
            return real_connect(self, *args, **kwargs)

        monkeypatch.setattr(Network, "connect", connect)
        site = Site(
            domain=f"{vendor}.testbed",
            profile=VENDOR_FACTORIES[vendor](),
            website=default_website(),
        )
        report = scanner.scan_site(site, include={"flow_control"}, seed=7)
        fc = report.flow_control
        assert not report.errors
        assert (
            len(connects),
            fc.tiny_window,
            fc.first_data_size,
            fc.headers_with_zero_window,
            fc.zero_update_stream,
            fc.zero_update_connection,
            fc.large_update_stream,
            fc.large_update_connection,
        ) == self.EXPECTED[vendor]
        assert fc.zero_update_debug_data == b""

    def test_a_one_stream_server_answers_every_turn(self):
        """Each sub-probe cancels its stream before the next opens one, so
        a server that allows one concurrent stream (like ``site000063``
        of the seed-7 ``sim_clean_full`` population) reads each request
        as it would on a connection of its own, not as one too many.  The
        connection-level zero update follows a stream the engine reset
        itself (the large stream-level update), whose slot came back."""
        from repro.h2.connection import Reaction
        from repro.scope import scanner
        from repro.servers.site import Site
        from repro.servers.vendors import VENDOR_FACTORIES
        from repro.servers.website import default_website

        litespeed = VENDOR_FACTORIES["litespeed"]()
        profile = litespeed.clone(
            settings={**litespeed.settings, 3: 1},  # MAX_CONCURRENT_STREAMS
            on_zero_window_update_stream=Reaction.IGNORE,
        )
        site = Site(domain="one.testbed", profile=profile, website=default_website())
        fc = scanner.scan_site(site, include={"flow_control"}, seed=7).flow_control
        assert (
            fc.tiny_window,
            fc.zero_update_stream,
            fc.large_update_stream,
            fc.zero_update_connection,
            fc.large_update_connection,
        ) == (self.SILENT, self.IGN, self.RST, self.AWAY, self.AWAY)


class TestFlowControlRows:
    def test_data_frames_sized_to_window(self, vendor):
        # Sframe=64 exceeds LiteSpeed's hold threshold, so even it replies.
        network, domain = deploy_vendor(vendor)
        with SharedConnection(sim_session(network), domain, window=64) as shared:
            category, size, _ = probe_tiny_window(shared, path="/large/0.bin")
        assert category is TinyWindowResult.WINDOW_SIZED_DATA
        assert size == 64

    def test_litespeed_silent_at_one_octet(self):
        network, domain = deploy_vendor("litespeed")
        with SharedConnection(sim_session(network), domain, window=1) as shared:
            category, _, headers = probe_tiny_window(shared)
        assert category is TinyWindowResult.NO_RESPONSE
        assert not headers

    def test_zero_window_headers_compliance(self, vendor):
        network, domain = deploy_vendor(vendor)
        compliant = probe_zero_window_headers(
            sim_session(network), domain, path="/large/0.bin"
        )
        assert compliant == (vendor != "litespeed")

    ZERO_WU_STREAM = {
        "nginx": ErrorReaction.IGNORE,
        "tengine": ErrorReaction.IGNORE,
        "litespeed": ErrorReaction.RST_STREAM,
        "h2o": ErrorReaction.RST_STREAM,
        "nghttpd": ErrorReaction.GOAWAY,
        "apache": ErrorReaction.GOAWAY,
    }

    def test_zero_window_update_on_stream(self, vendor):
        network, domain = deploy_vendor(vendor)
        with SharedConnection(sim_session(network), domain) as shared:
            reaction, _ = probe_zero_window_update(
                shared, level="stream", path="/large/1.bin"
            )
        assert reaction is self.ZERO_WU_STREAM[vendor]

    ZERO_WU_CONN = {
        "nginx": ErrorReaction.IGNORE,
        "tengine": ErrorReaction.IGNORE,
        "litespeed": ErrorReaction.GOAWAY,
        "h2o": ErrorReaction.GOAWAY,
        "nghttpd": ErrorReaction.GOAWAY,
        "apache": ErrorReaction.GOAWAY,
    }

    def test_zero_window_update_on_connection(self, vendor):
        network, domain = deploy_vendor(vendor)
        with SharedConnection(sim_session(network), domain) as shared:
            reaction, _ = probe_zero_window_update(
                shared, level="connection", path="/large/1.bin"
            )
        assert reaction is self.ZERO_WU_CONN[vendor]

    def test_large_window_update_stream_rst(self, vendor):
        network, domain = deploy_vendor(vendor)
        with SharedConnection(sim_session(network), domain) as shared:
            reaction = probe_large_window_update(
                shared, level="stream", path="/large/2.bin"
            )
        assert reaction is ErrorReaction.RST_STREAM

    def test_large_window_update_connection_goaway(self, vendor):
        network, domain = deploy_vendor(vendor)
        with SharedConnection(sim_session(network), domain) as shared:
            reaction = probe_large_window_update(
                shared, level="connection", path="/large/2.bin"
            )
        assert reaction is ErrorReaction.GOAWAY


class TestPriorityRows:
    PASSES = {"h2o", "nghttpd", "apache"}

    def test_algorithm1(self, vendor):
        network, domain = deploy_vendor(vendor)
        result = probe_priority(
            sim_session(network), domain, TEST_PATHS, DEPLETION_PATHS
        )
        assert result.passes_algorithm1 == (vendor in self.PASSES)

    def test_strict_servers_pass_by_both_rules(self):
        network, domain = deploy_vendor("h2o")
        result = probe_priority(
            sim_session(network), domain, TEST_PATHS, DEPLETION_PATHS
        )
        assert result.follows_rules_by_first
        assert result.follows_rules_by_last
        assert result.follows_rules_by_both
        assert result.first_frame_order[0] == "D"
        assert result.first_frame_order[1] == "A"

    def test_fcfs_server_serves_in_request_order(self):
        network, domain = deploy_vendor("nginx")
        result = probe_priority(
            sim_session(network), domain, TEST_PATHS, DEPLETION_PATHS
        )
        assert result.first_frame_order == ["A", "B", "C", "D", "E", "F"]

    SELF_DEP = {
        "nginx": ErrorReaction.RST_STREAM,
        "tengine": ErrorReaction.RST_STREAM,
        "litespeed": ErrorReaction.IGNORE,
        "h2o": ErrorReaction.GOAWAY,
        "nghttpd": ErrorReaction.GOAWAY,
        "apache": ErrorReaction.GOAWAY,
    }

    def test_self_dependency(self, vendor):
        network, domain = deploy_vendor(vendor)
        reaction = probe_self_dependency(
            sim_session(network), domain, path="/large/3.bin"
        )
        assert reaction is self.SELF_DEP[vendor]


class TestPushRow:
    PUSHERS = {"h2o", "nghttpd", "apache"}

    def test_push(self, vendor):
        network, domain = deploy_vendor(vendor)
        result = push_of(sim_session(network), domain)
        assert result.push_received == (vendor in self.PUSHERS)

    def test_pushed_paths_resolve(self):
        network, domain = deploy_vendor("h2o")
        result = push_of(sim_session(network), domain)
        assert set(result.promised_paths) == {"/style.css", "/app.js"}


class TestHpackRow:
    def test_nginx_lineage_ratio_is_one(self):
        for vendor in ("nginx", "tengine"):
            network, domain = deploy_vendor(vendor)
            result = hpack_of(sim_session(network), domain)
            assert result.ratio == pytest.approx(1.0)

    def test_indexing_vendors_compress_well(self):
        for vendor in ("h2o", "nghttpd", "apache", "litespeed"):
            network, domain = deploy_vendor(vendor)
            result = hpack_of(sim_session(network), domain)
            assert result.ratio < 0.5, vendor

    def test_ratio_uses_equation_1(self):
        network, domain = deploy_vendor("h2o")
        result = hpack_of(sim_session(network), domain)
        sizes = result.header_sizes
        assert len(sizes) == REPETITIONS
        assert result.ratio == pytest.approx(sum(sizes) / (sizes[0] * REPETITIONS))

    def test_announced_stream_limit_is_honoured(self):
        """The population's ``site000063`` at seed 7: LiteSpeed
        announcing MAX_CONCURRENT_STREAMS 1 and enforcing it.  Request
        i+1 used to go out while body i was still open, was refused,
        and the site fell out of Figs. 4-5 with one header size."""
        from repro.h2.constants import SettingCode
        from repro.net.clock import Simulation
        from repro.net.transport import Network
        from repro.servers.site import Site, deploy_site
        from repro.servers.vendors import litespeed
        from repro.servers.website import testbed_website

        for limit in (1, 2):
            network = Network(Simulation(), seed=2)
            profile = litespeed()
            profile.settings = {int(SettingCode.MAX_CONCURRENT_STREAMS): limit}
            deploy_site(
                network,
                Site(domain="mcs.test", profile=profile, website=testbed_website()),
            )
            # The front page, 110 kB, is larger than a window: its stream
            # is still open when its HEADERS arrive.
            result = hpack_of(sim_session(network), "mcs.test")
            assert len(result.header_sizes) == 8, limit
            assert result.ratio is not None and result.ratio < 0.5, limit


class TestPushAndHpackFillTheirSection:
    """``probe_push`` and ``probe_hpack`` fill the report's section as they
    read it, so a raised attempt keeps what it read, and the scanner hands
    each attempt a fresh section, so no field mixes two attempts
    (DESIGN §8)."""

    @staticmethod
    def scan(monkeypatch, vendor, include, raise_at):
        """``probe_target`` on ``vendor`` with the client's wait number
        ``raise_at`` (counted over the included groups) raising."""
        from repro.scope.client import ScopeClient
        from repro.scope.resilience import ProbeTimeout
        from repro.scope.scanner import probe_target

        waits = []

        def wait(real):
            def waiting(self, *args, **kwargs):
                waits.append(None)
                if len(waits) == raise_at:
                    raise ProbeTimeout("cut")
                return real(self, *args, **kwargs)

            return waiting

        for name in ("wait_for", "settle"):
            monkeypatch.setattr(
                ScopeClient, name, wait(ScopeClient.__dict__[name])
            )
        network, domain = deploy_vendor(vendor)
        return probe_target(sim_session(network), domain, include=include)

    def test_a_raised_push_attempt_keeps_the_promises_it_read(self, monkeypatch):
        # Waits: SETTINGS, the page's HEADERS, then the settle.
        report = self.scan(monkeypatch, "h2o", {"push"}, raise_at=3)
        assert [error.probe for error in report.errors] == ["push"]
        assert report.push.push_received
        assert set(report.push.promised_paths) == {"/style.css", "/app.js"}

    def test_a_raised_hpack_attempt_keeps_the_sizes_it_read(self, monkeypatch):
        # Waits: SETTINGS, then one a response; the fourth response's raises.
        report = self.scan(monkeypatch, "nginx", {"hpack"}, raise_at=5)
        assert [error.probe for error in report.errors] == ["hpack"]
        assert len(report.hpack.header_sizes) == 3
        assert report.hpack.ratio is None

    def test_each_attempt_resets_the_section(self, monkeypatch):
        # The scanner hands every attempt an empty section: attempt 1
        # leaves stale values and raises, and attempt 2 starts on none.
        import repro.scope.scanner as scanner_module
        from repro.scope.report import PushResult
        from repro.scope.resilience import ResilienceConfig
        from repro.scope.scanner import probe_target

        handed = {}

        def stale_once(name, real, fill):
            def attempt(link, result):
                handed.setdefault(name, []).append(result == type(result)())
                if len(handed[name]) == 1:
                    fill(result)
                    raise ConnectionError("cut after a stale read")
                real(link, result)

            monkeypatch.setattr(scanner_module, name, attempt)

        stale_once(
            "probe_push",
            scanner_module.probe_push,
            lambda result: result.promised_paths.append("/stale.css"),
        )
        stale_once(
            "probe_hpack",
            scanner_module.probe_hpack,
            lambda result: result.header_sizes.extend([9, 9]),
        )
        network, domain = deploy_vendor("nginx")
        report = probe_target(
            sim_session(network),
            domain,
            include={"negotiation", "push", "hpack"},
            resilience=ResilienceConfig(retries=1),
        )
        assert handed == {"probe_push": [True, True], "probe_hpack": [True, True]}
        assert report.probe_attempts == {"negotiation": 1, "push": 2, "hpack": 2}
        # Each raise closed the link, so each retry fetches / on a new
        # connection: nginx pushes nothing, and HPACK reads every sample.
        assert report.push == PushResult()
        assert report.hpack.header_sizes == [66] * REPETITIONS


class TestPingRow:
    def test_all_vendors_answer_ping(self, vendor):
        network, domain = deploy_vendor(vendor)
        result = ping_of(sim_session(network), domain)
        assert result.ping_supported

    def test_ping_close_to_tcp_and_icmp(self):
        network, domain = deploy_vendor("nginx")
        result = ping_of(sim_session(network), domain)
        assert result.h2_ping_rtt == pytest.approx(result.tcp_rtt, rel=0.05)
        assert result.h2_ping_rtt == pytest.approx(result.icmp_rtt, rel=0.05)

    def test_http1_estimate_inflated_by_processing(self):
        network, domain = deploy_vendor("apache")
        result = ping_of(sim_session(network), domain)
        assert result.http1_rtt > result.h2_ping_rtt * 1.1


class TestSettingsProbe:
    """The settings the negotiation fetch reads, as the settings probe
    read them on a connection of its own (literals from before it was
    folded into the fetch)."""

    ANNOUNCED = {
        "apache": {3: 100, 4: 65535, 5: 16384, 6: 16384},
        "h2o": {3: 100, 4: 16777216, 5: 16384},
        "litespeed": {3: 100, 4: 65536, 5: 16384, 6: 16384},
        "nghttpd": {3: 100, 4: 65535, 5: 16384},
        "nginx": {3: 128, 4: 0, 5: 16384},
        "tengine": {3: 128, 4: 0, 5: 16384},
    }

    def test_announced_settings_recorded(self, vendor):
        network, domain = deploy_vendor(vendor)
        _, result = negotiation_of(sim_session(network), domain)
        assert result.settings_frame_received
        assert result.announced == self.ANNOUNCED[vendor]

    def test_nginx_announces_zero_initial_window(self):
        network, domain = deploy_vendor("nginx")
        _, result = negotiation_of(sim_session(network), domain)
        assert result.announced[4] == 0

    def test_no_fetch_reads_no_settings(self):
        from repro.net.clock import Simulation
        from repro.net.transport import Network
        from repro.servers.site import Site, deploy_site
        from repro.servers.vendors import nginx
        from repro.servers.website import testbed_website

        network = Network(Simulation(), seed=1)
        site = Site(
            domain="h1.testbed",
            profile=nginx().clone(supports_alpn=False, supports_npn=False),
            website=testbed_website(),
        )
        deploy_site(network, site)
        negotiation, result = negotiation_of(sim_session(network), site.domain)
        assert negotiation.tcp_connected and not negotiation.alpn_h2
        assert not result.settings_frame_received and result.announced == {}


class TestH2cRow:
    """The campaign no longer probes h2c (no profile enables it); the
    client's Upgrade path is checked against the testbed directly."""

    @staticmethod
    def upgrade(network, domain):
        client = sim_session(network).client(domain, port=80)
        client.connect()
        return client.upgrade_h2c("/")

    def test_testbed_vendors_decline_h2c_by_default(self, vendor):
        # Default profiles serve cleartext HTTP/1.1 but decline the
        # Upgrade (the paper's probes all run over TLS).
        network, domain = deploy_vendor(vendor)
        assert self.upgrade(network, domain) is False

    def test_h2c_enabled_profile_detected(self):
        from repro.net.clock import Simulation
        from repro.net.transport import Network
        from repro.servers.site import Site, deploy_site
        from repro.servers.vendors import nghttpd
        from repro.servers.website import testbed_website

        sim = Simulation()
        network = Network(sim, seed=1)
        site = Site(
            domain="h2c.testbed",
            profile=nghttpd().clone(supports_h2c=True),
            website=testbed_website(),
        )
        deploy_site(network, site)
        assert self.upgrade(network, "h2c.testbed") is True
        assert negotiation_of(sim_session(network), "h2c.testbed")[0].alpn_h2


class TestMaxConcurrentStreamsExercise:
    """§V-A's last paragraph: Nginx/Tengine with MAX_CONCURRENT_STREAMS
    forced to 0 or 1 refuse excess requests with RST_STREAM."""

    def _deploy(self, limit):
        from repro.h2.constants import SettingCode
        from repro.net.clock import Simulation
        from repro.net.transport import Network
        from repro.servers.site import Site, deploy_site
        from repro.servers.vendors import nginx
        from repro.servers.website import testbed_website

        sim = Simulation()
        network = Network(sim, seed=2)
        profile = nginx()
        profile.settings[int(SettingCode.MAX_CONCURRENT_STREAMS)] = limit
        profile.processing_delay = 0.3  # keep streams concurrently active
        profile.processing_jitter = 0.0
        site = Site(domain="mcs.test", profile=profile, website=testbed_website())
        deploy_site(network, site)
        client = sim_session(network).client("mcs.test")
        assert client.establish_h2()
        return client

    def test_limit_zero_refuses_first_request(self):
        from repro.h2 import events as ev

        client = self._deploy(0)
        sid = client.request("/")
        client.wait_for(
            lambda: any(isinstance(te.event, ev.StreamReset) for te in client.events)
        )
        resets = [te.event for te in client.events if isinstance(te.event, ev.StreamReset)]
        assert resets and resets[0].stream_id == sid

    def test_limit_one_refuses_second_simultaneous_request(self):
        from repro.h2 import events as ev

        client = self._deploy(1)
        first = client.request("/")
        second = client.request("/style.css")
        client.wait_for(
            lambda: any(isinstance(te.event, ev.StreamReset) for te in client.events)
        )
        resets = {te.event.stream_id for te in client.events if isinstance(te.event, ev.StreamReset)}
        assert second in resets
        assert first not in resets
