"""ScopeClient mechanics (connection setup, logging, waiting)."""

import pytest

from repro.h2 import events as ev
from repro.h2.frames import DataFrame, HeadersFrame
from repro.net.clock import Simulation
from repro.net.faults import FaultPlan
from repro.net.transport import LinkProfile, Network
from repro.servers.profiles import ServerProfile
from repro.servers.site import Site, deploy_site
from repro.servers.website import default_website
from repro.scope.resilience import (
    ConnectionRefusedFault,
    ConnectionResetFault,
    ProbeTimeout,
    TlsFault,
)
from repro.scope.trace import TraceRecorder
from tests.conftest import sim_session
from tests.support.frames import tap_connections
from tests.support.readers import data_for


def make_network(profile=None, rtt=0.05, fault_spec=None):
    sim = Simulation()
    plan = None if fault_spec is None else FaultPlan.parse(fault_spec, seed=3)
    network = Network(sim, seed=3, fault_plan=plan)
    site = Site(
        domain="probe.test",
        profile=profile or ServerProfile(),
        website=default_website(),
        link=LinkProfile(rtt=rtt, bandwidth=20e6),
    )
    deploy_site(network, site)
    return network


class TestConnectionSetup:
    def test_connect_records_tcp_rtt(self):
        network = make_network(rtt=0.08)
        client = sim_session(network).client("probe.test")
        client.connect()
        assert abs(client.tls.tcp_handshake_rtt - 0.08) < 0.005

    def test_connect_failure_to_unknown_host(self):
        network = make_network()
        client = sim_session(network).client("ghost.test")
        with pytest.raises(ConnectionRefusedFault):
            client.connect(timeout=2)

    def test_establish_h2(self):
        network = make_network()
        client = sim_session(network).client("probe.test")
        assert client.establish_h2()
        assert client.tls.chosen == "h2"
        assert client.events_of(ev.SettingsReceived)

    def test_alpn_only_client(self):
        network = make_network()
        client = sim_session(network).client("probe.test", offer_npn=False)
        client.connect()
        tls = client.tls_handshake()
        assert tls.alpn_protocol == "h2"
        assert tls.npn_protocol is None

    def test_npn_only_client(self):
        network = make_network()
        client = sim_session(network).client("probe.test", alpn=[])
        client.connect()
        tls = client.tls_handshake()
        assert tls.alpn_protocol is None
        assert tls.npn_protocol == "h2"
        assert tls.mechanism == "npn"


class TestAFailedConnectionRaises:
    """A refused connect or a failed hello raises its classified fault
    with no attempt deadline on the backend, as it does under one."""

    @pytest.mark.parametrize(
        "spec, fault",
        [
            ("refuse", ConnectionRefusedFault),
            ("reset", ConnectionResetFault),
            ("hello-corrupt", TlsFault),
        ],
    )
    def test_without_a_deadline(self, spec, fault):
        network = make_network(fault_spec=spec)
        session = sim_session(network)
        assert session.backend.deadline is None
        client = session.client("probe.test")
        with pytest.raises(fault):
            client.establish_h2()

    def test_a_silent_hello_times_out(self):
        network = make_network(fault_spec="blackhole")
        client = sim_session(network).client("probe.test")
        client.connect()
        with pytest.raises(ProbeTimeout):
            client.tls_handshake(timeout=2)

    def test_another_protocol_is_a_verdict_not_a_fault(self):
        network = make_network()
        client = sim_session(network).client("probe.test", alpn=["http/1.1"],
                                             offer_npn=False)
        assert client.establish_h2() is False
        assert client.tls.chosen == "http/1.1"


class TestLoggingAndInspection:
    def test_events_are_timestamped(self):
        network = make_network(rtt=0.1)
        client = sim_session(network).client("probe.test")
        client.establish_h2()
        assert all(te.at >= 0 for te in client.events)
        assert client.events[0].at >= 0.1  # at least one RTT in

    def test_frames_logged_alongside_events(self):
        network = make_network()
        recorder = TraceRecorder()
        recorder.begin("fetch")
        client = sim_session(network).client("probe.test", trace=recorder)
        client.establish_h2()
        sid = client.request("/style.css")
        client.wait_for(lambda: client.headers_for(sid) is not None)
        [headers] = [
            tf
            for tf in recorder.traces["fetch"]
            if isinstance(tf.frame, HeadersFrame) and tf.frame.stream_id == sid
        ]
        # Stamped with the same clock reading as the event it produced.
        [event] = [
            te for te in client.events_of(ev.HeadersReceived)
            if te.event.stream_id == sid
        ]
        assert headers.at == event.at

    def test_data_for_concatenates_stream_payload(self):
        network = make_network()
        client = sim_session(network).client("probe.test", auto_window_update=True)
        client.establish_h2()
        sid = client.request("/style.css")
        client.wait_for(
            lambda: any(
                isinstance(te.event, ev.StreamEnded) and te.event.stream_id == sid
                for te in client.events
            )
        )
        assert data_for(client, sid) == default_website().get("/style.css").body()

    def test_stream_events_filter(self):
        network = make_network()
        client = sim_session(network).client("probe.test", auto_window_update=True)
        client.establish_h2()
        a = client.request("/logo.png")
        b = client.request("/style.css")
        client.wait_for(
            lambda: {
                te.event.stream_id
                for te in client.events
                if isinstance(te.event, ev.StreamEnded)
            }
            >= {a, b}
        )
        only_a = [
            te
            for te in client.events
            if isinstance(te.event, ev.DataReceived) and te.event.stream_id == a
        ]
        assert only_a
        assert all(te.event.stream_id == a for te in only_a)

    def test_settle_returns_after_quiet_period(self):
        network = make_network()
        client = sim_session(network).client("probe.test")
        client.establish_h2()
        before = network.sim.now
        client.settle(quiet_period=0.5, timeout=5)
        assert network.sim.now - before <= 5.5

    def test_errors_recorded_not_raised(self):
        network = make_network()
        # Inject garbage that fails HPACK decoding: HEADERS referencing
        # an invalid index on a new stream.
        bogus = HeadersFrame(stream_id=9, flags=4, header_block=b"\xff\xff\xff")
        from repro.h2.frames import serialize_frame

        with tap_connections() as taps:
            client = sim_session(network).client("probe.test")
            client.establish_h2()
            client._on_data(serialize_frame(bogus))  # does not raise
        tap = taps[client.conn]
        assert len(tap.errors) == 1  # the connection did raise ...
        assert tap.received[-1].stream_id == 9  # ... on the bogus frame
        assert client.headers_for(9) is None

    def test_reset_with_data_in_flight_loses_no_later_event(self):
        """RFC 7540 §5.1: the body the engine wrote with its HEADERS is
        still arriving when we cancel; it is ignored, not an error that
        takes the rest of the chunk with it."""
        network = make_network()
        with tap_connections() as taps:
            client = sim_session(network).client(
                "probe.test", auto_window_update=True
            )
            client.establish_h2()
        tap = taps[client.conn]
        first = client.request("/")
        client.wait_for(lambda: client.headers_for(first) is not None)
        client.send_rst_stream(first)
        second = client.request("/")
        client.wait_for(lambda: client.headers_for(second) is not None)
        assert client.headers_for(second) is not None
        client.wait_for(
            lambda: any(
                te.event.stream_id == second for te in client.events_of(ev.StreamEnded)
            )
        )
        assert data_for(client, second)
        assert tap.errors == []
        # The cancelled body was not heard, yet it was paid for.
        arrived = sum(
            len(frame.data)
            for frame in tap.received
            if isinstance(frame, DataFrame) and frame.stream_id == first
        )
        assert arrived > len(data_for(client, first))
