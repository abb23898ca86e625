"""The loopback bridge: simulated engines behind real TCP sockets."""

import time

import pytest

from repro.h2 import events as ev
from repro.net.socket_backend import SocketBackend
from repro.scope.session import ProbeSession
from repro.servers.loopback import _TIMER_GRAIN, LoopbackBridge, _SiteRuntime
from repro.servers.site import Site, serve_site
from repro.servers.vendors import VENDOR_FACTORIES
from repro.servers.website import Resource, Website, testbed_website
from tests.conftest import hpack_of


@pytest.fixture
def bridge():
    with LoopbackBridge(seed=0) as bridge:
        yield bridge


def serve_vendor(bridge, vendor):
    site = Site(
        domain=f"{vendor}.testbed",
        profile=VENDOR_FACTORIES[vendor](),
        website=testbed_website(),
    )
    return bridge.serve(site)


def make_session(bridge, **kwargs):
    kwargs.setdefault("timeout_scale", 0.15)
    return ProbeSession(SocketBackend(resolver=bridge.resolver(), **kwargs))


def test_serve_returns_address_mapping(bridge):
    mapping = serve_vendor(bridge, "nginx")
    assert set(mapping) == {("nginx.testbed", 443), ("nginx.testbed", 80)}
    for host, port in mapping.values():
        assert host == "127.0.0.1" and port > 0
    assert bridge.resolver() == mapping


def test_h2_get_over_real_sockets(bridge):
    serve_vendor(bridge, "nginx")
    session = make_session(bridge)
    client = session.client("nginx.testbed")
    try:
        assert client.establish_h2()
        assert client.tls.chosen == "h2"
        stream_id = client.request("/")
        assert client.wait_for(
            lambda: any(
                isinstance(te.event, ev.StreamEnded)
                and te.event.stream_id == stream_id
                for te in client.events
            ),
            timeout=30.0,
        )
        body = sum(
            len(te.event.data)
            for te in client.events_of(ev.DataReceived)
            if te.event.stream_id == stream_id
        )
        assert body == 8_000  # the testbed index page, byte-complete
    finally:
        client.close()
        session.close()


def test_http1_only_vendor_over_sockets(bridge):
    # Apache's profile drops NPN; h2 still negotiates via ALPN.  More
    # interesting: the cleartext listener speaks HTTP/1.1 on "port 80".
    serve_vendor(bridge, "apache")
    session = make_session(bridge)
    client = session.client("apache.testbed", port=80)
    try:
        client.connect()
        rtt = client.http1_get("/")
        assert rtt is not None and rtt > 0
    finally:
        client.close()
        session.close()


@pytest.mark.xfail(
    strict=True,
    reason="ScopeClient.http1_get returns at a response's first chunk; on "
    "sockets the rest of that body arrives during the next request's wait "
    "and is taken for its first byte (ROADMAP 20(b))",
)
def test_each_http1_interval_is_at_least_the_link_rtt(bridge):
    """Each of ping's HTTP/1.1 samples crosses the emulated link twice."""
    page = Website()
    page.add(Resource("/", 200_000, "text/html"))  # a front page of many segments
    bridge.serve(
        Site(domain="h1.testbed", profile=VENDOR_FACTORIES["nginx"](), website=page)
    )
    session = make_session(bridge)
    client = session.client("h1.testbed", alpn=["http/1.1"], offer_npn=False)
    try:
        client.connect()
        client.tls_handshake()
        intervals = [client.http1_get("/") for _ in range(3)]
    finally:
        client.close()
        session.close()
    assert None not in intervals
    # Less the half grain the bridge's timers fire early by at each crossing.
    assert min(intervals) >= bridge.link_rtt - _TIMER_GRAIN, intervals


def test_handshake_rtt_reflects_emulated_link(bridge):
    serve_vendor(bridge, "h2o")
    session = make_session(bridge)
    client = session.client("h2o.testbed")
    try:
        client.connect()
        started = time.monotonic()
        client.tls_handshake()
        elapsed = time.monotonic() - started
        assert client.tls.chosen == "h2"
        # The TLS hello round trip crosses the emulated link twice, so
        # the observed wall time must be at least the configured RTT,
        # less the half grain the bridge's timers fire early by at
        # each crossing.  A lower bound only: a loaded host is slower.
        assert elapsed >= bridge.link_rtt - _TIMER_GRAIN
    finally:
        client.close()
        session.close()


def test_two_sites_one_bridge(bridge):
    serve_vendor(bridge, "nginx")
    serve_vendor(bridge, "nghttpd")
    session = make_session(bridge)
    try:
        for domain in ("nginx.testbed", "nghttpd.testbed"):
            client = session.client(domain)
            assert client.establish_h2(), domain
            client.close()
    finally:
        session.close()


def test_noisy_site_draws_the_simulators_header_sizes(bridge):
    """The engine keys its header noise by site and request path, so the
    bridge draws what the simulator draws, even with a connection more
    before the HPACK probe than the simulated run had."""
    site = Site(
        domain="noisy.testbed",
        profile=VENDOR_FACTORIES["h2o"]().clone(response_header_noise=0.5),
        website=testbed_website(),
    )
    with serve_site(site, seed=bridge.seed) as (backend, _):
        simulated = hpack_of(ProbeSession(backend), site.domain)
    bridge.serve(site)
    session = make_session(bridge)
    try:
        client = session.client(site.domain)
        assert client.establish_h2()
        client.close()
        live = hpack_of(session, site.domain)
    finally:
        session.close()
    assert live.header_sizes == simulated.header_sizes
    # Some responses carry the noise header and some do not.
    assert len(set(simulated.header_sizes[1:])) > 1


def test_serve_after_close_refused():
    bridge = LoopbackBridge(seed=0)
    bridge.close()
    with pytest.raises(RuntimeError):
        bridge.serve(
            Site(domain="x.testbed", profile=VENDOR_FACTORIES["nginx"]())
        )
    bridge.close()  # idempotent


class _Timer:
    """What :class:`_LoopStub` hands back for an armed callback."""

    def __init__(self, when, callback, args):
        self.when = when
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _LoopStub:
    """Just enough of an asyncio loop for a :class:`_SiteRuntime`: it
    records the timers armed on it instead of running them, and its
    clock reads whatever the test sets."""

    def __init__(self, now):
        self.now = now
        self.timers = []

    def time(self):
        return self.now

    def call_at(self, when, callback, *args):
        timer = _Timer(when, callback, args)
        self.timers.append(timer)
        return timer

    def call_later(self, delay, callback, *args):
        # As asyncio's own, so that a timer armed relative to the
        # clock fails on its instant rather than on a missing method.
        return self.call_at(self.now + delay, callback, *args)

    def next_timer(self):
        armed = [t for t in self.timers if not t.cancelled]
        if not armed:
            return None
        timer = min(armed, key=lambda t: t.when)
        self.timers.remove(timer)
        return timer


@pytest.mark.parametrize("lag", [0.0, 0.0013, 0.0064])
def test_timers_are_armed_at_their_wall_clock_time(lag):
    """Each event of a link -> processing -> link chain is armed at the
    wall instant of its virtual time, half a grain early, however late
    the timer before it fired: lateness does not compound."""
    epoch = 100.0
    loop = _LoopStub(now=epoch)
    runtime = _SiteRuntime(
        loop,
        Site(domain="pacing.testbed", profile=VENDOR_FACTORIES["nginx"]()),
        seed=0,
        link_rtt=0.002,
    )
    sim = runtime.sim
    processing = 0.012
    hops = []  # the virtual instant each hop's event ran at

    def response_reaches_socket():
        hops.append(sim.now)

    def engine_answers():
        hops.append(sim.now)
        runtime.after_delay(response_reaches_socket)

    def request_reaches_engine():
        hops.append(sim.now)
        sim.call_later(processing, engine_answers)

    runtime.after_delay(request_reaches_engine)
    fired = []
    while (timer := loop.next_timer()) is not None:
        fired.append(timer)
        loop.now = timer.when + lag  # every timer fires ``lag`` late
        timer.callback(*timer.args)

    delay = runtime.delay
    assert hops == pytest.approx(
        [delay, delay + processing, 2 * delay + processing]
    )
    assert [t.args[0] for t in fired] == pytest.approx(hops)
    assert [t.when for t in fired] == pytest.approx(
        [epoch + due - _TIMER_GRAIN / 2 for due in hops], abs=1e-9
    )
