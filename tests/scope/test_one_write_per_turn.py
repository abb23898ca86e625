"""One write per turn (DESIGN §8): a probe's burst of control frames
leaves in one transport write, and so do the engine's hello and its
first SETTINGS.  Outside a ``ScopeClient.batch()`` every send leaves at
once, because tests and experiments drive the clock themselves."""

import pytest

from repro.h2.constants import CONNECTION_PREFACE, FrameType
from repro.h2.frames import parse_frames_view
from repro.net.clock import Simulation
from repro.net.tls import encode_client_hello
from repro.net.transport import Endpoint, LinkProfile, Network
from repro.scope.probes.hpack_probe import REPETITIONS
from repro.scope.probes.priority import LABELS, probe_priority
from repro.servers.site import Site, deploy_site
from repro.servers.vendors import h2o
from repro.servers.website import testbed_website
from tests.conftest import hpack_of, sim_session

DOMAIN = "turns.test"
TEST_PATHS = [f"/large/{i}.bin" for i in range(6)]
DEPLETION_PATHS = ["/large/6.bin", "/large/7.bin", "/large/8.bin"]


def universe():
    network = Network(Simulation(), seed=1)
    site = Site(
        domain=DOMAIN,
        profile=h2o(),
        website=testbed_website(),
        link=LinkProfile(rtt=0.02, bandwidth=50e6),
    )
    server = deploy_site(network, site)
    return network, server


@pytest.fixture
def client_writes(monkeypatch):
    """The frame types of every h2 write the client side makes, one
    list a write (hellos and the connection preface's write skipped)."""
    writes: list[list[FrameType]] = []
    real_send = Endpoint.send

    def send(self, data):
        towards_server = self._label[2]
        if towards_server and not data.startswith((b"CLIENTHELLO", CONNECTION_PREFACE)):
            frames, consumed = parse_frames_view(memoryview(data), max_frame_size=1 << 24)
            assert consumed == len(data)
            writes.append([frame.frame_type for frame in frames])
        return real_send(self, data)

    monkeypatch.setattr(Endpoint, "send", send)
    return writes


def test_a_send_outside_a_batch_is_on_the_wire_before_the_clock_moves():
    network, server = universe()
    client = sim_session(network).client(DOMAIN)
    assert client.establish_h2()
    stream_id = client.request("/")
    # The test drives the clock itself, not through a client wait.
    network.sim.run(until=network.sim.now + 1.0)
    assert stream_id in server.connections[0].conn.streams


def test_algorithm1_plants_its_tree_and_reshapes_it_in_one_write(client_writes):
    network, _ = universe()
    result = probe_priority(sim_session(network), DOMAIN, TEST_PATHS, DEPLETION_PATHS)
    assert result.first_frame_order  # the probe ran to the end
    planting = [
        write for write in client_writes if write.count(FrameType.HEADERS) == len(LABELS)
    ]
    assert planting == [[FrameType.HEADERS] * len(LABELS) + [FrameType.PRIORITY] * 2]
    # The depletion streams are cancelled in one write as well.
    cancels = [write for write in client_writes if FrameType.RST_STREAM in write]
    assert len(cancels) == 1 and set(cancels[0]) == {FrameType.RST_STREAM}


def test_hpack_cancels_each_stream_in_the_write_that_opens_the_next(client_writes):
    network, _ = universe()
    result = hpack_of(sim_session(network), DOMAIN)
    assert len(result.header_sizes) == REPETITIONS
    requests = [write for write in client_writes if FrameType.HEADERS in write]
    assert requests == [[FrameType.HEADERS]] + [
        [FrameType.RST_STREAM, FrameType.HEADERS]
    ] * (REPETITIONS - 1)


def test_the_engine_hello_and_its_settings_arrive_in_one_chunk():
    network, _ = universe()
    attempt = network.connect(DOMAIN, 443)
    network.sim.run_until(lambda: attempt.established, timeout=5)
    chunks: list[bytes] = []
    attempt.endpoint.on_data = chunks.append
    attempt.endpoint.send(encode_client_hello(["h2"], npn_offered=False))
    network.sim.run(until=network.sim.now + 1.0)
    hello, _, rest = chunks[0].partition(b"\n")
    assert hello.startswith(b"SERVERHELLO alpn=h2")
    frames, consumed = parse_frames_view(memoryview(rest), max_frame_size=1 << 24)
    assert consumed == len(rest)
    assert [frame.frame_type for frame in frames][0] is FrameType.SETTINGS


def test_a_wait_inside_a_batch_raises_and_the_batch_still_writes():
    network, server = universe()
    client = sim_session(network).client(DOMAIN)
    assert client.establish_h2()
    with pytest.raises(RuntimeError, match="inside batch"):
        with client.batch():
            stream_id = client.request("/")
            client.wait_for(lambda: False, timeout=1.0)
    with pytest.raises(RuntimeError, match="inside batch"):
        with client.batch():
            client.sleep(1.0)
    network.sim.run(until=network.sim.now + 1.0)
    assert stream_id in server.connections[0].conn.streams
