"""Simulated TCP-like transport: latency, bandwidth, loss, ordering."""

import pytest

from repro.net.clock import Simulation
from repro.net.transport import LinkProfile, Network
from tests.support.readers import pending_events


@pytest.fixture
def sim():
    return Simulation()


def make_server(sim, rtt=0.1, bandwidth=1e6, loss=0.0):
    network = Network(sim, seed=1)
    accepted = []
    host = network.add_host(
        "srv.example", LinkProfile(rtt=rtt, bandwidth=bandwidth, loss_rate=loss)
    )
    host.listen(443, accepted.append)
    return network, accepted


class TestConnect:
    def test_handshake_takes_one_rtt(self, sim):
        network, accepted = make_server(sim, rtt=0.1)
        attempt = network.connect("srv.example", 443)
        assert not attempt.established
        sim.run()
        assert attempt.established
        assert attempt.handshake_rtt == pytest.approx(0.1, abs=0.001)
        assert len(accepted) == 1

    def test_unknown_host_refused(self, sim):
        network = Network(sim)
        attempt = network.connect("nowhere.example", 443)
        sim.run()
        assert attempt.refused
        assert not attempt.established

    def test_closed_port_refused_after_rtt(self, sim):
        network, _ = make_server(sim, rtt=0.2)
        attempt = network.connect("srv.example", 80)
        sim.run()
        assert attempt.refused
        assert sim.now == pytest.approx(0.2)

    def test_on_connect_callback(self, sim):
        network, _ = make_server(sim)
        attempt = network.connect("srv.example", 443)
        seen = []
        attempt.on_connect = seen.append
        sim.run()
        assert seen == [attempt.endpoint]


def connected_pair(sim, **profile_kwargs):
    network, accepted = make_server(sim, **profile_kwargs)
    attempt = network.connect("srv.example", 443)
    sim.run_until(lambda: attempt.established, timeout=5)
    return attempt.endpoint, accepted[0]


class TestDelivery:
    def test_bytes_arrive_after_half_rtt(self, sim):
        client, server = connected_pair(sim, rtt=0.2, bandwidth=1e9)
        got = []
        server.on_data = got.append
        start = sim.now
        client.send(b"hello")
        sim.run()
        assert got == [b"hello"]
        assert sim.now - start == pytest.approx(0.1, abs=0.01)

    def test_fifo_ordering(self, sim):
        client, server = connected_pair(sim)
        got = []
        server.on_data = got.append
        for i in range(5):
            client.send(f"m{i}".encode())
        sim.run()
        assert got == [b"m0", b"m1", b"m2", b"m3", b"m4"]

    def test_bandwidth_serialization_delay(self, sim):
        client, server = connected_pair(sim, rtt=0.0, bandwidth=1e6)
        got_at = []
        server.on_data = lambda d: got_at.append(sim.now)
        client.send(b"x" * 1_000_000)  # 1 MB at 1 MB/s = 1 s
        sim.run()
        assert got_at[0] == pytest.approx(1.0, rel=0.01)

    def test_back_to_back_sends_queue_on_link(self, sim):
        client, server = connected_pair(sim, rtt=0.0, bandwidth=1e6)
        got_at = []
        server.on_data = lambda d: got_at.append(sim.now)
        client.send(b"x" * 500_000)
        client.send(b"y" * 500_000)
        sim.run()
        assert got_at[0] == pytest.approx(0.5, rel=0.01)
        assert got_at[1] == pytest.approx(1.0, rel=0.01)

    def test_conservation_of_bytes(self, sim):
        client, server = connected_pair(sim)
        server.on_data = lambda d: None
        payloads = [b"a" * 100, b"b" * 5_000, b"c"]
        for p in payloads:
            client.send(p)
        sim.run()
        assert client.bytes_sent == sum(len(p) for p in payloads)
        assert server.bytes_received == client.bytes_sent

    def test_bidirectional(self, sim):
        client, server = connected_pair(sim)
        got_client, got_server = [], []
        client.on_data = got_client.append
        server.on_data = got_server.append
        client.send(b"ping")
        server.send(b"pong")
        sim.run()
        assert got_server == [b"ping"]
        assert got_client == [b"pong"]

    def test_drain_buffers_before_handler_attached(self, sim):
        client, server = connected_pair(sim)
        client.send(b"early")
        sim.run()
        assert server.drain() == b"early"
        assert server.drain() == b""

    def test_empty_send_is_noop(self, sim):
        client, server = connected_pair(sim)
        client.send(b"")
        sim.run()
        assert server.bytes_received == 0


class TestLoss:
    def test_loss_adds_retransmission_delay(self, sim):
        # With 100% loss every segment pays one RTO.
        client, server = connected_pair(sim, rtt=0.1, bandwidth=1e9, loss=1.0)
        got_at = []
        server.on_data = lambda d: got_at.append(sim.now)
        start = sim.now
        client.send(b"x" * 100)
        sim.run()
        profile = LinkProfile(rtt=0.1)
        assert got_at[0] - start == pytest.approx(0.05 + profile.rto(), abs=0.01)

    def test_no_loss_no_penalty(self, sim):
        client, server = connected_pair(sim, rtt=0.1, bandwidth=1e9, loss=0.0)
        got_at = []
        server.on_data = lambda d: got_at.append(sim.now)
        client.send(b"x" * 100)
        sim.run()
        assert got_at[0] == pytest.approx(sim.now, abs=0.06)

    def test_loss_is_deterministic_per_seed(self):
        def transfer_time(seed):
            sim = Simulation()
            network = Network(sim, seed=seed)
            host = network.add_host(
                "s.example", LinkProfile(rtt=0.05, loss_rate=0.3)
            )
            accepted = []
            host.listen(443, accepted.append)
            attempt = network.connect("s.example", 443)
            sim.run_until(lambda: attempt.established, timeout=5)
            got = []
            accepted[0].on_data = lambda d: got.append(sim.now)
            attempt.endpoint.send(b"z" * 50_000)
            sim.run()
            return got[0]

        assert transfer_time(7) == transfer_time(7)


class TestClose:
    def test_close_notifies_peer(self, sim):
        client, server = connected_pair(sim)
        closed = []
        server.on_close = lambda: closed.append(True)
        client.close()
        sim.run()
        assert closed == [True]
        assert server.closed

    def test_send_after_close_raises(self, sim):
        client, server = connected_pair(sim)
        client.close()
        with pytest.raises(ConnectionError):
            client.send(b"x")

    def test_double_close_is_noop(self, sim):
        client, _ = connected_pair(sim)
        client.close()
        client.close()

    def test_data_to_closed_peer_dropped(self, sim):
        client, server = connected_pair(sim, rtt=0.5)
        got = []
        server.on_data = got.append
        client.send(b"in flight")
        server.closed = True
        sim.run()
        assert got == []


class TestNetwork:
    def test_duplicate_host_rejected(self, sim):
        network = Network(sim)
        network.add_host("a.example")
        with pytest.raises(ValueError):
            network.add_host("a.example")

    def test_duplicate_listener_rejected(self, sim):
        network = Network(sim)
        host = network.add_host("a.example")
        host.listen(443, lambda ep: None)
        with pytest.raises(ValueError):
            host.listen(443, lambda ep: None)

    def test_multiple_connections_to_same_host(self, sim):
        network, accepted = make_server(sim)
        a1 = network.connect("srv.example", 443)
        a2 = network.connect("srv.example", 443)
        sim.run()
        assert a1.established and a2.established
        assert len(accepted) == 2
        assert a1.endpoint is not a2.endpoint


class TestNetworkClose:
    """A closed universe refuses use loudly; it does not imitate a dead host."""

    def test_connect_on_a_closed_network_raises(self, sim):
        network, _ = make_server(sim)
        network.close()
        assert network.closed
        with pytest.raises(RuntimeError, match="closed network"):
            network.connect("srv.example", 443)
        assert pending_events(sim) == 0  # no "refused after 0 s" was queued

    def test_close_unlinks_and_closes_every_endpoint(self, sim):
        network, accepted = make_server(sim)
        attempts = [network.connect("srv.example", 443) for _ in range(3)]
        sim.run()
        ends = [a.endpoint for a in attempts] + accepted
        for end in ends:
            end.on_data = end.on_close = lambda *args: None
        ends[0].send(b"in flight when the universe ends")
        network.close()
        assert pending_events(sim) == 0
        assert network.hosts == {}
        for end in ends:
            assert end.closed
            assert end.peer is None and end.on_data is None and end.on_close is None
            with pytest.raises(ConnectionError):
                end.send(b"x")
            end.close()  # stays a no-op ...
        assert pending_events(sim) == 0  # ... that schedules nothing

    def test_close_is_idempotent(self, sim):
        network, _ = make_server(sim)
        network.connect("srv.example", 443)
        network.close()
        network.close()
        assert pending_events(sim) == 0
        assert network.closed

    def test_close_frees_the_universe_by_reference_count(self, sim, collector_off):
        import weakref

        class Owner:
            """What a client or a server connection is to its endpoint."""

            def __init__(self, endpoint):
                self.endpoint = endpoint
                endpoint.on_data = self.on_data
                endpoint.on_close = self.on_close

            def on_data(self, data):
                pass

            def on_close(self):
                pass

        network, accepted = make_server(sim)
        attempt = network.connect("srv.example", 443)
        sim.run()
        owners = [Owner(attempt.endpoint), Owner(accepted.pop())]
        sim.call_later(5.0, owners[0].on_close)  # still pending at the end
        refs = [weakref.ref(owner) for owner in owners]
        refs += [weakref.ref(owner.endpoint) for owner in owners]
        network.close()
        del attempt, owners
        assert [ref() for ref in refs] == [None] * 4
        assert collector_off.collect() == 0
