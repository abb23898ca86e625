"""The transport-backend contract: simulated delegation + real sockets."""

import socket
import threading

import pytest

from repro.net.backend import SimulatedBackend, TransportBackend
from repro.net.clock import Simulation
from repro.net.socket_backend import SocketBackend
from repro.net.transport import Network
from repro.scope.resilience import Deadline


def make_network(seed=0):
    sim = Simulation()
    return Network(sim, seed=seed), sim


class TestSimulatedBackend:
    def test_clock_delegates_to_simulation(self):
        network, sim = make_network()
        backend = SimulatedBackend(network)
        assert backend.now == sim.now
        backend.sleep(2.5)
        assert sim.now == pytest.approx(2.5)
        backend.sleep_until(4.0)
        assert sim.now == pytest.approx(4.0)

    def test_run_until_advances_virtual_time(self):
        network, sim = make_network()
        backend = SimulatedBackend(network)
        fired = []
        sim.call_later(1.0, fired.append, "x")
        assert backend.run_until(lambda: fired, timeout=5.0)
        assert sim.now == pytest.approx(1.0)
        assert not backend.run_until(lambda: False, timeout=1.0)
        assert sim.now == pytest.approx(2.0)

    def test_timeout_scale_pinned_to_one(self):
        network, _ = make_network()
        backend = SimulatedBackend(network)
        assert backend.timeout_scale == 1.0
        assert backend.scale(8.0) == 8.0

    def test_deadline_is_the_backends_own_slot(self):
        network, _ = make_network()
        backend, second = SimulatedBackend(network), SimulatedBackend(network)
        assert backend.deadline is None
        backend.deadline = Deadline(backend, 5.0)
        # A second wrapper of the same network does not see the deadline:
        # clients that must honour it come from the backend that has it.
        assert second.deadline is None
        assert not hasattr(network, "deadline")

    def test_connect_reaches_simulated_host(self):
        network, _ = make_network()
        host = network.add_host("origin.example")
        accepted = []
        host.listen(443, accepted.append)
        backend = SimulatedBackend(network)
        attempt = backend.connect("origin.example", 443)
        assert backend.run_until(
            lambda: attempt.established or attempt.refused, timeout=10.0
        )
        assert attempt.established and accepted

    def test_context_manager(self):
        network, _ = make_network()
        with SimulatedBackend(network) as backend:
            assert isinstance(backend, TransportBackend)


class TestSocketBackend:
    def test_scale_applies_multiplier(self):
        backend = SocketBackend(timeout_scale=0.25)
        try:
            assert backend.scale(8.0) == pytest.approx(2.0)
        finally:
            backend.close()

    def test_resolver_dict_and_missing_entry_refuses(self):
        backend = SocketBackend(resolver={("known.example", 443): ("127.0.0.1", 1)})
        try:
            assert backend.resolve("known.example", 443) == ("127.0.0.1", 1)
            attempt = backend.connect("unknown.example", 443)
            assert backend.run_until(
                lambda: attempt.established or attempt.refused, timeout=2.0
            )
            assert attempt.refused and not attempt.established
        finally:
            backend.close()

    def test_resolver_callable(self):
        backend = SocketBackend(resolver=lambda domain, port: None)
        try:
            attempt = backend.connect("any.example", 443)
            backend.run_until(lambda: attempt.refused, timeout=2.0)
            assert attempt.refused
        finally:
            backend.close()

    def test_connect_refused_on_closed_port(self):
        # Bind-then-close guarantees the port is unoccupied; connecting
        # must surface a refusal, not an exception.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        backend = SocketBackend(
            resolver={("gone.example", 443): ("127.0.0.1", port)}
        )
        try:
            attempt = backend.connect("gone.example", 443)
            assert backend.run_until(
                lambda: attempt.established or attempt.refused, timeout=5.0
            )
            assert attempt.refused
        finally:
            backend.close()

    def test_echo_round_trip_and_wall_clock(self):
        received = []

        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]

        def serve():
            conn, _ = server.accept()
            data = conn.recv(64)
            conn.sendall(data.upper())
            conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()

        backend = SocketBackend(
            resolver={("echo.example", 443): ("127.0.0.1", port)}
        )
        try:
            attempt = backend.connect("echo.example", 443)
            assert backend.run_until(lambda: attempt.established, timeout=5.0)
            endpoint = attempt.endpoint
            endpoint.on_data = received.append
            endpoint.send(b"hello")
            assert backend.run_until(lambda: received, timeout=5.0)
            assert received == [b"HELLO"]
            assert endpoint.bytes_sent == 5
            assert endpoint.bytes_received == 5
            before = backend.now
            backend.sleep(0.02)
            assert backend.now >= before + 0.02
        finally:
            backend.close()
            server.close()
            thread.join(timeout=5)

    def test_send_after_close_raises(self):
        backend = SocketBackend()
        try:
            from repro.net.socket_backend import SocketEndpoint

            endpoint = SocketEndpoint("test")
            endpoint.close()
            with pytest.raises(ConnectionError):
                endpoint.send(b"x")
        finally:
            backend.close()

    def test_close_is_idempotent(self):
        backend = SocketBackend()
        backend.close()
        backend.close()
