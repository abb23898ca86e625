"""The socket backend's delivery contract, with no loop thread anywhere.

A :class:`SocketBackend` serves its own sockets inside its waits, so
every callback runs on the thread that waits; bytes that arrive before
``on_data`` is attached come back through ``drain()``, and bytes that
arrive before a close are delivered before it.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time

import pytest

from repro.net.socket_backend import SocketBackend


class _GreetingHandler(socketserver.BaseRequestHandler):
    """Sends a greeting immediately on accept, then echoes one line."""

    def handle(self):
        self.request.sendall(b"server-speaks-first\n")
        data = self.request.recv(4096)
        if data:
            self.request.sendall(b"echo:" + data)


class _BurstThenCloseHandler(socketserver.BaseRequestHandler):
    """Sends three chunks and closes at once."""

    def handle(self):
        for index in range(3):
            self.request.sendall(b"chunk-%d;" % index)


@pytest.fixture
def serve():
    """``serve(handler)`` -> the port of a threaded loopback server."""
    servers = []

    def start(handler) -> int:
        server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), handler)
        server.daemon_threads = True
        threading.Thread(
            target=server.serve_forever, args=(0.01,), daemon=True
        ).start()
        servers.append(server)
        return server.server_address[1]

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


class TestDelivery:
    def test_callbacks_on_session_thread_and_no_lost_bytes(self, serve):
        port = serve(_GreetingHandler)
        backend = SocketBackend()
        session_ident = threading.get_ident()
        try:
            attempt = backend.connect("127.0.0.1", port)
            connects = []
            attempt.on_connect = lambda endpoint: connects.append(
                threading.get_ident()
            )
            assert backend.run_until(
                lambda: attempt.established or attempt.refused, 10.0
            )
            endpoint = attempt.endpoint
            # The greeting arrives while nothing listens for it.
            assert backend.run_until(lambda: endpoint.bytes_received, 10.0)
            chunks, idents, closes = [], [], []

            def on_data(data):
                chunks.append(data)
                idents.append(threading.get_ident())

            endpoint.on_data = on_data
            endpoint.on_close = lambda: closes.append(threading.get_ident())
            early = endpoint.drain()
            endpoint.send(b"ping\n")
            assert backend.run_until(lambda: closes, 10.0)
            assert early == b"server-speaks-first\n"
            assert b"".join(chunks) == b"echo:ping\n"
            assert connects == [session_ident]
            assert set(idents) == {session_ident}
            assert closes == [session_ident]
        finally:
            backend.close()

    def test_bytes_before_a_close_are_delivered_first(self, serve):
        port = serve(_BurstThenCloseHandler)
        backend = SocketBackend()
        try:
            attempt = backend.connect("127.0.0.1", port)
            assert backend.run_until(lambda: attempt.established, 10.0)
            endpoint, log = attempt.endpoint, []
            endpoint.on_data = lambda data: log.append(data)
            endpoint.on_close = lambda: log.append(None)
            assert backend.run_until(lambda: endpoint.closed, 10.0)
            assert log[-1] is None and None not in log[:-1]
            assert endpoint.drain() + b"".join(log[:-1]) == (
                b"chunk-0;chunk-1;chunk-2;"
            )
        finally:
            backend.close()


class TestContract:
    def test_client_sockets_set_tcp_nodelay(self, serve):
        port = serve(_GreetingHandler)
        backend = SocketBackend()
        try:
            attempt = backend.connect("127.0.0.1", port)
            assert backend.run_until(lambda: attempt.established, 10.0)
            sock = attempt.endpoint._sock
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            backend.close()

    def test_connect_pending_at_connect_timeout_ends_refused(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(0)
        address = listener.getsockname()[:2]
        fillers = []
        for _ in range(2):  # saturate the accept queue: SYNs go unanswered
            filler = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            filler.setblocking(False)
            filler.connect_ex(address)
            fillers.append(filler)
        backend = SocketBackend(
            resolver={("stuck.example", 443): address}, connect_timeout=0.2
        )
        try:
            attempt = backend.connect("stuck.example", 443)
            assert backend.run_until(lambda: attempt.refused, 5.0)
            assert not attempt.dns_failure
            assert 0.2 <= attempt.handshake_rtt < 2.0
        finally:
            backend.close()
            for sock in fillers + [listener]:
                sock.close()

    def test_clock_is_monotonic(self):
        backend = SocketBackend()
        try:
            before = time.monotonic()
            now = backend.now
            assert before <= now <= time.monotonic()
        finally:
            backend.close()
