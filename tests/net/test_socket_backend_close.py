"""SocketBackend.close() must be airtight, and a backend owns nothing
but its sockets.

Closing a backend mid-campaign — including while a connect attempt is
still in flight — must log nothing through asyncio, close every file
descriptor the backend opened (its selector's among them), and leave
every outstanding ``SocketConnectAttempt`` in a terminal state.
"""

from __future__ import annotations

import gc
import logging
import os
import socket
import threading
import warnings

import pytest

from repro.net.socket_backend import SocketBackend


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def saturated_listener():
    """A loopback listener whose accept queue is pre-filled, so further
    connects hang in the handshake — a genuinely in-flight attempt."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(0)
    fillers = []
    for _ in range(2):
        filler = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        filler.setblocking(False)
        filler.connect_ex(listener.getsockname()[:2])
        fillers.append(filler)
    yield listener.getsockname()[:2]
    for sock in fillers + [listener]:
        sock.close()


class TestCloseWithInflightConnects:
    def test_close_cancels_pending_connects_cleanly(
        self, saturated_listener, caplog
    ):
        """Pending connect tasks are cancelled, not abandoned: no asyncio
        'Task was destroyed' log line, no ResourceWarning, no leaked fd,
        and the attempt reaches a terminal (refused) state."""
        gc.collect()
        before = open_fds()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                backend = SocketBackend(
                    resolver=lambda domain, port: saturated_listener,
                    connect_timeout=30.0,
                )
                attempts = [
                    backend.connect("stuck.example", 443) for _ in range(3)
                ]
                # Give the loop a slice so the connect tasks actually
                # start (and block) before we tear everything down.
                backend.run_until(lambda: False, timeout=0.05)
                assert not any(a.established or a.refused for a in attempts)
                backend.close()
            gc.collect()  # surfaces unclosed-socket ResourceWarnings
        assert all(a.refused and not a.established for a in attempts)
        destroyed = [
            r for r in caplog.records if "Task was destroyed" in r.getMessage()
        ]
        assert destroyed == []
        leaks = [
            w for w in caught if issubclass(w.category, ResourceWarning)
        ]
        assert leaks == []
        assert open_fds() <= before

    def test_close_releases_established_connection_fds(self):
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(8)
        address = server.getsockname()[:2]
        try:
            gc.collect()
            before = open_fds()
            backend = SocketBackend(resolver={("live.example", 443): address})
            attempt = backend.connect("live.example", 443)
            assert backend.run_until(lambda: attempt.established, timeout=5.0)
            assert open_fds() > before  # the connection really exists
            backend.close()
            gc.collect()
            assert open_fds() <= before
        finally:
            server.close()

    def test_close_is_idempotent_and_connect_after_close_raises(self):
        backend = SocketBackend(resolver={})
        backend.close()
        backend.close()  # second close is a no-op, not an error
        with pytest.raises(ConnectionError):
            backend.connect("gone.example", 443)

    def test_unresolvable_connect_completes_even_without_loop_slice(self):
        """The no-address path completes via call_soon; close() must
        resolve it terminally even when no loop slice ever ran."""
        backend = SocketBackend(resolver={})
        attempt = backend.connect("nowhere.example", 443)
        assert attempt.dns_failure
        assert not attempt.refused  # completion is deferred to the loop
        backend.close()
        assert attempt.refused


class TestLoopOwnership:
    """A backend starts no thread and leaves no fd; closing one backend
    leaves another usable."""

    def test_starts_no_thread_and_leaves_no_fd(self):
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(8)
        try:
            gc.collect()
            fds, threads = open_fds(), threading.active_count()
            backend = SocketBackend(
                resolver={("own.example", 443): server.getsockname()[:2]}
            )
            attempt = backend.connect("own.example", 443)
            assert backend.run_until(lambda: attempt.established, timeout=5.0)
            assert threading.active_count() == threads
            backend.close()
            backend.close()  # idempotent
            # Released by close() itself, not by a collection.
            assert open_fds() <= fds
            assert attempt.endpoint.closed
        finally:
            server.close()

    def test_closing_one_leaves_another_usable(self):
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(8)
        resolver = {("shared.example", 443): server.getsockname()[:2]}
        try:
            first = SocketBackend(resolver=resolver)
            second = SocketBackend(resolver=resolver)
            try:
                attempt = first.connect("shared.example", 443)
                assert first.run_until(lambda: attempt.established, 5.0)
                first.close()
                attempt = second.connect("shared.example", 443)
                assert second.run_until(lambda: attempt.established, 5.0)
                attempt.endpoint.send(b"still here")
                assert attempt.endpoint.bytes_sent == 10
            finally:
                second.close()
        finally:
            server.close()
