"""Resilience semantics on the wall-clock backend.

The deadline/backoff machinery was built against the virtual clock;
these tests pin the same guarantees on :class:`SocketBackend`'s
monotonic wall clock: the seeded backoff delays elapse in wall time,
and a stalled loopback peer is cut off at the probe's budget — not at
TCP's.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.net.socket_backend import SocketBackend
from repro.scope.client import ScopeClient
from repro.scope.report import ErrorClass
from repro.scope.resilience import Deadline, ResilienceConfig, run_resilient


@pytest.fixture
def stalled_peer():
    """A listener that completes the TCP handshake (kernel backlog) but
    never answers a byte — the open internet's favourite failure."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    yield listener.getsockname()[:2]
    listener.close()


class TestBackoffDeterminism:
    def test_wallclock_retries_consume_the_seeded_schedule(self, stalled_peer):
        """run_resilient on the socket backend sleeps out exactly the
        deterministic backoff schedule between transient failures."""
        refused = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        refused.bind(("127.0.0.1", 0))  # bound, not listening: instant RST
        try:
            address = refused.getsockname()[:2]
            # The scale shrinks the 0.5 s and 1 s backoffs to a tenth.
            backend = SocketBackend(
                resolver={("refusing.example", 443): address},
                timeout_scale=0.1,
            )
            config = ResilienceConfig(timeout=5.0, retries=2)
            client = ScopeClient(backend, "refusing.example")

            started = time.monotonic()
            attempts, error = run_resilient(
                backend, "negotiation", client.connect, config, seed=9
            )
            elapsed = time.monotonic() - started
            backend.close()

            assert attempts == 3  # first try + both retries
            assert error is not None
            assert error.error_class is ErrorClass.TRANSIENT
            # The wait is the seeded schedule's, elapsed in wall time:
            # backoff_delays("negotiation", 9, 2) in test_resilience.py.
            expected = 0.1 * (0.5102520916965058 + 1.0526630683522826)
            assert elapsed >= expected
        finally:
            refused.close()


class TestWallClockDeadline:
    def test_deadline_runs_on_the_backend_clock(self):
        backend = SocketBackend(resolver={})
        try:
            deadline = Deadline(backend, 0.2)
            assert deadline.remaining > 0
            backend.sleep_until(backend.now + 0.25)
            assert deadline.remaining <= 0
        finally:
            backend.close()

    def test_stalled_peer_cut_at_probe_budget_not_tcp(self, stalled_peer):
        """A peer that accepts and goes silent must cost exactly the
        probe's budget — seconds — not a TCP-level timeout (minutes)."""
        backend = SocketBackend(
            resolver={
                ("stalled.example", 443): stalled_peer,
                ("stalled.example", 80): stalled_peer,
            }
        )
        config = ResilienceConfig(timeout=0.8, retries=0)
        client = ScopeClient(backend, "stalled.example")

        def probe() -> None:
            client.connect()
            client.tls_handshake()  # the stalled peer never answers

        started = time.monotonic()
        attempts, error = run_resilient(
            backend, "negotiation", probe, config, seed=0
        )
        elapsed = time.monotonic() - started
        backend.close()

        assert attempts == 1
        assert error is not None
        assert error.error_class is ErrorClass.TIMEOUT
        # The deadline either expires inside a wait (ProbeTimeout from
        # the clamped wait) or between waits (DeadlineExceeded).
        assert error.exception in ("DeadlineExceeded", "ProbeTimeout")
        # Cut within the budget plus scheduling slack — orders of
        # magnitude under any kernel-level TCP timeout.
        assert 0.8 <= elapsed < 5.0

    def test_timeout_scale_compresses_the_budget(self, stalled_peer):
        backend = SocketBackend(
            resolver={("stalled.example", 443): stalled_peer},
            timeout_scale=0.1,
        )
        config = ResilienceConfig(timeout=5.0, retries=0)  # 0.5s wall
        client = ScopeClient(backend, "stalled.example")

        def probe() -> None:
            client.connect()
            client.tls_handshake()

        started = time.monotonic()
        _, error = run_resilient(backend, "negotiation", probe, config, seed=0)
        elapsed = time.monotonic() - started
        backend.close()

        assert error is not None and error.error_class is ErrorClass.TIMEOUT
        assert elapsed < 3.0
