"""Probe deadlines, failure classification and retry/backoff.

H2Scope's real scans had to survive the internet: unreachable hosts,
resets mid-handshake, servers that stall forever.  This module is the
scanner-side half of the fault story (the injection half lives in
:mod:`repro.net.faults`):

* a :class:`Deadline` watchdog anchored on whatever clock the active
  transport backend exposes — the virtual :class:`~repro.net.clock.
  Simulation` clock by default, a monotonic wall clock for the socket
  backend — which :class:`~repro.scope.client.ScopeClient` consults on
  every wait so a stalled peer cannot pin a probe past its budget;
* a typed failure taxonomy (:class:`ScanFault` and subclasses) mapping
  onto :class:`~repro.scope.report.ErrorClass` — transient failures are
  retried, timeouts and fatal failures are not;
* :func:`run_resilient`, the per-probe execution harness used by
  :mod:`repro.scope.scanner`, which backs off exponentially between
  retries with deterministic seed-driven jitter (same seed →
  byte-identical delay schedule).
"""

from __future__ import annotations

import random
import socket
from collections.abc import Callable
from dataclasses import dataclass

from repro.net.backend import TransportBackend
from repro.net.faults import stable_seed
from repro.scope.report import ErrorClass, ScanError


class ScanFault(Exception):
    """Base class for classified probe failures."""

    error_class = ErrorClass.FATAL


class ConnectionRefusedFault(ScanFault):
    """TCP connect was refused (dead host or injected RST on SYN)."""

    error_class = ErrorClass.TRANSIENT


class ConnectionResetFault(ScanFault):
    """The peer tore the connection down mid-handshake."""

    error_class = ErrorClass.TRANSIENT


class DnsFault(ScanFault):
    """The target domain never resolved to an address.

    Carries its own :class:`ErrorClass` so campaigns can quarantine
    unresolvable sites up front (no connect attempts, no retry budget)
    and report them separately from dead-but-resolvable hosts.
    """

    error_class = ErrorClass.DNS


class ProbeTimeout(ScanFault):
    """The peer went silent past the probe's virtual-time budget."""

    error_class = ErrorClass.TIMEOUT


class DeadlineExceeded(ProbeTimeout):
    """The per-attempt deadline expired while waiting."""


class TlsFault(ScanFault):
    """The TLS hello exchange produced garbage (not retryable)."""

    error_class = ErrorClass.FATAL


def classify_exception(exc: BaseException) -> ErrorClass:
    """Map any exception onto the transient/timeout/fatal taxonomy."""
    if isinstance(exc, ScanFault):
        return exc.error_class
    if isinstance(exc, socket.gaierror):  # an OSError subclass: check first
        return ErrorClass.DNS
    if isinstance(exc, TimeoutError):  # an OSError subclass: check first
        return ErrorClass.TIMEOUT
    if isinstance(exc, (ConnectionError, OSError)):
        return ErrorClass.TRANSIENT
    return ErrorClass.FATAL


def make_scan_error(
    probe: str, exc: BaseException, attempts: int = 1
) -> ScanError:
    return ScanError(
        probe=probe,
        error_class=classify_exception(exc),
        exception=type(exc).__name__,
        message=str(exc),
        attempts=attempts,
    )


class Deadline:
    """A time budget anchored on a clock exposing ``.now`` in seconds.

    Works against the virtual :class:`~repro.net.clock.Simulation`
    clock and against a wall-clock transport backend alike — the only
    contract is a monotone ``now`` attribute or property.
    """

    def __init__(self, clock, seconds: float):
        self.clock = clock
        self.at = clock.now + seconds

    @property
    def remaining(self) -> float:
        return self.at - self.clock.now

    def clamp(self, timeout: float, *what: str) -> float:
        """Bound ``timeout`` by the budget; raise once it is spent.

        ``what`` names the wait, outermost part first; the parts are
        only joined into the error message when the budget is spent.
        """
        remaining = self.remaining
        if remaining <= 0:
            raise DeadlineExceeded(f"{': '.join(what) or 'wait'}: deadline exceeded")
        return min(timeout, remaining)


#: Backoff before retry ``n`` (from 0): ``BACKOFF_BASE * BACKOFF_FACTOR**n``
#: seconds, capped at ``BACKOFF_MAX``, plus jitter drawn uniformly from
#: ``[0, BACKOFF_JITTER * delay)`` with a seeded RNG.  Backoff elapses on
#: the backend clock, so on the simulated backend these numbers reach
#: ``scan_virtual_time``; they are constants, so the campaign manifest,
#: which records every input that changes stored bytes, need not name them.
BACKOFF_BASE = 0.5
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 8.0
BACKOFF_JITTER = 0.1


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for resilient probe execution."""

    #: Per-attempt time budget in backend clock-seconds (virtual by
    #: default; wall-clock backends apply their ``timeout_scale``).
    timeout: float = 20.0
    #: How many times a transient failure is retried.
    retries: int = 2


def run_resilient(
    backend: TransportBackend,
    probe: str,
    fn: Callable[[], None],
    config: ResilienceConfig,
    seed: int = 0,
) -> tuple[int, ScanError | None]:
    """Run one probe under a deadline, retrying transient failures.

    Each attempt's :class:`Deadline` is published as
    ``backend.deadline``, so ``fn`` must make its clients on that same
    backend object; while it is, every client wait is clamped to it.
    A failed connect or hello raises a classified :class:`ScanFault`
    with or without a deadline; here its class decides the retry.
    Returns ``(attempts, error)`` where ``error`` is None on success.
    Backoff delays elapse on the backend's clock — on the simulated
    backend retries are free in wall time and fully deterministic.
    """
    rng = None  # the backoff jitter stream, built by the first retry
    attempts = 0
    try:
        while True:
            attempts += 1
            backend.deadline = Deadline(backend, backend.scale(config.timeout))
            try:
                fn()
                return attempts, None
            except Exception as exc:  # noqa: BLE001 - scans survive anything
                error_class = classify_exception(exc)
                if error_class is not ErrorClass.TRANSIENT or attempts > config.retries:
                    return attempts, make_scan_error(probe, exc, attempts)
                if rng is None:
                    rng = random.Random(stable_seed(seed, probe, "backoff"))
                retry = attempts - 1
                delay = min(BACKOFF_MAX, BACKOFF_BASE * BACKOFF_FACTOR**retry)
                delay += rng.random() * BACKOFF_JITTER * delay
                backend.sleep(backend.scale(delay))
    finally:
        backend.deadline = None
