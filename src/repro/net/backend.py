"""Transport backends: one probe driver, many ways to move bytes.

The probe layer (``repro.scope``) speaks a small sans-IO contract —
connect, send, receive-callback, close, a clock, and deadline-bounded
waiting — and never touches a transport directly.  This module defines
that contract (:class:`TransportBackend`) and the default
implementation backed by the discrete-event simulator
(:class:`SimulatedBackend`).  A wall-clock implementation over real
TCP sockets lives in :mod:`repro.net.socket_backend`.

Invariants every backend must uphold:

* ``connect(domain, port)`` returns an *attempt* object exposing
  ``established`` / ``refused`` / ``endpoint`` / ``handshake_rtt``;
  callers drive it to completion with :meth:`TransportBackend.run_until`.
* The ``endpoint`` duck-types :class:`repro.net.transport.Endpoint`:
  ``send`` / ``close`` / ``closed`` / ``on_data`` / ``on_close`` /
  ``drain`` / ``bytes_sent`` / ``bytes_received``.
* ``now`` is monotone non-decreasing and ``run_until`` never returns
  before the predicate is true or ``timeout`` clock-seconds elapsed.
* ``deadline`` is a readable/writable slot the resilience layer uses
  to publish the per-attempt deadline.  It lives on the backend object,
  so a client sees a probe's deadline only if it was made on the same
  backend the resilience layer was handed.

``timeout_scale`` lets wall-clock backends shrink the probe timeouts
that were tuned for simulated WAN latency (8 s waits are physics in the
simulator but dead air on loopback).  The simulated backend pins it to
1.0 so the byte-identical determinism contract is untouched.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable

from repro.net.icmp import icmp_ping
from repro.net.transport import Network


class TransportBackend(ABC):
    """Abstract transport: connections, a clock, and bounded waiting."""

    #: Multiplier applied to probe-level timeouts (see module docstring).
    timeout_scale: float = 1.0
    #: The per-attempt deadline slot (see module docstring); clients
    #: read it on every wait.
    deadline = None

    # -- connections ------------------------------------------------------

    @abstractmethod
    def connect(self, domain: str, port: int):
        """Start a connection attempt; returns a ConnectAttempt-like."""

    # -- clock ------------------------------------------------------------

    @property
    @abstractmethod
    def now(self) -> float:
        """Current time in seconds (virtual or monotonic wall clock)."""

    @abstractmethod
    def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Advance until ``predicate()`` or ``timeout`` seconds pass."""

    @abstractmethod
    def sleep_until(self, when: float) -> None:
        """Advance the clock to absolute time ``when``."""

    def sleep(self, seconds: float) -> None:
        self.sleep_until(self.now + seconds)

    def scale(self, timeout: float) -> float:
        """Apply this backend's timeout scale to a probe-level timeout."""
        if self.timeout_scale == 1.0:
            return timeout
        return timeout * self.timeout_scale

    # -- auxiliary measurements ------------------------------------------

    def icmp_rtt(self, domain: str, count: int = 1) -> float | None:
        """Average ICMP echo RTT, or None when ping is unavailable."""
        return None

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Release transport resources (idempotent)."""

    def __enter__(self) -> "TransportBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SimulatedBackend(TransportBackend):
    """The discrete-event simulator behind the backend contract.

    Pure delegation: every operation maps 1:1 onto the calls the probe
    layer made before the abstraction existed, so the simulated event
    sequence — and therefore every stored report — is bit-identical.
    """

    timeout_scale = 1.0

    def __init__(self, network: Network):
        self.network = network
        self.sim = network.sim

    def connect(self, domain: str, port: int):
        return self.network.connect(domain, port)

    @property
    def now(self) -> float:
        return self.sim.now

    def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        return self.sim.run_until(predicate, timeout=timeout)

    def sleep_until(self, when: float) -> None:
        self.sim.run(until=when)

    def icmp_rtt(self, domain: str, count: int = 1) -> float | None:
        session = icmp_ping(self.network, domain, count=count)
        return session.avg_rtt

