"""ProbeSession: the probe layer's handle on a transport backend.

Every probe takes a :class:`ProbeSession`, which owns one
:class:`~repro.net.backend.TransportBackend` plus optional cross-probe
state (a :class:`~repro.scope.trace.TraceRecorder`).  The session is
the only object probes need: it creates clients, tells the time, and
answers auxiliary measurements like ICMP RTT.  Code that owns a
simulated universe wraps its ``Network`` once, as
``ProbeSession(SimulatedBackend(network))``.
"""

from __future__ import annotations

from repro.net.backend import TransportBackend
from repro.scope.client import ScopeClient
from repro.scope.trace import TraceRecorder


class ProbeSession:
    """One probing context over one transport backend."""

    def __init__(
        self, backend: TransportBackend, trace: TraceRecorder | None = None
    ):
        self.backend = backend
        self.trace = trace

    # -- client factory ---------------------------------------------------

    def client(self, domain: str, **kwargs) -> ScopeClient:
        """A new :class:`ScopeClient` for ``domain`` on this backend."""
        kwargs.setdefault("trace", self.trace)
        return ScopeClient(self.backend, domain, **kwargs)

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.backend.now

    def sleep(self, seconds: float) -> None:
        """Let ``seconds`` probe-level seconds pass (backend-scaled)."""
        self.backend.sleep(self.backend.scale(seconds))

    # -- auxiliary measurements ------------------------------------------

    def icmp_rtt(self, domain: str, count: int = 1) -> float | None:
        """Average ICMP echo RTT to ``domain`` (None if unavailable)."""
        return self.backend.icmp_rtt(domain, count=count)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "ProbeSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

