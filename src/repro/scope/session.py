"""ProbeSession: the probe layer's handle on a transport backend.

Probes used to take the simulated ``Network`` directly; they now take a
:class:`ProbeSession`, which owns a
:class:`~repro.net.backend.TransportBackend` plus optional cross-probe
state (a :class:`~repro.scope.trace.TraceRecorder`).  The session is
the only object probes need: it creates clients, tells the time, and
answers auxiliary measurements like ICMP RTT.

:func:`as_session` keeps every public probe entry point backward
compatible — a plain ``Network`` (or bare backend) is wrapped on the
fly, so existing callers and tests keep working unchanged.
"""

from __future__ import annotations

from repro.net.backend import as_backend
from repro.scope.client import ScopeClient
from repro.scope.trace import TraceRecorder


class ProbeSession:
    """One probing context over one transport backend."""

    def __init__(self, backend, trace: TraceRecorder | None = None):
        self.backend = as_backend(backend)
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


def as_session(target) -> ProbeSession:
    """Normalize a ProbeSession, TransportBackend or Network; the
    wrapper is cached on the backend, so one target has one session."""
    if isinstance(target, ProbeSession):
        return target
    backend = as_backend(target)
    session = backend._session_cache
    if session is None:
        session = backend._session_cache = ProbeSession(backend)
    return session
