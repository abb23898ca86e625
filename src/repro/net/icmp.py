"""ICMP echo (ping) over the simulated network.

The Fig. 6 comparison needs an RTT estimator that turns around in the
target's *kernel* — no TCP stack, no application.  ICMP echo is that
estimator: request out, reply back, total time = path RTT plus the
kernel's (tiny) turnaround.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.transport import Network


@dataclass
class PingResult:
    """Outcome of one ICMP echo exchange."""

    target: str
    rtt: float | None = None  # None == host unreachable


@dataclass
class PingSession:
    """A sequence of echo requests to one target (like ``ping -c N``)."""

    target: str
    results: list[PingResult] = field(default_factory=list)

    @property
    def rtts(self) -> list[float]:
        return [r.rtt for r in self.results if r.rtt is not None]

    @property
    def avg_rtt(self) -> float | None:
        return sum(self.rtts) / len(self.rtts) if self.rtts else None


def icmp_ping(network: Network, target: str, count: int = 1) -> PingSession:
    """Send ``count`` echo requests; advances the simulation itself.

    Each exchange costs one path RTT plus the kernel turnaround; like
    the real tool, requests are paced one per simulated second unless
    the reply arrives later.
    """
    sim = network.sim
    session = PingSession(target=target)
    host = network.hosts.get(target)
    for _ in range(count):
        if host is None:
            session.results.append(PingResult(target=target, rtt=None))
            continue
        start = sim.now
        done = {"at": None}

        def reply(done=done):
            done["at"] = sim.now

        sim.call_later(host.profile.rtt + host.kernel_delay, reply)
        sim.run_until(lambda d=done: d["at"] is not None, timeout=5.0)
        if done["at"] is None:
            session.results.append(PingResult(target=target, rtt=None))
        else:
            session.results.append(PingResult(target=target, rtt=done["at"] - start))
    return session
