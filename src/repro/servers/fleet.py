"""Loopback fleet: a hermetic proving ground for live campaigns.

The live campaign layer (:mod:`repro.scope.live`) is built for the
open internet — a population where some domains never resolve, some
hosts refuse every connection, and some accept and then go silent.
Testing that layer against the real internet would be slow, impolite
and nondeterministic, so this module builds the internet's greatest
hits out of loopback sockets:

* **healthy** sites are simulated vendor engines served over real TCP
  by :class:`~repro.servers.loopback.LoopbackBridge` — byte-for-byte
  the same engines the simulated campaigns probe, seeded identically,
  so live verdicts can be compared against simulated ones
  verdict-for-verdict;
* **refuse** sites resolve to a loopback port that is bound but not
  listening: every connect gets an immediate RST, the transient
  failure that exercises retry/backoff budgets;
* **stall** sites resolve to a listening socket that is never accepted
  or read from beyond the kernel's work: the TCP handshake completes
  (the kernel does that from the backlog), then nothing ever answers —
  the probe must be cut off by its own :class:`Deadline`, not by TCP;
* **blackhole** sites resolve to a listener whose accept queue has
  been saturated, so even the TCP handshake hangs until the backend's
  ``connect_timeout`` fires (loopback cannot drop SYNs outright; a
  full backlog is the closest portable approximation);
* **unresolvable** sites simply have no resolver entry at all: the DNS
  stage must quarantine them without a single connect attempt.

Fault assignment is deterministic in the plan's seed, so a fleet can be
rebuilt identically in a subprocess for kill/resume tests.  The fleet's
:meth:`resolver` plugs straight into :class:`~repro.scope.live.
run_live_campaign`'s ``resolver=`` (and therefore into the DNS stage
and every :class:`~repro.net.socket_backend.SocketBackend` it builds).
"""

from __future__ import annotations

import random
import socket
from dataclasses import dataclass

from repro.net.faults import stable_seed
from repro.net.transport import LinkProfile
from repro.population.generator import PopulationConfig, make_population
from repro.servers.loopback import LoopbackBridge
from repro.servers.site import Site

#: Fault kinds a fleet site can be assigned.
HEALTHY = "healthy"
REFUSE = "refuse"
STALL = "stall"
BLACKHOLE = "blackhole"
UNRESOLVABLE = "unresolvable"


@dataclass(frozen=True)
class FleetPlan:
    """Size, seed and fault composition of one loopback fleet."""

    sites: int = 20
    seed: int = 0
    refuse: int = 0
    stall: int = 0
    blackhole: int = 0
    unresolvable: int = 0
    link_rtt: float = 0.02

    @property
    def faulty(self) -> int:
        return self.refuse + self.stall + self.blackhole + self.unresolvable

    def __post_init__(self) -> None:
        if self.faulty > self.sites:
            raise ValueError(
                f"plan assigns {self.faulty} faults to {self.sites} sites"
            )


def _fault_assignment(plan: FleetPlan, domains: list[str]) -> dict[str, str]:
    """Deterministically assign each domain a fault kind (or healthy)."""
    order = list(domains)
    random.Random(stable_seed(plan.seed, "fleet-faults")).shuffle(order)
    assignment = {domain: HEALTHY for domain in domains}
    cursor = 0
    for kind, count in (
        (REFUSE, plan.refuse),
        (STALL, plan.stall),
        (BLACKHOLE, plan.blackhole),
        (UNRESOLVABLE, plan.unresolvable),
    ):
        for domain in order[cursor : cursor + count]:
            assignment[domain] = kind
        cursor += count
    return assignment


class LoopbackFleet:
    """A population of loopback listeners with planted faults.

    Usage::

        with LoopbackFleet(FleetPlan(sites=100, refuse=5, stall=5,
                                     unresolvable=5)) as fleet:
            run_live_campaign(fleet.domains, store, "live",
                              resolver=fleet.resolver(), ...)

    ``fleet.faults`` records which domain got which fault, so tests can
    assert the campaign classified each one correctly, and
    ``fleet.sites`` holds the generated :class:`Site` objects so the
    same population can be scanned in simulation for the differential.
    """

    def __init__(self, plan: FleetPlan):
        self.plan = plan
        config = PopulationConfig(
            n_sites=plan.sites, seed=plan.seed, include_unresponsive=False
        )
        self.sites: list[Site] = make_population(config)[: plan.sites]
        for site in self.sites:
            # Pin every site's link to the bridge's emulated one (clean,
            # link_rtt round trip, effectively unlimited bandwidth) so a
            # simulated scan of the same Site sees the timing the bridge
            # produces — the precondition for the live/simulated verdict
            # differential (see repro.scope.live.verdict_view).
            site.link = LinkProfile(
                rtt=plan.link_rtt, bandwidth=1e9, loss_rate=0.0
            )
        self.domains: list[str] = [site.domain for site in self.sites]
        self.faults: dict[str, str] = _fault_assignment(plan, self.domains)
        self.bridge = LoopbackBridge(seed=plan.seed, link_rtt=plan.link_rtt)
        self._mapping: dict[tuple[str, int], tuple[str, int]] = {}
        self._sockets: list[socket.socket] = []
        self._closed = False
        try:
            self._build()
        except BaseException:
            self.close()
            raise

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        for site in self.sites:
            kind = self.faults[site.domain]
            if kind == HEALTHY:
                self._mapping.update(self.bridge.serve(site))
            # Faulty sites map only port 443, the one campaign probes dial.
            elif kind == REFUSE:
                self._mapping[(site.domain, 443)] = self._refusing_address()
            elif kind == STALL:
                self._mapping[(site.domain, 443)] = self._stalling_address()
            elif kind == BLACKHOLE:
                self._mapping[(site.domain, 443)] = self._blackholed_address()
            # UNRESOLVABLE: no mapping entries at all.

    def _refusing_address(self) -> tuple[str, int]:
        """A loopback port that RSTs every connect: bound, not listening.

        Keeping the socket open reserves the port for the fleet's
        lifetime, so the refusal is stable (no ephemeral-port reuse
        race) while connects fail instantly with ECONNREFUSED.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        self._sockets.append(sock)
        return sock.getsockname()[:2]

    def _stalling_address(self) -> tuple[str, int]:
        """A listener nobody ever accepts from or answers on.

        The kernel completes the TCP handshake from the backlog, so the
        probe's connect succeeds and its request bytes vanish into the
        receive buffer — the scan only escapes via its own deadline.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        sock.listen(8)
        self._sockets.append(sock)
        return sock.getsockname()[:2]

    def _blackholed_address(self) -> tuple[str, int]:
        """A listener whose accept queue is pre-saturated.

        With the backlog full, further SYNs get no SYN-ACK (the kernel
        drops or defers them), so the probe's connect itself hangs
        until the backend's ``connect_timeout``.  The saturating client
        sockets are kept open for the fleet's lifetime.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        sock.listen(0)
        self._sockets.append(sock)
        address = sock.getsockname()[:2]
        for _ in range(2):  # backlog 0 still admits ~1; oversaturate
            filler = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            filler.setblocking(False)
            filler.connect_ex(address)
            self._sockets.append(filler)
        return address

    # -- campaign-facing surface -------------------------------------------

    def resolver(self) -> dict[tuple[str, int], tuple[str, int]]:
        """The ``(domain, port) -> (host, port)`` map for the campaign."""
        return dict(self._mapping)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.bridge.close()
        for sock in self._sockets:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "LoopbackFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
