"""Site = domain + server profile + content + path characteristics.

This is the unit the population generator emits and the scanner
consumes: everything needed to deploy one origin onto the simulated
network.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.net.backend import SimulatedBackend
from repro.net.clock import Simulation
from repro.net.faults import FaultPlan, stable_seed
from repro.net.transport import LinkProfile, Network
from repro.servers.engine import H2Server
from repro.servers.profiles import ServerProfile
from repro.servers.vendors import VENDOR_FACTORIES
from repro.servers.website import Website, default_website, testbed_website


@dataclass(slots=True)
class Site:
    """One deployable origin."""

    domain: str
    profile: ServerProfile
    website: Website = field(default_factory=default_website)
    link: LinkProfile = field(default_factory=LinkProfile)
    #: Ground-truth annotations the population generator sets so that
    #: tests can compare planted truth with scanned observations.
    truth: dict = field(default_factory=dict)


#: The site's TLS port and its cleartext HTTP/1.1 port (which serves
#: Upgrade: h2c when the profile supports it).
TLS_PORT = 443
CLEAR_PORT = 80


def deploy_site(
    network: Network, site: Site, record_frames: bool = False
) -> H2Server:
    """Create the site's host and attach an engine; returns the server.

    The engine listens on :data:`TLS_PORT` and :data:`CLEAR_PORT`.
    ``record_frames`` turns on the engine's per-connection inbound-frame
    timelines (detector corpora).
    """
    host = network.add_host(site.domain, site.link)
    server = H2Server(
        network.sim,
        site.profile,
        site.website,
        # stable_seed, not hash(): the engine's universe must be
        # reproducible across processes (campaign crash/resume).
        seed=stable_seed(network.seed, site.domain) & 0xFFFFFFFF,
        record_frames=record_frames,
    )
    server.install(host, TLS_PORT, tls=True)
    server.install(host, CLEAR_PORT, tls=False)
    return server


@contextmanager
def serve_site(
    site: Site,
    seed: int = 0,
    record_frames: bool = False,
    fault_plan: FaultPlan | None = None,
) -> Iterator[tuple[SimulatedBackend, H2Server]]:
    """A fresh simulated universe serving ``site``: yields the backend
    a client dials and the engine, and ends — server and network closed,
    so reference counts free it (DESIGN §8) — with the ``with`` block.
    ``scan_site`` builds its own, to record a failed deployment."""
    network = Network(Simulation(), seed=seed, fault_plan=fault_plan)
    server = deploy_site(network, site, record_frames=record_frames)
    try:
        yield SimulatedBackend(network), server
    finally:
        server.close()
        network.close()


@contextmanager
def deploy_testbed(
    vendor: str, seed: int = 0, domain: str | None = None
) -> Iterator[tuple[SimulatedBackend, Site]]:
    """A fresh simulated universe serving one Table III vendor's testbed
    deployment (the large objects of §III-A1) at ``domain``, by default
    ``{vendor}.testbed``; it ends when the ``with`` block does."""
    site = Site(
        domain=domain or f"{vendor}.testbed",
        profile=VENDOR_FACTORIES[vendor](),
        website=testbed_website(),
    )
    with serve_site(site, seed) as (backend, _):
        yield backend, site
