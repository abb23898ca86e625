"""Shared testbed fixtures for probe tests."""

import pytest

from repro.net.clock import Simulation
from repro.net.transport import LinkProfile, Network
from repro.servers.site import Site, deploy_site
from repro.servers.vendors import VENDOR_FACTORIES
from repro.servers.website import testbed_website

TEST_PATHS = [f"/large/{i}.bin" for i in range(6)]
DEPLETION_PATHS = [f"/medium/{i}.bin" for i in range(4)]


def deploy_vendor(vendor: str, seed: int = 0) -> tuple[Network, str]:
    """Fresh simulation universe with one vendor's testbed deployment."""
    sim = Simulation()
    network = Network(sim, seed=seed)
    site = Site(
        domain=f"{vendor}.testbed",
        profile=VENDOR_FACTORIES[vendor](),
        website=testbed_website(),
        link=LinkProfile(rtt=0.04, bandwidth=20e6),
    )
    deploy_site(network, site)
    return network, site.domain


@pytest.fixture(params=sorted(VENDOR_FACTORIES))
def vendor(request):
    return request.param
