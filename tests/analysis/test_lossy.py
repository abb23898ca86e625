"""Single vs parallel connections under loss (§VI point 1)."""

import pytest

from repro.analysis.lossy import h1_parallel_visit, sweep_loss_rates
from repro.analysis.pageload import visit_page
from repro.net.clock import Simulation
from repro.net.transport import LinkProfile, Network
from repro.servers.profiles import ServerProfile
from repro.servers.site import Site, deploy_site
from repro.servers.website import Resource, Website
from tests.conftest import sim_session


def make_site(loss=0.0, rtt=0.08, bandwidth=4e6, assets=6):
    website = Website()
    asset_list = [Resource(f"/a{i}.bin", 40_000) for i in range(assets)]
    for asset in asset_list:
        website.add(asset)
    website.add(
        Resource("/", 20_000, "text/html", links=[a.path for a in asset_list])
    )
    return Site(
        domain="lossy.test",
        profile=ServerProfile(
            processing_delay=0.01, processing_jitter=0.0, scheduler_mode="strict"
        ),
        website=website,
        link=LinkProfile(rtt=rtt, bandwidth=bandwidth, loss_rate=loss),
    )


class TestH1ParallelVisit:
    def test_fetches_entire_page(self):
        site = make_site()
        sim = Simulation()
        network = Network(sim, seed=1)
        deploy_site(network, site)
        plt = h1_parallel_visit(network, site, connections=4)
        assert plt > 0

    def test_more_connections_help_under_loss(self):
        # A statistical property: any single seed can draw a loss
        # pattern where parallelism loses, so compare means over a few.
        def run(connections, seed):
            site = make_site(loss=0.05)
            sim = Simulation()
            network = Network(sim, seed=seed)
            deploy_site(network, site)
            return h1_parallel_visit(network, site, connections=connections)

        seeds = range(5)
        mean6 = sum(run(6, s) for s in seeds) / len(seeds)
        mean1 = sum(run(1, s) for s in seeds) / len(seeds)
        assert mean6 < mean1

    def test_single_h1_connection_slower_than_h2(self):
        # Without loss, one h1 connection serializes request/response
        # cycles while h2 multiplexes them.
        site = make_site()
        sim = Simulation()
        network = Network(sim, seed=2)
        deploy_site(network, site)
        h1 = h1_parallel_visit(network, site, connections=1)

        site = make_site()
        sim = Simulation()
        network = Network(sim, seed=2)
        deploy_site(network, site)
        h2 = visit_page(sim_session(network).backend, site, enable_push=False).plt
        assert h2 < h1


class TestSweep:
    def test_loss_degrades_h2_faster(self):
        points = sweep_loss_rates(
            lambda loss: make_site(loss=loss),
            [0.0, 0.08],
            h1_connections=6,
            seed=4,
            repeats=2,
        )
        clean, lossy = points
        # HTTP/2 holds its own on a clean path...
        assert clean.h2_advantage > 0.9
        # ...and loses ground under heavy loss (the §VI warning).
        assert lossy.h2_advantage < clean.h2_advantage

    def test_plt_increases_with_loss_for_both(self):
        points = sweep_loss_rates(
            lambda loss: make_site(loss=loss),
            [0.0, 0.08],
            seed=4,
            repeats=2,
        )
        assert points[1].h2_plt > points[0].h2_plt
        assert points[1].h1_plt > points[0].h1_plt


class TestSharedLinkContention:
    def test_parallel_connections_share_bandwidth(self):
        # Two connections each sending 1 MB over a 1 MB/s downlink must
        # take ~2 s in total, not ~1 s (the pre-fix behaviour).
        sim = Simulation()
        network = Network(sim, seed=1)
        host = network.add_host("bw.test", LinkProfile(rtt=0.0, bandwidth=1e6))
        servers = []
        host.listen(443, servers.append)
        attempts = [network.connect("bw.test", 443) for _ in range(2)]
        sim.run_until(lambda: all(a.established for a in attempts), timeout=5)
        arrivals = []
        for attempt in attempts:
            attempt.endpoint.on_data = lambda d: arrivals.append(sim.now)
        for server_end in servers:
            server_end.send(b"x" * 1_000_000)
        sim.run()
        assert max(arrivals) == pytest.approx(2.0, rel=0.05)
