"""Learned push manifests (the §VI point-4 extension)."""

from repro.analysis.pageload import visit_page
from repro.net.clock import Simulation
from repro.net.transport import LinkProfile, Network
from repro.servers import engine
from repro.servers.profiles import ServerProfile
from repro.servers.site import Site, deploy_site
from repro.servers.website import Resource, Website
from tests.conftest import sim_session


def make_site(policy="learned"):
    website = Website()
    assets = [Resource(f"/a{i}.png", 20_000) for i in range(4)]
    for asset in assets:
        website.add(asset)
    website.add(
        Resource("/", 10_000, "text/html", links=[a.path for a in assets], push=[])
    )
    return Site(
        domain="learn.test",
        profile=ServerProfile(
            supports_push=True,
            push_policy=policy,
            processing_delay=0.02,
            processing_jitter=0.0,
        ),
        website=website,
        link=LinkProfile(rtt=0.1, bandwidth=10e6),
    )


def deploy(site):
    sim = Simulation()
    network = Network(sim, seed=9)
    server = deploy_site(network, site)
    return sim_session(network).backend, server


class TestLearning:
    def test_first_visit_pushes_nothing(self):
        site = make_site()
        backend, server = deploy(site)
        result = visit_page(backend, site, enable_push=True)
        assert result.pushed_paths == []

    def test_second_visit_pushes_learned_followers(self):
        site = make_site()
        backend, server = deploy(site)
        visit_page(backend, site, enable_push=True)
        second = visit_page(backend, site, enable_push=True)
        assert set(second.pushed_paths) == {f"/a{i}.png" for i in range(4)}
        assert second.requested_paths == []

    def test_learning_reduces_plt(self):
        site = make_site()
        backend, server = deploy(site)
        first = visit_page(backend, site, enable_push=True).plt
        second = visit_page(backend, site, enable_push=True).plt
        assert second < first

    def test_follow_counts_recorded(self):
        site = make_site()
        backend, server = deploy(site)
        visit_page(backend, site, enable_push=True)
        assert set(server.follow_counts["/"]) == {f"/a{i}.png" for i in range(4)}

    def test_learned_push_limit_respected(self, monkeypatch):
        monkeypatch.setattr(engine, "LEARNED_PUSH_LIMIT", 2)
        site = make_site()
        backend, server = deploy(site)
        visit_page(backend, site, enable_push=True)
        second = visit_page(backend, site, enable_push=True)
        assert len(second.pushed_paths) == 2

    def test_ranking_prefers_frequent_followers(self):
        site = make_site()
        backend, server = deploy(site)
        server.record_follow("/", "/hot.png")
        server.record_follow("/", "/hot.png")
        server.record_follow("/", "/cold.png")
        ranked = server.learned_push_list("/")
        assert ranked[0] == "/hot.png"

    def test_static_policy_ignores_history(self):
        site = make_site(policy="static")
        backend, server = deploy(site)
        visit_page(backend, site, enable_push=True)
        second = visit_page(backend, site, enable_push=True)
        assert second.pushed_paths == []  # static manifest is empty
