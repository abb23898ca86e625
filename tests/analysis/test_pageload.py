"""Page-load model (Fig. 3's mechanism)."""

from repro.analysis.pageload import measure_site, visit_page
from repro.net.clock import Simulation
from repro.net.transport import LinkProfile, Network
from repro.servers.profiles import ServerProfile
from repro.servers.site import Site, deploy_site
from repro.servers.website import Resource, Website
from tests.conftest import sim_session


def push_site(rtt=0.2, push_everything=True):
    website = Website()
    subs = [Resource(f"/sub{i}.woff", 10_000) for i in range(2)]
    for sub in subs:
        website.add(sub)
    container = Resource(
        "/bundle.css", 8_000, "text/css", links=[s.path for s in subs]
    )
    website.add(container)
    leaves = [Resource(f"/img{i}.png", 20_000) for i in range(3)]
    for leaf in leaves:
        website.add(leaf)
    top_links = [container.path] + [l.path for l in leaves]
    push = top_links + [s.path for s in subs] if push_everything else []
    website.add(Resource("/", 15_000, "text/html", links=top_links, push=push))
    profile = ServerProfile(
        supports_push=True,
        scheduler_mode="strict",
        processing_delay=0.05,
        processing_jitter=0.0,
    )
    return Site(
        domain="plt.test",
        profile=profile,
        website=website,
        link=LinkProfile(rtt=rtt, bandwidth=10e6),
    )


def run_visit(site, enable_push):
    sim = Simulation()
    network = Network(sim, seed=1)
    deploy_site(network, site)
    return visit_page(sim_session(network).backend, site, enable_push=enable_push)


class TestVisit:
    def test_visit_fetches_whole_dependency_graph(self):
        site = push_site()
        result = run_visit(site, enable_push=False)
        fetched = set(result.requested_paths)
        # Everything except the front page itself was requested.
        assert fetched == set(site.website.paths()) - {"/", "/bundle.css"} | {"/bundle.css"}

    def test_push_replaces_requests(self):
        site = push_site()
        result = run_visit(site, enable_push=True)
        assert result.pushed_paths
        assert not set(result.pushed_paths) & set(result.requested_paths)

    def test_push_reduces_plt_on_high_latency_path(self):
        site = push_site(rtt=0.3)
        with_push = run_visit(site, enable_push=True).plt
        without = run_visit(site, enable_push=False).plt
        assert with_push < without
        # At least the second-wave round trip plus processing is saved.
        assert without - with_push > 0.2

    def test_plt_scales_with_rtt(self):
        slow = run_visit(push_site(rtt=0.4), enable_push=False).plt
        fast = run_visit(push_site(rtt=0.05), enable_push=False).plt
        assert slow > fast


class TestMeasureSite:
    def test_collects_both_modes(self):
        stats = measure_site(push_site(), visits=4, seed=2)
        assert len(stats.with_push) == 4
        assert len(stats.without_push) == 4
        assert stats.push_speedup > 1.0

    def test_medians_positive(self):
        stats = measure_site(push_site(), visits=3, seed=2)
        assert stats.median_with_push > 0
        assert stats.median_without_push > 0

    def test_deterministic(self):
        a = measure_site(push_site(), visits=3, seed=9)
        b = measure_site(push_site(), visits=3, seed=9)
        assert a.with_push == b.with_push
        assert a.without_push == b.without_push


class TestWaterfall:
    def test_timeline_covers_every_resource(self):
        from repro.analysis.pageload import render_waterfall

        site = push_site()
        result = run_visit(site, enable_push=True)
        expected = set(site.website.paths())
        assert set(result.timeline) == expected

    def test_start_before_end(self):
        site = push_site()
        result = run_visit(site, enable_push=False)
        for path, (begin, end) in result.timeline.items():
            assert 0.0 <= begin <= end, path

    def test_pushed_resources_start_before_discovery_wave(self):
        site = push_site()
        pushed = run_visit(site, enable_push=True)
        unpushed = run_visit(site, enable_push=False)
        # Promises ride with the HTML response; requests need the HTML
        # *plus* parse time, so pushed starts are never meaningfully later.
        for path in pushed.pushed_paths:
            assert pushed.timeline[path][0] <= unpushed.timeline[path][0] + 0.05
        # Second-wave resources (behind the container) start strictly
        # earlier when pushed: the discovery round trip is gone.
        second_wave = [p for p in pushed.pushed_paths if p.startswith("/sub")]
        assert second_wave
        for path in second_wave:
            assert pushed.timeline[path][0] < unpushed.timeline[path][0]

    def test_render_waterfall(self):
        from repro.analysis.pageload import render_waterfall

        result = run_visit(push_site(), enable_push=True)
        text = render_waterfall(result)
        assert "pushed" in text
        assert "/bundle.css" in text

    def test_render_empty(self):
        from repro.analysis.pageload import VisitResult, render_waterfall

        assert "empty" in render_waterfall(VisitResult(plt=0.0))
