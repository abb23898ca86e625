"""Scanner composition: per-site universes, probe selection, resilience."""

import pytest

from repro.scope.report import SiteReport
from repro.scope.scanner import ALL_PROBES, scan_population, scan_site
from repro.servers.profiles import ServerProfile
from repro.servers.site import Site
from repro.servers.website import default_website, testbed_website


def make_site(domain="scan.test", profile=None):
    return Site(
        domain=domain,
        profile=profile or ServerProfile(),
        website=testbed_website(),
    )


class TestScanSite:
    def test_full_scan_produces_report(self):
        report = scan_site(
            make_site(),
            priority_test_paths=[f"/large/{i}.bin" for i in range(6)],
            priority_depletion_paths=[f"/medium/{i}.bin" for i in range(4)],
        )
        assert isinstance(report, SiteReport)
        assert report.errors == []
        assert report.speaks_h2
        assert report.negotiation.headers_received
        assert report.settings.settings_frame_received
        assert report.hpack.ratio is not None
        assert report.ping.ping_supported

    def test_include_limits_probes(self):
        report = scan_site(make_site(), include={"negotiation"})
        assert report.speaks_h2
        assert not report.settings.settings_frame_received  # probe skipped
        assert report.hpack.ratio is None

    def test_unknown_probe_rejected(self):
        with pytest.raises(ValueError):
            scan_site(make_site(), include={"negotiation", "frobnicate"})

    def test_non_h2_site_short_circuits(self):
        report = scan_site(make_site(profile=ServerProfile(supports_h2=False)))
        assert not report.speaks_h2
        assert report.flow_control.tiny_window is None

    def test_priority_skipped_without_test_objects(self):
        site = Site(domain="small.test", profile=ServerProfile(), website=default_website())
        report = scan_site(site, include={"negotiation", "priority"})
        # Algorithm 1 skipped (no /prio objects) but self-dependency runs.
        assert report.priority.last_frame_order == []
        assert report.priority.self_dependency is not None

    def test_deterministic_given_seed(self):
        kwargs = dict(
            priority_test_paths=[f"/large/{i}.bin" for i in range(6)],
            priority_depletion_paths=[f"/medium/{i}.bin" for i in range(4)],
            seed=11,
        )
        a = scan_site(make_site(), **kwargs)
        b = scan_site(make_site(), **kwargs)
        assert a.hpack.header_sizes == b.hpack.header_sizes
        assert a.priority.last_frame_order == b.priority.last_frame_order

    def test_all_probes_constant_matches_scanner(self):
        assert ALL_PROBES == {
            "negotiation",
            "settings",
            "flow_control",
            "priority",
            "push",
            "hpack",
            "ping",
        }


class TestScanPopulation:
    def test_reports_in_input_order(self):
        sites = [make_site(domain=f"s{i}.test") for i in range(3)]
        reports = scan_population(sites, include={"negotiation"})
        assert [r.domain for r in reports] == [f"s{i}.test" for i in range(3)]

    def test_progress_callback(self):
        sites = [make_site(domain=f"s{i}.test") for i in range(5)]
        seen = []
        scan_population(
            sites,
            include={"negotiation"},
            workers=2,
            progress=seen.append,
        )
        # One tick per completed site, done counts monotone regardless
        # of which worker finished which site in what order.
        assert [tick.done for tick in seen] == [1, 2, 3, 4, 5]
        last = seen[-1]
        assert (last.done, last.total) == (5, 5)
        assert last.errors == 0
        assert last.quarantined == 0
        assert last.virtual_seconds > 0
        assert last.eta_virtual_seconds == 0.0
        # Mid-scan ticks extrapolate a virtual-time ETA from the mean.
        mid = seen[2]
        assert mid.remaining == 2
        assert mid.eta_virtual_seconds > 0

    def test_sites_isolated_from_each_other(self):
        # Same domain twice: would collide if they shared a network.
        sites = [make_site(domain="same.test"), make_site(domain="same.test")]
        reports = scan_population(sites, include={"negotiation"})
        assert all(r.negotiation.headers_received for r in reports)


class TestPerSiteIsolation:
    def test_setup_failure_becomes_error_report(self, monkeypatch):
        import repro.scope.scanner as scanner_module

        real_deploy = scanner_module.deploy_site

        def poisoned_deploy(network, site):
            if site.domain == "bad.test":
                raise RuntimeError("deploy exploded")
            return real_deploy(network, site)

        monkeypatch.setattr(scanner_module, "deploy_site", poisoned_deploy)
        sites = [
            make_site(domain="good.test"),
            make_site(domain="bad.test"),
            make_site(domain="also-good.test"),
        ]
        reports = scan_population(sites, include={"negotiation"})
        assert [r.domain for r in reports] == [s.domain for s in sites]
        assert not reports[0].failed and not reports[2].failed
        bad = reports[1]
        assert bad.failed
        assert bad.errors[0].probe == "setup"
        assert bad.errors[0].exception == "RuntimeError"

    def test_scan_site_crash_becomes_error_report(self, monkeypatch):
        import repro.scope.scanner as scanner_module

        real_scan_site = scanner_module.scan_site

        def crashing_scan_site(site, **kwargs):
            if site.domain == "crash.test":
                raise RuntimeError("scanner bug")
            return real_scan_site(site, **kwargs)

        monkeypatch.setattr(scanner_module, "scan_site", crashing_scan_site)
        sites = [make_site(domain="ok.test"), make_site(domain="crash.test")]
        reports = scan_population(sites, include={"negotiation"})
        assert len(reports) == 2
        assert not reports[0].failed
        assert reports[1].errors[0].probe == "scan"

    def test_unknown_probe_still_raises_for_caller_bugs(self):
        with pytest.raises(ValueError):
            scan_population([make_site()], include={"frobnicate"})


class TestResilientScan:
    def test_attempts_recorded_per_probe(self):
        from repro.scope.resilience import ResilienceConfig

        report = scan_site(
            make_site(),
            include={"negotiation", "settings"},
            resilience=ResilienceConfig(),
        )
        assert report.probe_attempts == {"negotiation": 1, "settings": 1}
        assert not report.failed and not report.retried

    def test_capped_refusals_are_rescued_by_retry(self):
        from repro.net.faults import FaultPlan
        from repro.scope.resilience import ResilienceConfig

        # Every connection refused until the cap; retries then succeed.
        plan = FaultPlan.parse("refuse:1.0x1")
        report = scan_site(
            make_site(),
            include={"negotiation"},
            fault_plan=plan,
            resilience=ResilienceConfig(retries=2),
        )
        assert report.probe_attempts["negotiation"] > 1
        assert not report.failed
        assert report.retried

    def test_uncapped_refusals_exhaust_retries(self):
        from repro.net.faults import FaultPlan
        from repro.scope.report import ErrorClass
        from repro.scope.resilience import ResilienceConfig

        plan = FaultPlan.parse("refuse")
        report = scan_site(
            make_site(),
            include={"negotiation"},
            fault_plan=plan,
            resilience=ResilienceConfig(retries=2),
        )
        assert report.failed
        error = report.errors[0]
        assert error.probe == "negotiation"
        assert error.error_class is ErrorClass.TRANSIENT
        assert error.attempts == 3

    def test_legacy_mode_keeps_single_shot_semantics(self):
        from repro.net.faults import FaultPlan

        plan = FaultPlan.parse("refuse")
        report = scan_site(make_site(), include={"negotiation"}, fault_plan=plan)
        # Without resilience: no retries, no raising — the probe just
        # reports an unresponsive site, matching pre-fault behavior.
        assert report.probe_attempts == {}
        assert not report.speaks_h2


# The e2e benchmark's ``sim_chaos`` hostility (benchmarks/e2e/workloads.py).
E2E_CHAOS_PLAN = "refuse:0.1x6,reset:0.06x4,stall(30):0.05,truncate(400):0.05"
E2E_CHAOS_PLAN_SEED = 5
SHORT_PROBES = {"negotiation", "settings", "ping"}


def chaos_options():
    from repro.net.faults import FaultPlan
    from repro.scope.resilience import ResilienceConfig

    return dict(
        include=SHORT_PROBES,
        fault_plan=FaultPlan.parse(E2E_CHAOS_PLAN, seed=E2E_CHAOS_PLAN_SEED),
        resilience=ResilienceConfig(timeout=10.0, retries=1),
    )


@pytest.fixture(scope="module")
def population():
    from repro.population.generator import PopulationConfig, make_population

    return make_population(PopulationConfig(n_sites=45, seed=7))


class TestUniverseEndsWithTheCall:
    """``scan_site`` tears its universe down on every way out, so
    reference counts free it and the cyclic collector finds nothing."""

    @pytest.fixture
    def universe_refs(self, monkeypatch):
        """Weak references to the Network, Simulation and H2Server of
        every universe ``scan_site`` builds; ``setup-fails.test`` raises
        out of ``deploy_site`` after the engine is installed."""
        import weakref

        import repro.scope.scanner as scanner_module

        real_deploy = scanner_module.deploy_site
        refs = []

        def watched_deploy(network, site):
            refs.extend([weakref.ref(network), weakref.ref(network.sim)])
            server = real_deploy(network, site)
            refs.append(weakref.ref(server))
            if site.domain == "setup-fails.test":
                raise RuntimeError("deploy exploded")
            return server

        monkeypatch.setattr(scanner_module, "deploy_site", watched_deploy)
        return refs

    @staticmethod
    def assert_freed(refs, report):
        assert len(refs) == 3
        assert [ref() for ref in refs] == [None, None, None], report.domain
        refs.clear()

    def test_serial_scans_leave_nothing_for_the_collector(
        self, population, collector_off, universe_refs, monkeypatch
    ):
        import repro.scope.scanner as scanner_module

        for index, site in enumerate(population[:40]):
            report = scan_site(site, seed=7 + index, **chaos_options())
            self.assert_freed(universe_refs, report)
        for index, site in enumerate(population[:10]):
            report = scan_site(site, seed=7 + index)  # all seven probe groups
            assert report.errors == []
            self.assert_freed(universe_refs, report)

        report = scan_site(make_site(domain="setup-fails.test"))
        assert report.errors[0].probe == "setup"
        self.assert_freed(universe_refs, report)

        def exploding_probe(session, domain):
            client = session.client(domain)
            assert client.connect()
            client.tls_handshake()  # a live connection, events still queued
            raise RuntimeError("probe exploded mid-connection")

        monkeypatch.setattr(scanner_module, "probe_settings", exploding_probe)
        report = scan_site(make_site(), include={"negotiation", "settings"})
        assert [error.probe for error in report.errors] == ["settings"]
        self.assert_freed(universe_refs, report)

        assert collector_off.collect() == 0

    def test_an_exception_through_scan_site_still_ends_the_universe(
        self, collector_off, universe_refs
    ):
        from repro.net.backend import SimulatedBackend

        class LaneAbort(BaseException):
            """What the scheduler injects into a lane it is tearing down."""

        class AbortingBackend(SimulatedBackend):
            waits = 0

            def run_until(self, predicate, timeout):
                self.waits += 1
                if self.waits == 4:
                    raise LaneAbort
                return super().run_until(predicate, timeout)

        with pytest.raises(LaneAbort):
            scan_site(make_site(), backend_factory=AbortingBackend)
        assert [ref() for ref in universe_refs] == [None, None, None]
        assert collector_off.collect() == 0

    def test_lanes_leave_nothing_per_site_either(
        self, population, collector_off, tmp_path
    ):
        from repro.scope.scanner import run_campaign
        from repro.scope.storage import ReportStore

        sites = population[:40]
        with ReportStore(tmp_path / "lanes.db") as store:
            result = run_campaign(
                sites, store, "lanes", seed=7, concurrency=8, **chaos_options()
            )
        assert result.scanned == len(sites)
        # The scheduler's own threads and events are a fixed handful; a
        # universe was ~350 objects a site before the teardown.
        assert collector_off.collect() <= 10 * len(sites)


class TestEveryUniverseEndsWithItsCall:
    """The universes built outside ``scan_site`` — the Table III
    testbed and the attack battery's victim — end with their call too."""

    @pytest.fixture
    def universe_refs(self, monkeypatch):
        """Weak references to every Network and H2Server built during
        the test, and to the Simulation each was built on."""
        import weakref

        from repro.net.transport import Network
        from repro.servers.engine import H2Server

        refs = []
        for cls in (Network, H2Server):

            def watched_init(self, sim, *args, _init=cls.__init__, **kwargs):
                _init(self, sim, *args, **kwargs)
                refs.extend([weakref.ref(self), weakref.ref(sim)])

            monkeypatch.setattr(cls, "__init__", watched_init)
        return refs

    def test_characterize_vendor_ends_its_testbed(
        self, collector_off, universe_refs
    ):
        from repro.experiments.table3 import characterize_vendor

        cells = characterize_vendor("nginx")
        assert cells["ALPN"] == "support"
        assert len(universe_refs) == 4
        assert [ref() for ref in universe_refs] == [None] * 4
        assert collector_off.collect() == 0

    def test_run_attack_ends_its_victim(self, collector_off, universe_refs):
        from repro.attacks import run_attack

        # Recorded timelines are what outlives the universe.
        result = run_attack("ping_flood", "nginx", duration=2.0, record_frames=True)
        assert result.connected and result.timelines
        assert len(universe_refs) == 4
        assert [ref() for ref in universe_refs] == [None] * 4
        assert collector_off.collect() == 0


class TestNothingReadsATornDownObject:
    """The report is complete before the teardown runs: it is the same
    report, byte for byte, when the teardown does nothing."""

    @staticmethod
    def stored_rows(sites, **options):
        from repro.scope.storage import ReportStore

        with ReportStore() as store:
            for index, site in enumerate(sites):
                store.save("c", scan_site(site, seed=7 + index, **options))
            return store.connection.execute(
                "SELECT * FROM reports ORDER BY rowid"
            ).fetchall()

    def test_stored_documents_equal_those_of_a_scan_without_teardown(
        self, population, monkeypatch
    ):
        from repro.net.transport import Network
        from repro.servers.engine import H2Server

        torn_down = [
            self.stored_rows(population[:30], **chaos_options()),
            self.stored_rows(population[:10]),
        ]
        closed = []
        monkeypatch.setattr(Network, "close", lambda self: closed.append(self))
        monkeypatch.setattr(H2Server, "close", lambda self: closed.append(self))
        kept = [
            self.stored_rows(population[:30], **chaos_options()),
            self.stored_rows(population[:10]),
        ]
        assert len(closed) == 2 * 40  # the seam is the teardown's entry points
        assert torn_down == kept
        assert all(len(rows) == n for rows, n in zip(kept, (30, 10)))

    def test_scan_virtual_time_is_the_clock_after_the_last_probe(
        self, population, monkeypatch
    ):
        import repro.scope.scanner as scanner_module

        real_probe_target = scanner_module.probe_target
        clock = []

        def timed_probe_target(session, domain, **kwargs):
            try:
                return real_probe_target(session, domain, **kwargs)
            finally:
                clock.append(session.now)

        monkeypatch.setattr(scanner_module, "probe_target", timed_probe_target)
        for index, site in enumerate(population[:20]):
            report = scan_site(site, seed=7 + index, **chaos_options())
            assert report.scan_virtual_time == clock.pop() > 0.0
