"""ISSUE 6 proving ground: live campaigns against a loopback fleet.

One module-scoped fleet (simulated vendor engines on real loopback TCP
plus planted refuse/stall/blackhole/unresolvable faults) is scanned by
one live campaign; the tests then assert, against that shared run:

* every fault class lands in the right journal state with the right
  error taxonomy (DNS quarantines, stalls cut at the probe budget,
  refusals classified transient);
* the pool and politeness invariants held throughout — in-flight
  sessions never exceeded ``concurrency``, no host was contacted twice
  within the per-host gap, the global contact rate stayed under the
  token bucket's bound — *while* workers were hitting faults;
* healthy sites' verdicts match a simulated scan of the same seeded
  population verdict-for-verdict (:func:`verdict_view`);
* a campaign SIGKILLed mid-flight and resumed in a fresh process (new
  fleet, new ephemeral ports, same journal) converges to the same
  final report as an uninterrupted run.

Scale is environment-driven so the same file is the tier-1 test, the
per-push CI fleet job and the weekly soak:

* ``H2SCOPE_FLEET_SITES`` / ``H2SCOPE_FLEET_CONCURRENCY`` — population
  and pool size (defaults 12 / 6, CI uses 100 / 32);
* ``H2SCOPE_FLEET_SOAK=1`` — the weekly configuration (at least 200
  listeners, concurrency 32).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path
from unittest import mock

import pytest

from repro.net.socket_backend import SocketBackend, SocketEndpoint
from repro.scope import campaign as campaign_module
from repro.scope.campaign import CampaignInterrupted, CampaignJournal, SiteStatus
from repro.scope.client import ScopeClient
from repro.scope.live import (
    LiveConfig,
    LiveScanMetrics,
    run_live_campaign,
    verdict_view,
)
from repro.scope.report import ErrorClass
from repro.scope.resilience import ResilienceConfig
from repro.scope.scanner import scan_site
from repro.scope.storage import ReportStore
from repro.servers.engine import _ServerConnection
from repro.servers.fleet import (
    BLACKHOLE,
    HEALTHY,
    REFUSE,
    STALL,
    UNRESOLVABLE,
    FleetPlan,
    LoopbackFleet,
)
from tests.support.live import contact_tap, max_rate, min_host_gap
from tests.support.readers import domains_with, healthy_sites

SOAK = os.environ.get("H2SCOPE_FLEET_SOAK") == "1"


def fleet_scale() -> tuple[int, int]:
    if SOAK:
        return (
            max(200, int(os.environ.get("H2SCOPE_FLEET_SITES", "200"))),
            max(32, int(os.environ.get("H2SCOPE_FLEET_CONCURRENCY", "32"))),
        )
    return (
        int(os.environ.get("H2SCOPE_FLEET_SITES", "12")),
        int(os.environ.get("H2SCOPE_FLEET_CONCURRENCY", "6")),
    )


def fleet_plan() -> FleetPlan:
    sites, _ = fleet_scale()
    per_fault = max(1, sites // 12)
    return FleetPlan(
        sites=sites,
        seed=17,
        refuse=per_fault,
        stall=per_fault,
        blackhole=1 if sites >= 12 else 0,
        unresolvable=per_fault,
    )


#: Politeness knobs for the shared campaign.
PER_HOST_GAP = 0.2
RATE = 40.0
BURST = 10.0
#: Per-probe budget: 40 virtual seconds compressed to 6 wall seconds.
RESILIENCE = ResilienceConfig(timeout=40.0, retries=1)
TIMEOUT_SCALE = 0.15


@pytest.fixture(scope="module")
def fleet_campaign(tmp_path_factory):
    """Build the fleet, run ONE live campaign, share the evidence."""
    plan = fleet_plan()
    _, concurrency = fleet_scale()
    db = tmp_path_factory.mktemp("fleet") / "campaign.db"
    metrics = LiveScanMetrics()
    ticks = []
    with LoopbackFleet(plan) as fleet:
        with ReportStore(db) as store:
            with contact_tap() as tap:
                result = run_live_campaign(
                    fleet.domains,
                    store,
                    "fleet",
                    seed=plan.seed,
                    resilience=RESILIENCE,
                    config=LiveConfig(
                        concurrency=concurrency,
                        per_host_gap=PER_HOST_GAP,
                        rate=RATE,
                        burst=BURST,
                        timeout_scale=TIMEOUT_SCALE,
                        connect_timeout=1.0,
                    ),
                    resolver=fleet.resolver(),
                    metrics=metrics,
                    progress=ticks.append,
                )
            journal = CampaignJournal(store)
            yield {
                "plan": plan,
                "concurrency": concurrency,
                "fleet": fleet,
                "store": store,
                "result": result,
                "metrics": metrics,
                "tap": tap,
                "ticks": ticks,
                "statuses": journal.statuses("fleet"),
                "dns_failures": journal.dns_failures("fleet"),
            }


class TestFaultClassification:
    def test_healthy_sites_complete(self, fleet_campaign):
        fleet = fleet_campaign["fleet"]
        statuses = fleet_campaign["statuses"]
        for domain in domains_with(fleet, HEALTHY):
            status, attempts = statuses[domain]
            assert status is SiteStatus.DONE, domain
            assert attempts == 1

    def test_unresolvable_sites_dns_quarantined_without_budget(
        self, fleet_campaign
    ):
        fleet = fleet_campaign["fleet"]
        store = fleet_campaign["store"]
        unresolvable = domains_with(fleet, UNRESOLVABLE)
        assert unresolvable
        for domain in unresolvable:
            status, _ = fleet_campaign["statuses"][domain]
            assert status is SiteStatus.QUARANTINED, domain
            report = store.load("fleet", domain)
            assert report.errors[0].probe == "dns"
            assert report.errors[0].error_class is ErrorClass.DNS
        assert fleet_campaign["dns_failures"] == len(unresolvable)
        assert fleet_campaign["ticks"][-1].dns_failures == len(unresolvable)

    def test_stalled_sites_cut_by_probe_deadline(self, fleet_campaign):
        fleet = fleet_campaign["fleet"]
        store = fleet_campaign["store"]
        for domain in domains_with(fleet, STALL):
            status, _ = fleet_campaign["statuses"][domain]
            assert status is SiteStatus.FAILED, domain
            report = store.load("fleet", domain)
            assert any(
                error.error_class is ErrorClass.TIMEOUT
                for error in report.errors
            ), domain

    def test_refusing_sites_classified_transient(self, fleet_campaign):
        fleet = fleet_campaign["fleet"]
        store = fleet_campaign["store"]
        for domain in domains_with(fleet, REFUSE):
            status, _ = fleet_campaign["statuses"][domain]
            assert status is SiteStatus.FAILED, domain
            report = store.load("fleet", domain)
            error = report.errors[0]
            assert error.error_class is ErrorClass.TRANSIENT, domain
            assert error.attempts == RESILIENCE.retries + 1  # budget spent

    def test_blackholed_sites_fail_within_connect_timeout(
        self, fleet_campaign
    ):
        fleet = fleet_campaign["fleet"]
        store = fleet_campaign["store"]
        for domain in domains_with(fleet, BLACKHOLE):
            status, _ = fleet_campaign["statuses"][domain]
            assert status is SiteStatus.FAILED, domain
            report = store.load("fleet", domain)
            assert report.errors[0].error_class in (
                ErrorClass.TRANSIENT,
                ErrorClass.TIMEOUT,
            ), domain


class TestPoolAndPolitenessInvariants:
    """The ISSUE's hard invariants, measured across the faulty run."""

    def test_in_flight_never_exceeded_concurrency(self, fleet_campaign):
        metrics = fleet_campaign["metrics"]
        assert 1 <= metrics.concurrency_high_water
        assert metrics.concurrency_high_water <= fleet_campaign["concurrency"]
        assert metrics.in_flight == 0  # the pool drained completely

    def test_no_host_contacted_twice_within_gap(self, fleet_campaign):
        tap = fleet_campaign["tap"]
        assert tap.contacts  # probes really contacted hosts
        smallest = min_host_gap(tap.contacts)
        if smallest is not None:  # None: no host needed two contacts
            assert smallest >= PER_HOST_GAP - 1e-3

    def test_global_contact_rate_bounded_by_token_bucket(
        self, fleet_campaign
    ):
        tap = fleet_campaign["tap"]
        assert tap.grants  # the bucket really arbitrated
        # Token-bucket guarantee: grants in any 1s window never exceed
        # burst + rate (plus the closed-interval fencepost).
        assert max_rate(tap.grants, window=1.0) <= BURST + RATE + 1

    def test_every_contact_paid_a_token(self, fleet_campaign):
        tap = fleet_campaign["tap"]
        assert len(tap.grants) == len(tap.contacts)


class TestConcurrencyFloor:
    """``LiveConfig(concurrency=0)`` started no worker and "finished"
    with every site still pending; the pool width is floored at 1, as
    the simulated path floors its lane width."""

    @pytest.mark.parametrize("concurrency", [0, -3])
    def test_nonpositive_concurrency_scans_every_site(
        self, concurrency, tmp_path
    ):
        plan = FleetPlan(sites=6, seed=23)
        with LoopbackFleet(plan) as fleet:
            with ReportStore(tmp_path / "floor.db") as store:
                result = run_live_campaign(
                    fleet.domains,
                    store,
                    "floor",
                    seed=plan.seed,
                    include={"negotiation"},
                    resilience=RESILIENCE,
                    config=LiveConfig(
                        concurrency=concurrency,
                        timeout_scale=TIMEOUT_SCALE,
                        connect_timeout=1.0,
                    ),
                    resolver=fleet.resolver(),
                )
        assert result.scanned == plan.sites
        assert result.counts["pending"] == 0
        assert result.counts["done"] == plan.sites


class TestNothingOutlivesItsCampaign:
    """A fleet serves many campaigns; its in-process servers used to
    keep every accepted connection (endpoint and engine state) for the
    fleet's lifetime, ~16 MB more per campaign."""

    def test_servers_release_connections_between_campaigns(self, tmp_path):
        plan = FleetPlan(sites=5, seed=29, link_rtt=0.002)
        with LoopbackFleet(plan) as fleet:
            runtimes = list(fleet.bridge._runtimes.values())
            accepted = 0
            for round_ in range(3):
                with ReportStore(tmp_path / f"round-{round_}.db") as store:
                    result = run_live_campaign(
                        fleet.domains,
                        store,
                        "round",
                        seed=plan.seed,
                        include={"negotiation", "settings", "ping"},
                        resilience=RESILIENCE,
                        config=LiveConfig(
                            concurrency=2,
                            timeout_scale=TIMEOUT_SCALE,
                            connect_timeout=1.0,
                        ),
                        resolver=fleet.resolver(),
                    )
                    assert result.counts["done"] == plan.sites
                    reports = {
                        site.domain: store.load("round", site.domain)
                        for site in fleet.sites
                    }
                # The servers see each FIN one loop turn after the
                # client sent it: give the bridge a moment to catch up.
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline and any(
                    runtime.endpoints or runtime.server.connections
                    for runtime in runtimes
                ):
                    time.sleep(0.01)
                for runtime in runtimes:
                    assert len(runtime.endpoints) == 0, runtime.site.domain
                    assert len(runtime.server.connections) == 0, runtime.site.domain
                # Indices keep counting: a connection's index seeds its
                # engine RNG, so it must not restart when others leave.
                now_accepted = sum(runtime._accepted for runtime in runtimes)
                assert now_accepted > accepted
                accepted = now_accepted
            # Releasing connections changed no verdict: the third
            # campaign over the same fleet still matches the simulation.
            for site in fleet.sites:
                simulated = scan_site(
                    site, include={"negotiation", "settings", "ping"}, seed=plan.seed
                )
                assert verdict_view(reports[site.domain]) == verdict_view(
                    simulated
                ), site.domain


    def test_a_campaign_leaves_nothing_for_the_collector(
        self, tmp_path, collector_off, monkeypatch
    ):
        """Each client session and each bridge connection ends with its
        sockets: reference counting frees them, as it frees a simulated
        universe.  The collector used to find ~570 objects a site, 14 of
        them sockets, held by endpoint <-> handler cycles on both ends."""
        refs = []
        for cls in (SocketBackend, SocketEndpoint, ScopeClient, _ServerConnection):

            def watched_init(self, *args, _init=cls.__init__, **kwargs):
                _init(self, *args, **kwargs)
                refs.append(weakref.ref(self))

            monkeypatch.setattr(cls, "__init__", watched_init)
        plan = FleetPlan(sites=5, seed=29, link_rtt=0.002)
        with LoopbackFleet(plan) as fleet:
            runtimes = list(fleet.bridge._runtimes.values())
            with ReportStore(tmp_path / "census.db") as store:
                collector_off.collect()  # the fleet's and the store's own
                result = run_live_campaign(
                    fleet.domains,
                    store,
                    "census",
                    seed=plan.seed,
                    include={"negotiation", "settings", "ping"},
                    resilience=RESILIENCE,
                    config=LiveConfig(
                        concurrency=2,
                        timeout_scale=TIMEOUT_SCALE,
                        connect_timeout=1.0,
                    ),
                    resolver=fleet.resolver(),
                )
                assert result.counts["done"] == plan.sites
                # The bridge hands each close to its engine one link
                # delay after the socket closed.
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline and (
                    any(runtime.endpoints for runtime in runtimes)
                    or any(ref() is not None for ref in refs)
                ):
                    time.sleep(0.01)
                assert not any(runtime.endpoints for runtime in runtimes)
                assert refs and [ref() for ref in refs] == [None] * len(refs)
                assert collector_off.collect() < plan.sites


class TestVerdictDifferential:
    def test_live_verdicts_match_simulated_verdicts(self, fleet_campaign):
        """The fleet's healthy engines are seeded exactly like
        ``deploy_site``, so a simulated scan of the same Site must agree
        with the live scan on every behavioural field."""
        fleet = fleet_campaign["fleet"]
        store = fleet_campaign["store"]
        plan = fleet_campaign["plan"]
        healthy = healthy_sites(fleet)
        assert healthy
        for site in healthy:
            live = store.load("fleet", site.domain)
            simulated = scan_site(site, seed=plan.seed)
            assert verdict_view(live) == verdict_view(simulated), site.domain


class TestHighConcurrencyPool:
    """ISSUE 8: the pool on ONE shared asyncio loop at ``--concurrency``
    >= 256.  Wider than the population means every site is admitted at
    once — the stress case for the single-loop socket backend — and the
    politeness, high-water and verdict invariants must still hold."""

    HIGHC = max(256, int(os.environ.get("H2SCOPE_FLEET_CONCURRENCY", "0")))
    #: With every site in flight at once, all probes race for rate
    #: tokens simultaneously; the bucket must be sized for the pool or
    #: tail sites burn their probe budget queued at the politeness
    #: gate (the module campaign's 40/s starves healthy sites here).
    RATE = 400.0
    BURST = 64.0
    #: Trimmed probe set and a wider wall budget: with the whole
    #: population's session threads sharing one small CPU, the full
    #: probe battery starves tail waits of cycles (not of tokens) and
    #: healthy sites hit DeadlineExceeded spuriously.
    INCLUDE = {"negotiation", "settings", "ping", "hpack"}
    SCALE = 0.3

    @pytest.fixture(scope="class")
    def highc_campaign(self, tmp_path_factory):
        n_sites = 96 if SOAK else 32
        plan = FleetPlan(
            sites=n_sites, seed=29, refuse=1, stall=1, unresolvable=1
        )
        db = tmp_path_factory.mktemp("highc") / "campaign.db"
        metrics = LiveScanMetrics()
        with LoopbackFleet(plan) as fleet:
            with ReportStore(db) as store:
                with contact_tap() as tap:
                    run_live_campaign(
                        fleet.domains,
                        store,
                        "highc",
                        seed=plan.seed,
                        include=self.INCLUDE,
                        resilience=RESILIENCE,
                        config=LiveConfig(
                            concurrency=self.HIGHC,
                            per_host_gap=PER_HOST_GAP,
                            rate=self.RATE,
                            burst=self.BURST,
                            timeout_scale=self.SCALE,
                            connect_timeout=1.0,
                        ),
                        resolver=fleet.resolver(),
                        metrics=metrics,
                    )
                journal = CampaignJournal(store)
                yield {
                    "plan": plan,
                    "fleet": fleet,
                    "store": store,
                    "metrics": metrics,
                    "tap": tap,
                    "statuses": journal.statuses("highc"),
                }

    def test_pool_invariants_at_256_plus(self, highc_campaign):
        metrics = highc_campaign["metrics"]
        assert metrics.concurrency_high_water <= self.HIGHC
        # Wider pool than population: nothing ever queued behind the
        # pool, so overlap should reach well past a serial trickle.
        assert metrics.concurrency_high_water > 1
        assert metrics.in_flight == 0  # drained completely
        tap = highc_campaign["tap"]
        assert len(tap.grants) == len(tap.contacts)
        smallest = min_host_gap(tap.contacts)
        if smallest is not None:
            assert smallest >= PER_HOST_GAP - 1e-3
        assert (
            max_rate(tap.grants, window=1.0)
            <= self.BURST + self.RATE + 1
        )

    def test_every_site_reached_a_terminal_state(self, highc_campaign):
        statuses = highc_campaign["statuses"]
        assert len(statuses) == highc_campaign["plan"].sites
        assert all(
            status is not SiteStatus.PENDING
            for status, _ in statuses.values()
        )

    def test_healthy_verdicts_match_simulation(self, highc_campaign):
        fleet = highc_campaign["fleet"]
        store = highc_campaign["store"]
        plan = highc_campaign["plan"]
        healthy = healthy_sites(fleet)
        assert healthy
        for site in healthy:
            live = store.load("highc", site.domain)
            simulated = scan_site(site, seed=plan.seed, include=self.INCLUDE)
            assert verdict_view(live) == verdict_view(simulated), site.domain


#: Rebuilds the kill-fleet deterministically in a child process, scans
#: it, and SIGKILLs itself once the journal has absorbed ``cut`` sites.
KILL_SCRIPT = """
import os, signal, sys
from repro.scope import campaign
from repro.scope.live import LiveConfig, run_live_campaign
from repro.scope.resilience import ResilienceConfig
from repro.scope.storage import ReportStore
from repro.servers.fleet import FleetPlan, LoopbackFleet

db, cut = sys.argv[1], int(sys.argv[2])
plan = FleetPlan(sites=8, seed=23, refuse=1, unresolvable=1)
campaign.MAX_SITE_ATTEMPTS = 1  # one scan a site, as run_kill_campaign

def kill(progress):
    if progress.done >= cut:
        os.kill(os.getpid(), signal.SIGKILL)

with LoopbackFleet(plan) as fleet:
    with ReportStore(db) as store:
        run_live_campaign(
            fleet.domains, store, "kill", seed=plan.seed,
            include={"negotiation", "settings", "ping", "hpack"},
            resilience=ResilienceConfig(timeout=40.0, retries=1),
            config=LiveConfig(concurrency=4, timeout_scale=0.15,
                              connect_timeout=1.0),
            resolver=fleet.resolver(), checkpoint_every=2, progress=kill,
        )
sys.exit(3)  # SIGKILL never fired: the harness is broken
"""

KILL_PLAN = FleetPlan(sites=8, seed=23, refuse=1, unresolvable=1)
KILL_INCLUDE = {"negotiation", "settings", "ping", "hpack"}


def one_scan_a_site():
    """The kill campaigns' attempt budget: a failed site is quarantined
    at once, so every pass scans each site at most once."""
    return mock.patch.object(campaign_module, "MAX_SITE_ATTEMPTS", 1)


def run_kill_campaign(store, resume: bool) -> dict:
    """One (possibly resuming) pass over a fresh kill-plan fleet.

    Every pass builds its own fleet: engines are freshly seeded per
    domain, and resumed sites are each probed exactly once from a fresh
    engine — the precondition for verdict-level convergence.
    """
    with one_scan_a_site(), LoopbackFleet(KILL_PLAN) as fleet:
        run_live_campaign(
            fleet.domains,
            store,
            "kill",
            seed=KILL_PLAN.seed,
            include=KILL_INCLUDE,
            resilience=ResilienceConfig(timeout=40.0, retries=1),
            config=LiveConfig(
                concurrency=4, timeout_scale=0.15, connect_timeout=1.0
            ),
            resolver=fleet.resolver(),
            checkpoint_every=2,
            resume=resume,
        )
    journal = CampaignJournal(store)
    statuses = journal.statuses("kill")
    verdicts = {
        domain: verdict_view(store.load("kill", domain))
        for domain, (status, _) in statuses.items()
        if status is SiteStatus.DONE
    }
    return {
        "statuses": {
            domain: status.value for domain, (status, _) in statuses.items()
        },
        "verdicts": verdicts,
        "dns": journal.dns_failures("kill"),
    }


class TestKillResumeConvergence:
    def test_sigkilled_campaign_resumes_to_the_same_report(self, tmp_path):
        src = str(Path(__file__).resolve().parents[2] / "src")

        baseline_db = tmp_path / "baseline.db"
        with ReportStore(baseline_db) as store:
            baseline = run_kill_campaign(store, resume=False)

        killed_db = tmp_path / "killed.db"
        proc = subprocess.run(
            [sys.executable, "-c", KILL_SCRIPT, str(killed_db), "3"],
            env={**os.environ, "PYTHONPATH": src},
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL

        with ReportStore(killed_db) as store:
            journal = CampaignJournal(store)
            flushed = sum(
                1
                for status, _ in journal.statuses("kill").values()
                if status is not SiteStatus.PENDING
            )
            # SIGKILL loses at most the unflushed tail, never a torn row.
            assert 0 < flushed < KILL_PLAN.sites
            resumed = run_kill_campaign(store, resume=True)

        assert resumed["statuses"] == baseline["statuses"]
        assert resumed["dns"] == baseline["dns"]
        assert resumed["verdicts"].keys() == baseline["verdicts"].keys()
        for domain, verdict in baseline["verdicts"].items():
            assert resumed["verdicts"][domain] == verdict, domain


class TestInterruptedLiveCampaign:
    """A Ctrl-C midway (here raised from the progress callback) flushes
    the journal, ends the pool's threads and resumes to the verdicts an
    uninterrupted campaign reaches."""

    def test_interrupt_then_resume_matches_an_uninterrupted_run(self, tmp_path):
        def interrupt(progress):
            if progress.done >= 4:
                raise KeyboardInterrupt

        with ReportStore(tmp_path / "baseline.db") as store:
            baseline = run_kill_campaign(store, resume=False)

        with ReportStore(tmp_path / "interrupted.db") as store:
            with one_scan_a_site(), LoopbackFleet(KILL_PLAN) as fleet:
                with pytest.raises(CampaignInterrupted) as excinfo:
                    run_live_campaign(
                        fleet.domains,
                        store,
                        "kill",
                        seed=KILL_PLAN.seed,
                        include=KILL_INCLUDE,
                        resilience=ResilienceConfig(timeout=40.0, retries=1),
                        config=LiveConfig(
                            concurrency=4, timeout_scale=0.15, connect_timeout=1.0
                        ),
                        resolver=fleet.resolver(),
                        checkpoint_every=2,
                        progress=interrupt,
                    )
            assert excinfo.value.remaining > 0
            assert [
                thread.name
                for thread in threading.enumerate()
                if thread.name.startswith("h2scope-live")
            ] == []
            resumed = run_kill_campaign(store, resume=True)

        assert resumed == baseline
