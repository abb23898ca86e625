"""Campaign durability: journaled checkpoint/resume (the keystone).

The contract this file enforces: a chaos-mode campaign killed at any
deterministic cut point and resumed produces byte-identical reports to
an uninterrupted run with the same seed and fault plan.  Per-site
universe isolation (seed + site_index) makes this provable.
"""

import json
import os
import re
import sqlite3

import pytest

from repro.net.faults import FaultPlan
from repro.population.generator import PopulationConfig, make_population
from repro.scope import campaign as campaign_module
from repro.scope.campaign import (
    CampaignError,
    CampaignExists,
    CampaignInterrupted,
    CampaignJournal,
    CampaignManifest,
    CampaignRun,
    ManifestMismatch,
    SiteStatus,
)
from repro.scope.live import LiveConfig, run_live_campaign
from repro.scope.resilience import ResilienceConfig
from repro.scope.scanner import ScanProgress, run_campaign
from repro.scope.storage import ReportStore, _encode
from repro.servers.fleet import REFUSE, FleetPlan, LoopbackFleet
from tests.support.readers import domains_with, eta_virtual_seconds

#: Hostile enough that some sites fail, some get rescued by retries.
CHAOS_SPEC = (
    "refuse:0.1x6,reset:0.06x4,stall(30):0.05,blackhole:0.04,"
    "truncate(400):0.05,garbage(96):0.05"
)
PROBES = {"negotiation", "settings", "ping"}
RESILIENCE = ResilienceConfig(timeout=10.0, retries=1)


def population(n_sites=40):
    return make_population(PopulationConfig(n_sites=n_sites, seed=11))


def chaos_kwargs(seed=3):
    return dict(
        include=PROBES,
        seed=seed,
        fault_plan=FaultPlan.parse(CHAOS_SPEC, seed=5),
        resilience=RESILIENCE,
    )


def serialize_campaign(store, campaign="camp"):
    """Stored reports, domain-sorted, as canonical JSON byte strings."""
    return [
        json.dumps(_encode(report), sort_keys=True)
        for report in store.load_campaign(campaign)
    ]


class KillAt:
    """Deterministic 'crash': raise SIGINT's exception at a cut point."""

    def __init__(self, cut):
        self.cut = cut

    def __call__(self, progress: ScanProgress) -> None:
        if progress.done >= self.cut:
            raise KeyboardInterrupt


@pytest.fixture(scope="module")
def chaos_sites():
    return population(40)


@pytest.fixture(scope="module")
def uninterrupted_baseline(chaos_sites, tmp_path_factory):
    path = tmp_path_factory.mktemp("baseline") / "base.db"
    with ReportStore(path) as store:
        run_campaign(
            chaos_sites, store, "camp", checkpoint_every=7, **chaos_kwargs()
        )
        return serialize_campaign(store)


class TestKillResumeEquivalence:
    @pytest.mark.parametrize("cut", [5, 17, 33])
    def test_killed_then_resumed_is_byte_identical(
        self, cut, chaos_sites, uninterrupted_baseline, tmp_path
    ):
        path = tmp_path / f"cut{cut}.db"
        with ReportStore(path) as store:
            with pytest.raises(CampaignInterrupted):
                run_campaign(
                    chaos_sites,
                    store,
                    "camp",
                    checkpoint_every=7,
                    progress=KillAt(cut),
                    **chaos_kwargs(),
                )
        # Reopen like a fresh process and resume to completion.
        with ReportStore(path) as store:
            flushed_before_resume = store.count("camp")
            assert flushed_before_resume >= cut  # the kill lost nothing
            result = run_campaign(
                chaos_sites,
                store,
                "camp",
                resume=True,
                checkpoint_every=7,
                **chaos_kwargs(),
            )
            assert result.counts["pending"] == 0
            # done sites are skipped outright; failed ones are retried.
            assert result.skipped == result.total - result.scanned
            merged = serialize_campaign(store)
        assert merged == uninterrupted_baseline

    def test_double_interrupt_then_resume(
        self, chaos_sites, uninterrupted_baseline, tmp_path
    ):
        path = tmp_path / "twice.db"
        with ReportStore(path) as store:
            with pytest.raises(CampaignInterrupted):
                run_campaign(
                    chaos_sites, store, "camp", checkpoint_every=7,
                    progress=KillAt(6), **chaos_kwargs(),
                )
            with pytest.raises(CampaignInterrupted):
                run_campaign(
                    chaos_sites, store, "camp", resume=True,
                    checkpoint_every=7, progress=KillAt(20), **chaos_kwargs(),
                )
            run_campaign(
                chaos_sites, store, "camp", resume=True, checkpoint_every=7,
                **chaos_kwargs(),
            )
            assert serialize_campaign(store) == uninterrupted_baseline

    def test_interrupt_flushes_journal(self, chaos_sites, tmp_path):
        path = tmp_path / "flush.db"
        with ReportStore(path) as store:
            with pytest.raises(CampaignInterrupted) as excinfo:
                run_campaign(
                    chaos_sites, store, "camp", checkpoint_every=100,
                    progress=KillAt(9), **chaos_kwargs(),
                )
        assert excinfo.value.flushed == 9
        # checkpoint_every is far larger than the cut: the flush on
        # interrupt must have journaled all 9 sites anyway.
        with ReportStore(path) as store:
            journal = CampaignJournal(store)
            counts = journal.counts("camp")
            terminal = (
                counts["done"] + counts["failed"] + counts["quarantined"]
            )
            assert terminal == 9
            assert store.count("camp") == 9


@pytest.mark.skipif(
    not os.environ.get("H2SCOPE_SOAK"),
    reason="interruption soak (set H2SCOPE_SOAK=1; run by the CI soak job)",
)
class TestInterruptionSoak:
    """CI-scale variant: 200-site chaos population, three cut points."""

    @pytest.mark.parametrize("cut", [40, 101, 180])
    def test_kill_resume_equivalence_200_sites(self, cut, tmp_path):
        sites = population(200)
        with ReportStore(tmp_path / "base.db") as store:
            run_campaign(
                sites, store, "camp", checkpoint_every=16, **chaos_kwargs()
            )
            baseline = serialize_campaign(store)
        path = tmp_path / "soak.db"
        with ReportStore(path) as store:
            with pytest.raises(CampaignInterrupted):
                run_campaign(
                    sites, store, "camp", checkpoint_every=16,
                    progress=KillAt(cut), **chaos_kwargs(),
                )
        with ReportStore(path) as store:
            run_campaign(
                sites, store, "camp", resume=True, checkpoint_every=16,
                **chaos_kwargs(),
            )
            assert serialize_campaign(store) == baseline


#: Runs a workers=4 chaos campaign and signals *itself* at a cut point:
#: SIGINT exercises the orchestrated interrupt path (exit 130), SIGKILL
#: the no-warning crash path.  Population and kwargs mirror the module
#: fixtures so the parent can resume and diff against its baseline.
PARALLEL_KILL_SCRIPT = f"""
import os, signal, sys
from repro.population.generator import PopulationConfig, make_population
from repro.net.faults import FaultPlan
from repro.scope.resilience import ResilienceConfig
from repro.scope.campaign import CampaignInterrupted
from repro.scope.scanner import run_campaign
from repro.scope.storage import ReportStore

db, cut, sig = sys.argv[1], int(sys.argv[2]), getattr(signal, sys.argv[3])
sites = make_population(PopulationConfig(n_sites=40, seed=11))

def kill(progress):
    if progress.done >= cut:
        os.kill(os.getpid(), sig)

with ReportStore(db) as store:
    try:
        run_campaign(
            sites, store, "camp", checkpoint_every=7, workers=4,
            progress=kill, include={{"negotiation", "settings", "ping"}},
            seed=3, fault_plan=FaultPlan.parse({CHAOS_SPEC!r}, seed=5),
            resilience=ResilienceConfig(timeout=10.0, retries=1),
        )
    except CampaignInterrupted:
        sys.exit(130)
sys.exit(3)  # neither signal fired: the test harness is broken
"""


class TestParallelKillResume:
    """ISSUE 3: sharded campaigns killed mid-flight must resume into
    byte-identical state, with the same or a different worker count."""

    @pytest.mark.parametrize(("cut", "resume_workers"), [(6, 4), (23, 1)])
    def test_interrupted_parallel_scan_resumes_byte_identical(
        self, cut, resume_workers, chaos_sites, uninterrupted_baseline, tmp_path
    ):
        path = tmp_path / f"par{cut}.db"
        with ReportStore(path) as store:
            with pytest.raises(CampaignInterrupted):
                run_campaign(
                    chaos_sites, store, "camp", checkpoint_every=7,
                    workers=4, progress=KillAt(cut), **chaos_kwargs(),
                )
        with ReportStore(path) as store:
            assert store.count("camp") >= cut  # the interrupt flushed
            run_campaign(
                chaos_sites, store, "camp", resume=True, checkpoint_every=7,
                workers=resume_workers, **chaos_kwargs(),
            )
            assert serialize_campaign(store) == uninterrupted_baseline

    @pytest.mark.parametrize(
        ("signame", "expected_rc", "cut", "resume_workers"),
        [
            ("SIGINT", 130, 9, 2),
            ("SIGINT", 130, 26, 4),
            ("SIGKILL", -9, 9, 4),
            ("SIGKILL", -9, 26, 1),
        ],
    )
    def test_signal_killed_parallel_scan_resumes_byte_identical(
        self,
        signame,
        expected_rc,
        cut,
        resume_workers,
        chaos_sites,
        uninterrupted_baseline,
        tmp_path,
    ):
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        db = tmp_path / f"{signame}{cut}.db"
        proc = subprocess.run(
            [sys.executable, "-c", PARALLEL_KILL_SCRIPT, str(db), str(cut),
             signame],
            env={"PYTHONPATH": src},
            timeout=120,
        )
        assert proc.returncode == expected_rc
        with ReportStore(db) as store:
            flushed = store.count("camp")
            # SIGINT flushes everything scanned; SIGKILL loses at most
            # the unflushed tail of one checkpoint batch — never a
            # torn or phantom row (WAL atomicity).
            assert 0 < flushed <= len(chaos_sites)
            if signame == "SIGINT":
                assert flushed >= cut
            run_campaign(
                chaos_sites, store, "camp", resume=True, checkpoint_every=7,
                workers=resume_workers, **chaos_kwargs(),
            )
            assert serialize_campaign(store) == uninterrupted_baseline


class TestCrossProcessDeterminism:
    def test_reports_identical_across_hash_seeds(self, tmp_path):
        """Resume happens in a NEW process; universes must not depend on
        Python's per-process string hashing (PYTHONHASHSEED)."""
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        script = (
            "from repro.population.generator import PopulationConfig, make_population\n"
            "from repro.net.faults import FaultPlan\n"
            "from repro.scope.resilience import ResilienceConfig\n"
            "from repro.scope.scanner import run_campaign\n"
            "from repro.scope.storage import ReportStore\n"
            "import sys\n"
            "sites = make_population(PopulationConfig(n_sites=8, seed=11))\n"
            "with ReportStore(sys.argv[1]) as store:\n"
            "    run_campaign(sites, store, 'camp', include={'negotiation', 'ping'},\n"
            "                 seed=3, fault_plan=FaultPlan.parse('refuse:0.2x2', seed=5),\n"
            "                 resilience=ResilienceConfig(timeout=8.0, retries=1))\n"
        )
        documents = []
        for hash_seed in ("1", "424242"):
            db = tmp_path / f"hs{hash_seed}.db"
            subprocess.run(
                [sys.executable, "-c", script, str(db)],
                check=True,
                env={"PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            )
            with ReportStore(db) as store:
                documents.append(serialize_campaign(store))
        assert documents[0] == documents[1]


class TestManifestGuards:
    def make_store(self, tmp_path, **kwargs):
        sites = population(6)
        store = ReportStore(tmp_path / "m.db")
        run_campaign(sites, store, "camp", **kwargs)
        return sites, store

    def test_resume_with_mismatched_seed_names_field(self, tmp_path):
        sites, store = self.make_store(
            tmp_path, include={"negotiation"}, seed=3
        )
        with store:
            with pytest.raises(ManifestMismatch) as excinfo:
                run_campaign(
                    sites, store, "camp", include={"negotiation"}, seed=4,
                    resume=True,
                )
        assert excinfo.value.field == "seed"
        assert "seed" in str(excinfo.value)

    def test_resume_with_mismatched_probes_names_field(self, tmp_path):
        sites, store = self.make_store(
            tmp_path, include={"negotiation"}, seed=3
        )
        with store:
            with pytest.raises(ManifestMismatch) as excinfo:
                run_campaign(
                    sites, store, "camp", include={"negotiation", "ping"},
                    seed=3, resume=True,
                )
        assert excinfo.value.field == "probes"

    def test_resume_with_mismatched_fault_plan_names_field(self, tmp_path):
        sites, store = self.make_store(
            tmp_path, include={"negotiation"}, seed=3
        )
        with store:
            with pytest.raises(ManifestMismatch) as excinfo:
                run_campaign(
                    sites, store, "camp", include={"negotiation"}, seed=3,
                    fault_plan=FaultPlan.parse("refuse:0.5"), resume=True,
                )
        assert excinfo.value.field == "fault_spec"

    def test_fresh_run_over_existing_campaign_refused(self, tmp_path):
        sites, store = self.make_store(
            tmp_path, include={"negotiation"}, seed=3
        )
        with store:
            with pytest.raises(CampaignExists):
                run_campaign(
                    sites, store, "camp", include={"negotiation"}, seed=3
                )

    def test_resume_without_journal_refused(self, tmp_path):
        sites = population(4)
        with ReportStore(tmp_path / "empty.db") as store:
            with pytest.raises(CampaignError, match="no journaled campaign"):
                run_campaign(
                    sites, store, "camp", include={"negotiation"}, seed=3,
                    resume=True,
                )

    def test_a_domain_listed_twice_is_refused_before_the_journal(
        self, tmp_path
    ):
        """Reports are keyed by ``(campaign, domain)``: a repeat would
        journal two sites done but store one report."""
        sites = population(3)
        repeated = sites[1].domain
        with ReportStore(tmp_path / "twice.db") as store:
            with pytest.raises(CampaignError, match=re.escape(f"{repeated!r} twice")):
                run_campaign(
                    sites + [sites[1]], store, "camp", include={"negotiation"},
                    seed=3,
                )
            assert CampaignJournal(store).campaigns() == []
            assert store.count("camp") == 0

    def test_manifest_roundtrips_through_json(self):
        manifest = CampaignManifest(
            campaign="camp",
            seed=3,
            probes=("negotiation", "ping"),
            population_size=44,
            population_hash="abcd",
            fault_spec="refuse:0.5",
            fault_seed=5,
            timeout=10.0,
            retries=1,
        )
        assert CampaignManifest.from_json(manifest.to_json()) == manifest


class TestCircuitBreaker:
    def test_persistent_failures_end_quarantined(self, tmp_path, monkeypatch):
        monkeypatch.setattr(campaign_module, "MAX_SITE_ATTEMPTS", 2)
        sites = population(4)
        kwargs = dict(
            include={"negotiation"},
            seed=3,
            fault_plan=FaultPlan.parse("refuse"),  # every connect, forever
            resilience=ResilienceConfig(timeout=5.0, retries=0),
        )
        path = tmp_path / "q.db"
        with ReportStore(path) as store:
            run_campaign(sites, store, "camp", **kwargs)
            journal = CampaignJournal(store)
            counts = journal.counts("camp")
            assert counts["failed"] == len(sites)  # attempt 1 of 2

            run_campaign(sites, store, "camp", resume=True, **kwargs)
            counts = journal.counts("camp")
            assert counts["quarantined"] == len(sites)
            assert counts["failed"] == counts["pending"] == 0

            # The circuit is open: nothing left to scan.
            result = run_campaign(sites, store, "camp", resume=True, **kwargs)
            assert result.scanned == 0
            # Quarantined sites keep their last error report.
            reports = store.load_campaign("camp")
            assert len(reports) == len(sites)
            assert all(report.failed for report in reports)

    def test_statuses_expose_attempt_counts(self, tmp_path):
        sites = population(4)
        kwargs = dict(
            include={"negotiation"},
            seed=3,
            fault_plan=FaultPlan.parse("refuse"),
            resilience=ResilienceConfig(timeout=5.0, retries=0),
        )
        with ReportStore(tmp_path / "a.db") as store:
            run_campaign(sites, store, "camp", **kwargs)
            statuses = CampaignJournal(store).statuses("camp")
            assert set(statuses) == {site.domain for site in sites}
            assert all(
                status is SiteStatus.FAILED and attempts == 1
                for status, attempts in statuses.values()
            )


class TestCampaignProgress:
    def test_progress_reports_errors_quarantine_and_eta(
        self, chaos_sites, tmp_path
    ):
        seen = []
        with ReportStore(tmp_path / "p.db") as store:
            run_campaign(
                chaos_sites, store, "camp", checkpoint_every=7,
                progress=seen.append, **chaos_kwargs(),
            )
        last = seen[-1]
        assert last.done == last.total == len(chaos_sites)
        assert last.errors > 0  # chaos bites
        assert last.quarantined >= 0
        assert last.virtual_seconds > 0
        assert eta_virtual_seconds(last) == 0.0
        mid = seen[len(seen) // 2]
        assert eta_virtual_seconds(mid) > 0
        assert [tick.done for tick in seen] == sorted(
            tick.done for tick in seen
        )

    def test_resume_progress_counts_prior_work_as_done(
        self, chaos_sites, tmp_path
    ):
        path = tmp_path / "r.db"
        with ReportStore(path) as store:
            with pytest.raises(CampaignInterrupted):
                run_campaign(
                    chaos_sites, store, "camp", checkpoint_every=7,
                    progress=KillAt(10), **chaos_kwargs(),
                )
        seen = []
        with ReportStore(path) as store:
            run_campaign(
                chaos_sites, store, "camp", resume=True, checkpoint_every=7,
                progress=seen.append, **chaos_kwargs(),
            )
        assert seen[0].done > 10 - 1  # completed sites skip straight to done
        assert seen[-1].done == len(chaos_sites)


    def test_virtual_seconds_agree_with_journal_across_resumes(self, tmp_path):
        """A retried site's previous attempt must leave the running
        total: the journal row it came from is overwritten, not added
        to.  (Both pre-unification loops double-counted it.)"""
        sites = make_population(PopulationConfig(n_sites=120, seed=3))
        kwargs = dict(
            include=PROBES,
            seed=3,
            fault_plan=FaultPlan.parse(
                "refuse:0.1x6,reset:0.06x4,stall(30):0.05,truncate(400):0.05",
                seed=5,
            ),
            resilience=RESILIENCE,
        )
        with ReportStore(tmp_path / "v.db") as store:
            journal = CampaignJournal(store)
            retried = 0
            for resume in (False, True, True):
                seen = []
                result = run_campaign(
                    sites, store, "camp", resume=resume,
                    progress=seen.append, **kwargs,
                )
                stored = journal.virtual_seconds("camp")
                assert result.virtual_seconds == pytest.approx(stored, rel=1e-9)
                assert seen[-1].virtual_seconds == pytest.approx(
                    stored, rel=1e-9
                )
                retried += result.scanned if resume else 0
            assert retried > 0  # the resumes really rescanned failures


class TestOneLoopForBothBackends:
    """The sim and live entry points feed the same journaled loop, so a
    failing site walks the same journal trajectory, and an interrupt
    raised by the result iterator mid-batch settles the same way."""

    @pytest.fixture(params=["sim", "live"])
    def entry(self, request):
        """``(run(store, **kw), total sites, always-failing domains)``."""
        if request.param == "sim":
            sites = population(5)
            kwargs = dict(
                include={"negotiation"},
                seed=3,
                fault_plan=FaultPlan.parse("refuse"),  # every connect, forever
                resilience=ResilienceConfig(timeout=5.0, retries=0),
            )

            def run(store, **kw):
                return run_campaign(sites, store, "camp", **kwargs, **kw)

            yield run, len(sites), {site.domain for site in sites}
            return
        plan = FleetPlan(sites=5, seed=13, refuse=1, link_rtt=0.002)
        with LoopbackFleet(plan) as fleet:

            def run(store, **kw):
                return run_live_campaign(
                    fleet.domains, store, "camp", include={"negotiation"},
                    seed=plan.seed,
                    resilience=ResilienceConfig(timeout=40.0, retries=0),
                    config=LiveConfig(
                        concurrency=2, timeout_scale=0.15, connect_timeout=1.0
                    ),
                    resolver=fleet.resolver(), **kw,
                )

            yield run, plan.sites, set(domains_with(fleet, REFUSE))

    def test_failure_trajectory_and_interrupt_arithmetic(
        self, entry, tmp_path, monkeypatch
    ):
        run, total, failing = entry
        assert failing
        with ReportStore(tmp_path / "walk.db") as store:
            journal = CampaignJournal(store)
            walk = []
            for resume in (False, True, True):
                result = run(store, resume=resume)
                statuses = journal.statuses("camp")
                walk.append({statuses[domain] for domain in failing})
                assert result.counts["done"] == total - len(failing)
            assert walk == [
                {(SiteStatus.FAILED, 1)},
                {(SiteStatus.FAILED, 2)},
                {(SiteStatus.QUARANTINED, 3)},
            ]
            assert run(store, resume=True).scanned == 0  # circuit open

        drive = CampaignRun.drive

        def interrupted_drive(self, results, *args, **kwargs):
            def cut():
                for seen, result in enumerate(results):
                    if seen == 3:
                        raise KeyboardInterrupt
                    yield result

            return drive(self, cut(), *args, **kwargs)

        monkeypatch.setattr(CampaignRun, "drive", interrupted_drive)
        with ReportStore(tmp_path / "cut.db") as store:
            with pytest.raises(CampaignInterrupted) as caught:
                run(store, checkpoint_every=2)
            assert (caught.value.flushed, caught.value.remaining) == (3, total - 3)
            # One full batch plus the half-filled one the interrupt flushed.
            counts = CampaignJournal(store).counts("camp")
            assert counts["pending"] == total - 3
            assert store.count("camp") == 3


class TestJournalCrashConsistency:
    def test_journal_and_reports_agree_after_interrupt(
        self, chaos_sites, tmp_path
    ):
        path = tmp_path / "agree.db"
        with ReportStore(path) as store:
            with pytest.raises(CampaignInterrupted):
                run_campaign(
                    chaos_sites, store, "camp", checkpoint_every=3,
                    progress=KillAt(11), **chaos_kwargs(),
                )
        db = sqlite3.connect(path)
        try:
            journaled = {
                row[0]
                for row in db.execute(
                    "SELECT domain FROM campaign_sites "
                    "WHERE campaign = 'camp' AND status != 'pending'"
                )
            }
            stored = {
                row[0]
                for row in db.execute(
                    "SELECT domain FROM reports WHERE campaign = 'camp'"
                )
            }
        finally:
            db.close()
        # The durability invariant: every journaled site has its report
        # and vice versa — checkpoints are atomic.
        assert journaled == stored
        assert len(journaled) == 11
