"""The four workloads: which sites each one scans and with which options.

A workload is built from the ``--seed`` argument alone; the program sees
only the generated sites (or fleet targets) and its own public options.
The site order is shuffled with the seed because ``make_population``
appends its never-answering sites at the end of the list, and the
warm-up (the first 5 %) and the traced pass (the first 25 %) should see
the same mix as the whole campaign.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.net.faults import FaultPlan
from repro.population.generator import PopulationConfig, make_population
from repro.scope.live import LiveConfig, LiveScanMetrics, run_live_campaign
from repro.scope.resilience import ResilienceConfig
from repro.scope.scanner import run_campaign
from repro.servers.fleet import FleetPlan, LoopbackFleet

SHORT_PROBES = frozenset({"negotiation", "settings", "ping"})
CHAOS_PLAN = "refuse:0.1x6,reset:0.06x4,stall(30):0.05,truncate(400):0.05"
CHAOS_PLAN_SEED = 5
LIVE_SESSIONS = 2  # = nproc of the reference host


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str  # "sim" or "live"
    #: ``PopulationConfig.n_sites`` / ``FleetPlan.sites``: one timed call is
    #: one campaign over all of them.  The simulated ones are sized for a
    #: call of 3-4 s, five calls or more in a pass: one call in fifteen reads a
    #: tenth or more off on the reference host, and the median of two or
    #: three does not shed it (README.md, "What repeats").
    n_sites: int
    include: frozenset[str] | None = SHORT_PROBES
    chaos: bool = False
    concurrency: int = 1

    def build(self, seed: int, scale: float = 1.0):
        cls = LiveInputs if self.backend == "live" else SimInputs
        return cls(self, seed, max(20, round(self.n_sites * scale)))


class SimInputs:
    """A generated population scanned in private simulated universes."""

    def __init__(self, workload: Workload, seed: int, n_sites: int):
        self.workload = workload
        self.seed = seed
        start = time.perf_counter()
        self.sites = make_population(PopulationConfig(n_sites=n_sites, seed=seed))
        self.make_s = time.perf_counter() - start
        random.Random(seed).shuffle(self.sites)
        self.fault_plan = None
        self.resilience = None
        if workload.chaos:
            self.fault_plan = FaultPlan.parse(CHAOS_PLAN, seed=CHAOS_PLAN_SEED)
            self.resilience = ResilienceConfig(timeout=10.0, retries=1)

    def scan(self, store, campaign: str, sites, *, serial=False, progress=None):
        workload = self.workload
        return run_campaign(
            sites,
            store,
            campaign,
            include=workload.include,
            seed=self.seed,
            fault_plan=self.fault_plan,
            resilience=self.resilience,
            workers=1,
            concurrency=1 if serial else workload.concurrency,
            checkpoint_every=25,
            progress=progress,
        )

    def close(self) -> None:
        pass


class LiveInputs:
    """In-process vendor engines behind real TCP listeners on loopback."""

    def __init__(self, workload: Workload, seed: int, n_sites: int):
        self.workload = workload
        self.seed = seed
        start = time.perf_counter()
        # 2 ms, not the 20 ms test default: at 20 ms nine tenths of the
        # wall is sleep and no change to the code could show.
        self.fleet = LoopbackFleet(
            FleetPlan(sites=n_sites + n_sites // 6, seed=seed, link_rtt=0.002)
        )
        self.make_s = time.perf_counter() - start
        # One site in forty never sends SETTINGS, and every probe of it
        # sleeps out its timeout: 3.7 s of one session that no change to
        # the code can move.  Seed 7 draws none in 120 sites (7.7 s a
        # pass), seeds 2 and 3 draw five (16.5 s), so they are left out.
        sites = [site for site in self.fleet.sites if site.profile.send_settings_frame]
        random.Random(seed).shuffle(sites)
        self.sites = sites[:n_sites]
        self.resolver = self.fleet.resolver()
        self.metrics = LiveScanMetrics()

    def scan(self, store, campaign: str, sites, *, serial=False, progress=None):
        return run_live_campaign(
            [site.domain for site in sites],
            store,
            campaign,
            include=self.workload.include,
            seed=self.seed,
            resilience=ResilienceConfig(timeout=40.0, retries=1),
            config=LiveConfig(
                concurrency=LIVE_SESSIONS, timeout_scale=0.15, dns_workers=2
            ),
            resolver=self.resolver,
            progress=progress,
            metrics=self.metrics,
        )

    def close(self) -> None:
        self.fleet.close()


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("sim_chaos", "sim", n_sites=1200, chaos=True),
        Workload("sim_clean_full", "sim", n_sites=160, include=None),
        Workload("sim_chaos_c64", "sim", n_sites=1200, chaos=True, concurrency=64),
        Workload("live_loopback", "live", n_sites=120),
    )
}
