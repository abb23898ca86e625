"""The population scanner (Section IV-B).

The paper's H2Scope scans with a poll()-based event loop and a thread
pool, one site per worker.  Here every site gets its own deterministic
simulation universe (clock + network + deployed origin), and
``workers`` shards those universes across real processes
(:mod:`repro.scope.parallel`): because a site's report is a pure
function of ``(seed + site_index)``, the merged results are
byte-identical for any worker count — the determinism contract
``tests/scope/test_parallel.py`` enforces.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.net.backend import SimulatedBackend
from repro.net.clock import Simulation
from repro.net.faults import FaultPlan
from repro.net.transport import Network
from repro.scope.campaign import CampaignResult, CampaignRun
from repro.scope.probes import (
    HeaderBlockLink,
    probe_flow_control,
    probe_hpack,
    probe_negotiation,
    probe_ping,
    probe_priority,
    probe_push,
    probe_self_dependency,
)
from repro.scope.report import ErrorClass, SettingsResult, SiteReport
from repro.scope.resilience import (
    ResilienceConfig,
    make_scan_error,
    run_resilient,
)
from repro.scope.session import ProbeSession
from repro.scope.storage import ReportStore
from repro.servers.site import Site, deploy_site
from repro.servers.website import PRIORITY_DEPLETION_PATHS, PRIORITY_TEST_PATHS


@dataclass(frozen=True)
class ProbePlan:
    """What a probe sequence fetches (DESIGN §8): flow control announces
    ``sframe`` and fetches ``/``, its update sub-probes and
    self-dependency block ``blocked_path`` (larger than ``sframe``), and
    Algorithm 1 plants ``test_paths`` after fetching ``depletion_paths``."""

    sframe: int
    blocked_path: str
    test_paths: tuple[str, ...]
    depletion_paths: tuple[str, ...]


#: The population scan's: Sframe = 1 (§V-D1) and the generated sites' objects.
SCAN_PLAN = ProbePlan(1, "/big.bin", PRIORITY_TEST_PATHS, PRIORITY_DEPLETION_PATHS)
#: Table III's, on the testbed's large objects: Sframe = 64 exceeds
#: LiteSpeed's HEADERS-hold threshold, so every vendor answers that row.
TESTBED_PLAN = ProbePlan(
    64,
    "/large/3.bin",
    tuple(f"/large/{i}.bin" for i in range(6)),
    tuple(f"/medium/{i}.bin" for i in range(4)),
)

#: Probe groups a scan can include.
ALL_PROBES = frozenset(
    {"negotiation", "settings", "flow_control", "priority", "push", "hpack", "ping"}
)


def _validate_include(include: Iterable[str] | None) -> set[str]:
    include_set = set(include) if include is not None else set(ALL_PROBES)
    unknown = include_set - ALL_PROBES
    if unknown:
        raise ValueError(
            f"unknown probes: {', '.join(sorted(unknown))} "
            f"(choose from {', '.join(sorted(ALL_PROBES))})"
        )
    if "settings" in include_set and "negotiation" not in include_set:
        # The settings are read on the negotiation fetch's connection.
        raise ValueError("probe 'settings' needs probe 'negotiation'")
    return include_set


def report_has_dns_error(report: SiteReport) -> bool:
    """Whether any of the report's errors is DNS-classified."""
    return any(
        getattr(error, "error_class", None) is ErrorClass.DNS
        for error in report.errors
    )


@dataclass(frozen=True)
class ScanProgress:
    """One progress tick: completion, failures and a virtual-time ETA."""

    done: int
    total: int
    #: Sites whose report carries errors (failed + quarantined so far).
    errors: int = 0
    quarantined: int = 0
    #: Sites whose failure was name resolution (a subset of ``errors``;
    #: only wall-clock campaigns with a DNS stage produce these).
    dns_failures: int = 0
    #: Cumulative virtual seconds spent across per-site universes.
    virtual_seconds: float = 0.0

    @property
    def remaining(self) -> int:
        return self.total - self.done


def probe_target(
    session: ProbeSession,
    domain: str,
    include: Iterable[str] | None = None,
    seed: int = 0,
    plan: ProbePlan = SCAN_PLAN,
    resilience: ResilienceConfig | None = None,
    known_paths=None,
    report: SiteReport | None = None,
) -> SiteReport:
    """Run the probe suite against one target over any backend.

    This is the backend-agnostic core of :func:`scan_site`: the
    session's backend decides whether the suite runs against a simulated
    universe or a real server over sockets, and ``plan`` what it fetches.
    ``known_paths``, when given, gates Algorithm 1 on the test objects
    actually existing on the target (the population scanner passes the
    site's website); when None the priority probe is attempted
    unconditionally.  The groups run in the order negotiation, push,
    hpack, ping, flow_control, priority, the first four on one
    header-block link; a site whose negotiation fetch received no
    HEADERS ends after negotiation.  If the session carries a
    :class:`~repro.scope.trace.TraceRecorder`, each probe's received
    frames are recorded under the name of the probe whose turn received
    them.
    """
    include_set = _validate_include(include)
    if report is None:
        report = SiteReport(domain=domain)

    # The header-block link (DESIGN §8): the negotiation fetch, push,
    # HPACK and ping's PINGs take their turns on it, in that order.  An
    # attempt keeps it open only when it returns and a later one of them
    # is included, so it never sits idle across another group's turns.
    link = HeaderBlockLink(session, domain)
    on_link = [
        name
        for name in ("negotiation", "push", "hpack", "ping")
        if name in include_set
    ]

    def holding_link(fn: Callable[[], None], keep: bool) -> Callable[[], None]:
        def attempt() -> None:
            held = False
            try:
                fn()
                held = keep
            finally:
                if not held:
                    link.close()

        return attempt

    def guarded(name: str, fn: Callable[[], None]) -> None:
        if name in on_link:
            fn = holding_link(fn, keep=name != on_link[-1])
        trace = session.trace
        if trace is not None:
            trace.begin(name)
        try:
            if resilience is None:
                try:
                    fn()
                except Exception as exc:  # noqa: BLE001 - scans survive anything
                    report.errors.append(make_scan_error(name, exc))
                return
            attempts, error = run_resilient(
                session.backend, name, fn, resilience, seed=seed
            )
            report.probe_attempts[name] = attempts
            if error is not None:
                report.errors.append(error)
        finally:
            if trace is not None:
                trace.end()

    if "negotiation" in include_set:
        # The settings probe reads the fetch connection's SETTINGS (DESIGN §8).
        settings = "settings" in include_set
        guarded(
            "negotiation",
            lambda: probe_negotiation(
                session,
                domain,
                link,
                report.fresh("negotiation"),
                report.fresh("settings") if settings else SettingsResult(),
            ),
        )
        # §V reads only the sites that sent HEADERS: the others end here.
        if not report.negotiation.headers_received:
            link.close()
            return report

    # Each attempt fills a fresh section of the report: a raised attempt
    # keeps what it read before it, and a retry starts empty (DESIGN §8).
    if "push" in include_set:
        guarded("push", lambda: probe_push(link, report.fresh("push")))

    if "hpack" in include_set:
        guarded("hpack", lambda: probe_hpack(link, report.fresh("hpack")))

    if "ping" in include_set:
        guarded(
            "ping", lambda: probe_ping(session, domain, link, report.fresh("ping"))
        )

    if "flow_control" in include_set:
        sframe, blocked = plan.sframe, plan.blocked_path
        guarded(
            "flow_control",
            lambda: probe_flow_control(
                session, domain, report.fresh("flow_control"), sframe, blocked
            ),
        )

    # Algorithm 1's orders exist only at its end: priority assigns them on
    # return, so a raised retry keeps the last attempt's (DESIGN §8).
    if "priority" in include_set:

        def run_priority() -> None:
            if known_paths is None or all(
                path in known_paths for path in plan.test_paths
            ):
                report.priority = probe_priority(
                    session, domain, plan.test_paths, plan.depletion_paths
                )
            report.priority.self_dependency = probe_self_dependency(
                session, domain, plan.blocked_path
            )

        guarded("priority", run_priority)

    return report


def scan_site(
    site: Site,
    include: Iterable[str] | None = None,
    seed: int = 0,
    plan: ProbePlan = SCAN_PLAN,
    fault_plan: FaultPlan | None = None,
    resilience: ResilienceConfig | None = None,
    backend_factory: Callable[[Network], object] | None = None,
) -> SiteReport:
    """Probe one site inside a fresh simulation universe.

    ``fault_plan`` injects deterministic network hostility into the
    universe; ``resilience`` runs every probe under a virtual-time
    deadline and retries transient failures with exponential backoff.
    Without ``resilience`` each probe runs once, with no deadline.

    ``backend_factory`` lets a scheduler substitute the universe's
    :class:`~repro.net.backend.SimulatedBackend` with its own wrapper
    (the interleaved backend from :mod:`repro.scope.concurrent`); the
    substitute must be observationally identical for this universe, so
    the report stays a pure function of ``(site, include, seed, plan,
    fault_plan, resilience)``.

    The universe ends with the call: on every way out its back-edges
    are cut, so reference counts free all but the report and the cyclic
    collector finds nothing.  Whoever kept what ``backend_factory``
    received or returned must not use it afterwards.
    """
    _validate_include(include)

    report = SiteReport(domain=site.domain)
    network = Network(Simulation(), seed=seed, fault_plan=fault_plan)
    # One session per universe, on the scheduler's backend if it has one.
    session = ProbeSession((backend_factory or SimulatedBackend)(network))
    server = None
    try:
        try:
            server = deploy_site(network, site)
        except Exception as exc:  # noqa: BLE001 - a poisoned site must not
            # abort the scan; record the setup failure and move on.
            report.errors.append(make_scan_error("setup", exc))
        else:
            probe_target(
                session,
                site.domain,
                include=include,
                seed=seed,
                plan=plan,
                resilience=resilience,
                known_paths=site.website,
                report=report,
            )
        report.scan_virtual_time = session.now
        return report
    finally:
        # The one teardown call site (DESIGN §8).
        if server is not None:
            server.close()
        network.close()


def scan_population(
    sites: list[Site],
    include: Iterable[str] | None = None,
    seed: int = 0,
    workers: int = 1,
    fault_plan: FaultPlan | None = None,
    resilience: ResilienceConfig | None = None,
) -> list[SiteReport]:
    """Scan every site; ``workers`` > 1 shards across processes, each
    scanning serially (processes buy wall clock).

    Sites are independent simulations seeded by ``(seed + index)``, so
    neither ordering nor sharding can affect results: reports come back
    in input order and are byte-identical for any worker count.
    Per-site isolation is total: any exception a site's setup or scan
    raises becomes an error-bearing :class:`SiteReport` instead of
    aborting the scan.
    """
    _validate_include(include)  # a caller bug, not a per-site failure
    from repro.scope.parallel import ParallelCampaignRunner, SiteTask

    runner = ParallelCampaignRunner(
        sites,
        workers=workers,
        include=include,
        seed=seed,
        fault_plan=fault_plan,
        resilience=resilience,
    )
    tasks = [
        SiteTask(position=index, site_index=index, domain=site.domain)
        for index, site in enumerate(sites)
    ]
    reports: list[SiteReport | None] = [None] * len(sites)
    for result in runner.iter_unordered(tasks):
        reports[result.task.site_index] = result.report
    return reports  # type: ignore[return-value] - every slot is filled


def run_campaign(
    sites: list[Site],
    store: ReportStore,
    campaign: str,
    include: Iterable[str] | None = None,
    seed: int = 0,
    fault_plan: FaultPlan | None = None,
    resilience: ResilienceConfig | None = None,
    resume: bool = False,
    checkpoint_every: int = 25,
    workers: int = 1,
    concurrency: int = 1,
    progress: Callable[[ScanProgress], None] | None = None,
) -> CampaignResult:
    """Journaled, crash-safe population scan.

    A streaming variant of :func:`scan_population`: results are flushed
    to ``store`` every ``checkpoint_every`` sites in one transaction
    (reports + journal rows together), so an interrupt or crash loses at
    most one unflushed batch of work — and loses it *recoverably*,
    because ``resume=True`` skips completed sites and retries failed
    ones with their original ``(seed + site_index)`` universe, making
    the merged reports byte-identical to an uninterrupted run.

    ``workers`` > 1 shards the pending sites across that many scan
    processes (:mod:`repro.scope.parallel`), each scanning serially:
    processes buy wall clock.  Otherwise ``concurrency`` > 1 keeps that
    many sessions in flight in this process as interleaved lanes
    (:mod:`repro.scope.concurrent`), which buy only a modeled makespan;
    no other entry point reaches them.  Either way this process stays
    the sole SQLite writer and journals completions in todo order, so
    the stored bytes are identical for any worker count, concurrency
    level, kill point and fault plan — and neither knob is part of the
    manifest, so a campaign may be resumed with different values.

    Failed sites are retried across resumes until
    :data:`~repro.scope.campaign.MAX_SITE_ATTEMPTS` is exhausted, then
    quarantined (the circuit breaker): their last report stays in the
    store, but no further scan time is spent.
    That bookkeeping — manifest, resume, classification, checkpoints,
    progress, interrupt flush — is
    :class:`~repro.scope.campaign.CampaignRun`'s, shared with
    :func:`~repro.scope.live.run_live_campaign`; this function only
    supplies the results, in todo order.

    Raises :class:`~repro.scope.campaign.CampaignInterrupted` on
    SIGINT/KeyboardInterrupt after flushing everything scanned so far,
    and :class:`~repro.scope.campaign.ManifestMismatch` when resuming
    with a configuration the journal contradicts.
    """
    include_set = _validate_include(include)
    from repro.scope.parallel import ParallelCampaignRunner

    run = CampaignRun(
        store,
        campaign,
        [site.domain for site in sites],
        include_set,
        seed,
        fault_plan,
        resilience,
        resume,
    )
    runner = ParallelCampaignRunner(
        sites,
        workers=workers,
        include=include_set,
        seed=seed,
        fault_plan=fault_plan,
        resilience=resilience,
        max_worker_crashes=run.max_site_attempts,
        concurrency=concurrency,
    )
    # iter_ordered releases completions in todo order, so the batches —
    # and therefore the journal's write sequence — are byte-identical
    # to a serial run's, whatever the workers are doing.
    results = runner.iter_ordered(run.tasks)
    try:
        return run.drive(results, checkpoint_every, progress)
    finally:
        results.close()  # tears the worker pool down on any exit path
