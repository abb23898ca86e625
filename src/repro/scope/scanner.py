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
    probe_hpack,
    probe_large_window_update,
    probe_negotiation,
    probe_ping,
    probe_priority,
    probe_push,
    probe_self_dependency,
    probe_settings,
    probe_tiny_window,
    probe_zero_window_headers,
    probe_zero_window_update,
)
from repro.scope.report import ErrorClass, SiteReport
from repro.scope.resilience import (
    ResilienceConfig,
    make_scan_error,
    run_resilient,
)
from repro.scope.session import ProbeSession
from repro.scope.storage import ReportStore
from repro.servers.site import Site, deploy_site

#: Probe groups a scan can include.
ALL_PROBES = frozenset(
    {"negotiation", "settings", "flow_control", "priority", "push", "hpack", "ping"}
)

#: Default object paths for Algorithm 1 against population sites; the
#: generator guarantees these exist on every generated site.
PRIORITY_TEST_PATHS = [f"/prio/{label}.bin" for label in "abcdef"]
PRIORITY_DEPLETION_PATHS = [f"/prio/deplete{i}.bin" for i in range(4)]


def _validate_include(include: Iterable[str] | None) -> set[str]:
    include_set = set(include) if include is not None else set(ALL_PROBES)
    unknown = include_set - ALL_PROBES
    if unknown:
        raise ValueError(f"unknown probes: {sorted(unknown)}")
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

    @property
    def eta_virtual_seconds(self) -> float:
        """Remaining virtual time, extrapolated from the per-site mean."""
        if self.done <= 0:
            return 0.0
        return self.virtual_seconds / self.done * self.remaining


class ProgressAggregator:
    """Order-independent progress accounting for sharded scans.

    Parallel workers complete sites in whatever order the scheduler
    produces, so ticks must be derived from *counters over completion
    events*, never from the index of the most recent result (the old
    serial assumption).  Feeding the same set of reports in any order
    yields the same final :class:`ScanProgress`, and every intermediate
    tick carries correct done/error/quarantine counts and a
    virtual-time ETA extrapolated from the per-site mean.
    """

    def __init__(
        self,
        total: int,
        done: int = 0,
        errors: int = 0,
        quarantined: int = 0,
        dns_failures: int = 0,
        virtual_seconds: float = 0.0,
    ):
        self.total = total
        self.done = done
        self.errors = errors
        self.quarantined = quarantined
        self.dns_failures = dns_failures
        self.virtual_seconds = virtual_seconds

    def record(self, report: SiteReport, quarantined: bool = False) -> None:
        """Fold one completed site in; callable in any completion order."""
        self.done += 1
        if report.failed:
            self.errors += 1
        if quarantined:
            self.quarantined += 1
        if report_has_dns_error(report):
            self.dns_failures += 1
        self.virtual_seconds += report.scan_virtual_time

    def snapshot(self) -> ScanProgress:
        return ScanProgress(
            done=self.done,
            total=self.total,
            errors=self.errors,
            quarantined=self.quarantined,
            dns_failures=self.dns_failures,
            virtual_seconds=self.virtual_seconds,
        )


def probe_target(
    session: ProbeSession,
    domain: str,
    include: Iterable[str] | None = None,
    seed: int = 0,
    priority_test_paths: list[str] | None = None,
    priority_depletion_paths: list[str] | None = None,
    resilience: ResilienceConfig | None = None,
    known_paths=None,
    report: SiteReport | None = None,
) -> SiteReport:
    """Run the probe suite against one target over any backend.

    This is the backend-agnostic core of :func:`scan_site`: the
    session's backend decides whether the suite runs against a simulated
    universe or a real server over sockets.  ``known_paths``, when
    given, gates Algorithm 1 on the test objects actually existing on
    the target (the population scanner passes the site's website); when
    None the priority probe is attempted unconditionally.  If the
    session carries a :class:`~repro.scope.trace.TraceRecorder`, each
    probe's received frames are recorded under the probe's name.
    """
    include_set = _validate_include(include)
    if report is None:
        report = SiteReport(domain=domain)

    def guarded(name: str, fn: Callable[[], None]) -> None:
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
        guarded(
            "negotiation",
            lambda: setattr(
                report, "negotiation", probe_negotiation(session, domain)
            ),
        )
        if not report.speaks_h2:
            return report

    if "settings" in include_set:
        guarded(
            "settings",
            lambda: setattr(report, "settings", probe_settings(session, domain)),
        )

    if "flow_control" in include_set:

        def run_flow_control() -> None:
            fc = report.flow_control
            fc.tiny_window, fc.first_data_size, _ = probe_tiny_window(
                session, domain, sframe=1
            )
            fc.headers_with_zero_window = probe_zero_window_headers(
                session, domain
            )
            fc.zero_update_stream, fc.zero_update_debug_data = (
                probe_zero_window_update(session, domain, level="stream")
            )
            fc.zero_update_connection, _ = probe_zero_window_update(
                session, domain, level="connection"
            )
            fc.large_update_stream = probe_large_window_update(
                session, domain, level="stream"
            )
            fc.large_update_connection = probe_large_window_update(
                session, domain, level="connection"
            )

        guarded("flow_control", run_flow_control)

    if "priority" in include_set:

        def run_priority() -> None:
            test_paths = priority_test_paths or PRIORITY_TEST_PATHS
            depletion = priority_depletion_paths or PRIORITY_DEPLETION_PATHS
            if known_paths is None or all(
                path in known_paths for path in test_paths
            ):
                report.priority = probe_priority(
                    session, domain, test_paths, depletion
                )
            report.priority.self_dependency = probe_self_dependency(
                session, domain
            )

        guarded("priority", run_priority)

    if "push" in include_set:
        guarded(
            "push",
            lambda: setattr(report, "push", probe_push(session, domain)),
        )

    if "hpack" in include_set:
        guarded(
            "hpack",
            lambda: setattr(report, "hpack", probe_hpack(session, domain)),
        )

    if "ping" in include_set:
        guarded(
            "ping",
            lambda: setattr(report, "ping", probe_ping(session, domain)),
        )

    return report


def scan_site(
    site: Site,
    include: Iterable[str] | None = None,
    seed: int = 0,
    priority_test_paths: list[str] | None = None,
    priority_depletion_paths: list[str] | None = None,
    fault_plan: FaultPlan | None = None,
    resilience: ResilienceConfig | None = None,
    backend_factory: Callable[[Network], object] | None = None,
) -> SiteReport:
    """Probe one site inside a fresh simulation universe.

    ``fault_plan`` injects deterministic network hostility into the
    universe; ``resilience`` runs every probe under a virtual-time
    deadline and retries transient failures with exponential backoff.
    Without ``resilience`` the legacy single-shot semantics apply.

    ``backend_factory`` lets a scheduler substitute the universe's
    :class:`~repro.net.backend.SimulatedBackend` with its own wrapper
    (the interleaved backend from :mod:`repro.scope.concurrent`); the
    substitute must be observationally identical for this universe, so
    the report stays a pure function of ``(site, include, seed,
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
                priority_test_paths=priority_test_paths,
                priority_depletion_paths=priority_depletion_paths,
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
    progress: Callable[[ScanProgress], None] | None = None,
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
    aborting the scan.  ``progress`` receives one order-independent
    :class:`ScanProgress` tick per completed site (in completion order,
    which under sharding is not input order) carrying error counts and
    a virtual-time ETA alongside ``(done, total)``.
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
    tracker = ProgressAggregator(total=len(sites))
    for result in runner.iter_unordered(tasks):
        reports[result.task.site_index] = result.report
        tracker.record(result.report)
        if progress is not None:
            progress(tracker.snapshot())
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
    max_site_attempts: int = 3,
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

    Failed sites are retried across resumes until ``max_site_attempts``
    is exhausted, then quarantined (the circuit breaker): their last
    report stays in the store, but no further scan time is spent.
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
        max_site_attempts,
    )
    runner = ParallelCampaignRunner(
        sites,
        workers=workers,
        include=include_set,
        seed=seed,
        fault_plan=fault_plan,
        resilience=resilience,
        max_worker_crashes=max_site_attempts,
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
