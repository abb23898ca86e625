"""Live campaign execution: a polite, bounded pool of socket probes.

The paper's headline scans walked the Alexa top-1M over the open
internet — a population with dead domains, slow resolvers, hosts that
reset mid-handshake, and hosts that must not be hammered.  PR 5's
:class:`~repro.net.socket_backend.SocketBackend` drives exactly one
real connection synchronously; this module is the campaign layer that
makes it survive (and be survivable by) a population:

* a **bounded pool**: a standard-library ``ThreadPoolExecutor`` of
  ``min(concurrency, sites)`` threads, each driving one in-flight
  :class:`~repro.scope.session.ProbeSession` on a backend of its own.
  A session's thread serves its own sockets inside its waits (one
  selector per backend), so no loop thread sits between a session and
  its sockets.  Probes are synchronous sans-IO drivers whose
  wall-clock time is dominated by network waits, so the exact probe
  code the simulator runs is reused unchanged (the determinism contract
  stays untouched).  The journal refuses a domain listed twice, so no
  two sessions ever probe one site;
* a **politeness layer**: each site's backend gets a connect ``gate``
  of its own (:class:`SiteGate`) holding the site's last contact
  instant for the minimum inter-contact gap, and every gate draws from
  one global token-bucket contact-rate limiter (:class:`TokenBucket`),
  so *every* TCP connect — including retry reconnects — pays the toll.
  The politeness state is one instant per site in flight and one
  bucket: nothing grows with the sites or connections of a campaign;
* a **DNS stage** (:class:`DnsStage`): a concurrent resolver pool with
  positive and negative caching that resolves every site's port 443
  ahead of probing, maps resolution failures onto
  :class:`~repro.scope.resilience.DnsFault` (``ErrorClass.DNS``), and
  quarantines unresolvable sites immediately — no connect attempts, no
  retry budget spent;
* **durability identical to the simulated path**: the very same
  journaled loop (:class:`~repro.scope.campaign.CampaignRun`), so
  ``--resume`` after a crash or SIGKILL skips completed sites and
  retries failed ones exactly as a simulated campaign does.  The one
  deliberate difference: results arrive — and checkpoints are written —
  in *completion* order (``as_completed``) rather than todo order —
  live wall-clock results are not byte-deterministic anyway, and
  completion order means a crash loses at most one unflushed batch
  instead of everything behind a stalled head-of-line site.

The pool's in-flight high-water mark (never above ``concurrency``) is
observable via :class:`LiveScanMetrics`.  The politeness guarantees —
consecutive contacts to a host are ``per_host_gap`` apart, and the
global contact rate is bounded by ``rate`` with ``burst`` slack — are
kept by the gates and the bucket, and the fleet tests observe them by
tapping the gates from outside while fault-injected workers hit
refusals, stalls and dead resolvers.
"""

from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field

from repro.net.socket_backend import SocketBackend, lookup
from repro.scope.campaign import CampaignResult, CampaignRun
from repro.scope.parallel import SiteResult, SiteTask
from repro.scope.report import ErrorClass, ScanError, SiteReport
from repro.scope.resilience import (
    DnsFault,
    ResilienceConfig,
    make_scan_error,
)
from repro.scope.scanner import _validate_include, probe_target
from repro.scope.session import ProbeSession
from repro.scope.storage import ReportStore


#: Report fields that depend on wall-clock measurement, not on server
#: behaviour: stripped by :func:`verdict_view` so live and simulated
#: scans of the same (seeded) origin can be compared verdict-for-verdict.
_WALL_CLOCK_FIELDS = (
    ("scan_virtual_time",),
    ("probe_attempts",),
    ("negotiation", "tcp_handshake_rtt"),
    ("ping", "tcp_rtt"),
    ("ping", "icmp_rtt"),
    ("ping", "h2_ping_rtt"),
    ("ping", "http1_rtt"),
)


def verdict_view(report) -> dict:
    """A wall-clock-independent projection of a :class:`SiteReport`.

    Everything a report says about *server behaviour* — negotiation
    outcomes, announced settings, flow-control reactions, scheduler
    classification, push, HPACK ratios — survives; RTT measurements and
    timing bookkeeping are dropped.  Two scans of identically seeded
    origins (one simulated, one over real sockets) must agree on this
    view; the loopback-fleet differential asserts exactly that.
    """
    view = asdict(report)
    for path in _WALL_CLOCK_FIELDS:
        node = view
        for key in path[:-1]:
            node = node.get(key) or {}
        node.pop(path[-1], None)
    return view


# ---------------------------------------------------------------------------
# Politeness: token bucket + per-site gate
# ---------------------------------------------------------------------------


class TokenBucket:
    """Global contact-rate limiter (thread-safe, blocking acquire).

    Classic token bucket: tokens refill at ``rate`` per second up to
    ``burst``; each contact costs one token, and :meth:`acquire` blocks
    the calling worker until one is available.  Guarantee: the number
    of grants inside any window of ``w`` seconds never exceeds
    ``burst + rate * w``.
    """

    def __init__(
        self,
        rate: float,
        burst: float | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, self.rate)
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._tokens = self.burst
        self._last = clock()

    def acquire(self) -> float:
        """Block until a token is free; returns the clock instant of the
        grant."""
        while True:
            with self._lock:
                now = self._clock()
                self._tokens = min(
                    self.burst, self._tokens + (now - self._last) * self.rate
                )
                self._last = now
                # The epsilon absorbs refill rounding (a 0.2s wait at
                # rate 5 can land at 0.99999999999999998 tokens).
                if self._tokens >= 1.0 - 1e-9:
                    self._tokens = max(0.0, self._tokens - 1.0)
                    return now
                shortfall = (1.0 - self._tokens) / self.rate
            # Floor the wait so the clock always advances, even when the
            # shortfall rounds below the clock's resolution.
            self._sleep(max(shortfall, 1e-6))


class SiteGate:
    """One site's connect gate: the per-host gap, then the global rate.

    A *contact* is one TCP connection attempt.  Calling the gate sleeps
    until the site's previous contact is at least ``gap`` seconds old,
    then takes a token from the shared ``bucket`` (when there is one),
    and stamps the contact at that instant, the moment the connect
    starts.  Each site's backend has a gate of its own: the journal
    refuses a domain listed twice and a site's probes run in sequence
    on one session thread, so a gate is never entered twice at once and
    contacts to one host never overlap.
    """

    __slots__ = ("gap", "bucket", "last", "_clock", "_sleep")

    def __init__(
        self,
        gap: float,
        bucket: TokenBucket | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ):
        self.gap = max(0.0, float(gap))
        self.bucket = bucket
        self._clock = clock
        self._sleep = sleep
        #: Clock instant of the site's latest contact.
        self.last: float | None = None

    def __call__(self, domain: str, port: int) -> None:
        if self.last is not None and self.gap > 0:
            wait = self.last + self.gap - self._clock()
            if wait > 0:
                self._sleep(wait)
        self.last = self._clock() if self.bucket is None else self.bucket.acquire()


# ---------------------------------------------------------------------------
# DNS stage
# ---------------------------------------------------------------------------


class DnsStage:
    """Concurrent name resolution with positive/negative caching.

    ``resolver`` follows the :class:`SocketBackend` convention: ``None``
    uses the system resolver (``socket.getaddrinfo``); a mapping or
    callable resolves ``(domain, port)`` to ``(host, port)`` or ``None``
    for "no such host" — the hermetic fleets inject their loopback
    mapping here.  Failures raise :class:`DnsFault` and are negatively
    cached so a dead domain costs exactly one lookup per campaign.
    """

    def __init__(self, resolver=None, workers: int = 16):
        self._resolver = resolver
        self.workers = max(1, int(workers))
        self._lock = threading.Lock()
        self._positive: dict[tuple[str, int], tuple[str, int]] = {}
        self._negative: dict[tuple[str, int], str] = {}

    # -- single lookups ----------------------------------------------------

    def _resolve_uncached(self, domain: str, port: int) -> tuple[str, int]:
        resolver = self._resolver
        if resolver is None:
            try:
                infos = socket.getaddrinfo(
                    domain, port, type=socket.SOCK_STREAM
                )
            except socket.gaierror as exc:
                raise DnsFault(f"{domain}: {exc}") from exc
            if not infos:
                raise DnsFault(f"{domain}: resolver returned no addresses")
            host, resolved_port = infos[0][4][:2]
            return (host, resolved_port)
        address = lookup(resolver, domain, port)
        if address is None:
            raise DnsFault(f"{domain}:{port}: no address")
        return address

    def resolve(self, domain: str, port: int = 443) -> tuple[str, int]:
        """Resolve one (domain, port), consulting and filling the caches."""
        key = (domain, port)
        with self._lock:
            if key in self._positive:
                return self._positive[key]
            if key in self._negative:
                raise DnsFault(self._negative[key])
        try:
            address = self._resolve_uncached(domain, port)
        except DnsFault as exc:
            with self._lock:
                self._negative[key] = str(exc)
            raise
        with self._lock:
            self._positive[key] = address
        return address

    # -- the pre-probe stage ----------------------------------------------

    def resolve_all(self, domains) -> dict[str, DnsFault | None]:
        """Resolve every domain's port 443 concurrently ahead of probing.

        Returns ``{domain: None}`` for resolvable sites and
        ``{domain: DnsFault}`` for ones the campaign must quarantine.
        Campaign probes dial port 443 only; a backend that needs another
        port resolves it on demand through :meth:`resolve`.
        """
        domains = list(dict.fromkeys(domains))  # stable de-dup
        results: dict[str, DnsFault | None] = {}
        if not domains:
            return results

        def one(domain: str) -> DnsFault | None:
            try:
                self.resolve(domain)
            except DnsFault as exc:
                return exc
            return None

        workers = min(self.workers, len(domains))
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="h2scope-dns"
        ) as pool:
            for domain, fault in zip(domains, pool.map(one, domains)):
                results[domain] = fault
        return results


# ---------------------------------------------------------------------------
# Metrics: the pool's counters
# ---------------------------------------------------------------------------


@dataclass
class LiveScanMetrics:
    """The pool's state: sessions in flight and their high-water mark.
    (The journal and ``ScanProgress`` count the DNS stage's sites.)"""

    in_flight: int = 0
    concurrency_high_water: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False
    )

    def session_started(self) -> None:
        with self._lock:
            self.in_flight += 1
            self.concurrency_high_water = max(
                self.concurrency_high_water, self.in_flight
            )

    def session_finished(self) -> None:
        with self._lock:
            self.in_flight -= 1


@dataclass(frozen=True)
class LiveConfig:
    """Pool/politeness knobs for one live campaign."""

    concurrency: int = 8
    #: Minimum seconds between contacts (TCP connects) to one host.
    per_host_gap: float = 0.0
    #: Global contact budget: token-bucket rate per second (None = off).
    rate: float | None = None
    burst: float | None = None
    dns_workers: int = 16
    timeout_scale: float = 1.0
    connect_timeout: float = 10.0


# ---------------------------------------------------------------------------
# The live campaign: DNS stage + polite pool feeding the shared journal loop
# ---------------------------------------------------------------------------


def _dns_quarantine_report(domain: str, fault: DnsFault) -> SiteReport:
    report = SiteReport(domain=domain)
    report.errors.append(
        ScanError(
            probe="dns",
            error_class=ErrorClass.DNS,
            exception=type(fault).__name__,
            message=str(fault),
            attempts=1,
        )
    )
    return report


class _LivePool:
    """A bounded, polite pool of socket probe sessions behind a DNS stage."""

    def __init__(
        self,
        include_set: set[str],
        seed: int,
        resilience: ResilienceConfig,
        config: LiveConfig,
        resolver,
        metrics: LiveScanMetrics,
    ):
        self.include_set = include_set
        self.seed = seed
        self.resilience = resilience
        self.config = config
        #: Pool width, floored at 1 like the simulated path's lane width:
        #: a zero-wide pool would start no worker and scan nothing.
        self.concurrency = max(1, int(config.concurrency))
        self.metrics = metrics
        self.dns = DnsStage(resolver=resolver, workers=config.dns_workers)
        self.bucket: TokenBucket | None = None
        if config.rate is not None:
            self.bucket = TokenBucket(config.rate, config.burst)
        self._executor: ThreadPoolExecutor | None = None

    # -- one session -------------------------------------------------------

    def _scan_one(self, task: SiteTask) -> SiteResult:
        report = SiteReport(domain=task.domain)
        backend = SocketBackend(
            resolver=self.dns.resolve,
            timeout_scale=self.config.timeout_scale,
            connect_timeout=self.config.connect_timeout,
            gate=SiteGate(self.config.per_host_gap, self.bucket),
        )
        self.metrics.session_started()
        started = time.monotonic()
        try:
            probe_target(
                ProbeSession(backend),
                task.domain,
                include=self.include_set,
                seed=self.seed,
                resilience=self.resilience,
                report=report,
            )
        except Exception as exc:  # noqa: BLE001 - a driver bug is recorded
            # like any probe failure, not raised into the campaign.
            report.errors.append(make_scan_error("live", exc))
        finally:
            # Live scans have no virtual clock: wall seconds spent on
            # this site stand in, feeding the journal and the ETA.
            report.scan_virtual_time = time.monotonic() - started
            backend.close()
            self.metrics.session_finished()
        return SiteResult(task, report)

    # -- the results -------------------------------------------------------

    def results(self, tasks: list[SiteTask]):
        """One :class:`SiteResult` per task: unresolvable sites first
        (quarantine reports straight from the DNS stage, no connect ever
        attempted), then the pool's scans in completion order."""
        resolution = self.dns.resolve_all([task.domain for task in tasks])
        scan_tasks = []
        for task in tasks:
            fault = resolution.get(task.domain)
            if fault is None:
                scan_tasks.append(task)
            else:
                yield SiteResult(task, _dns_quarantine_report(task.domain, fault))
        if not scan_tasks:
            return

        self._executor = ThreadPoolExecutor(
            max_workers=min(self.concurrency, len(scan_tasks)),
            thread_name_prefix="h2scope-live",
        )
        # The futures list is not bound to a name: as_completed lets go
        # of each future (and the report it holds) once it is yielded.
        for future in as_completed(
            [self._executor.submit(self._scan_one, task) for task in scan_tasks]
        ):
            yield future.result()

    def close(self) -> None:
        """Drop the queued sites and wait the in-flight sessions out
        (each is deadline-bounded), so no thread outlives the campaign."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)


def run_live_campaign(
    targets,
    store: ReportStore,
    campaign: str,
    include=None,
    seed: int = 0,
    resilience: ResilienceConfig | None = None,
    resume: bool = False,
    checkpoint_every: int = 25,
    config: LiveConfig | None = None,
    resolver=None,
    progress=None,
    metrics: LiveScanMetrics | None = None,
) -> CampaignResult:
    """Journaled live scan of ``targets`` over real TCP sockets.

    The wall-clock sibling of
    :func:`~repro.scope.scanner.run_campaign`: same journaled loop, same
    manifest validation, same resume/quarantine semantics — but sites
    are probed concurrently by a bounded pool with per-host politeness,
    global rate limiting, and a DNS pre-stage (see the module
    docstring), and journaled in completion order.  ``targets`` are
    domain strings (or anything with a ``.domain``).  ``resolver`` maps
    ``(domain, port)`` to real addresses for hermetic fleets; ``None``
    uses the system resolver.
    """
    include_set = _validate_include(include)
    # Live probes always run under deadlines: a stalled peer must be
    # cut off at its budget, not at TCP's.
    resilience = resilience or ResilienceConfig()
    run = CampaignRun(
        store,
        campaign,
        [getattr(target, "domain", target) for target in targets],
        include_set,
        seed,
        None,
        resilience,
        resume,
    )
    pool = _LivePool(
        include_set,
        seed,
        resilience,
        config or LiveConfig(),
        resolver,
        metrics if metrics is not None else LiveScanMetrics(),
    )
    try:
        return run.drive(pool.results(run.tasks), checkpoint_every, progress)
    finally:
        pool.close()
