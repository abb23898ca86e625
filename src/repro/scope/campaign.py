"""Campaign journal: crash-safe, resumable population scans.

The paper's headline result rests on two Alexa top-1M scans run six
months apart (§IV-B, §V) — multi-day campaigns that in practice must
survive crashes, SIGINTs and misbehaving sites.  This module gives the
*campaign* the durability PR 1 gave individual sites:

* a :class:`CampaignManifest` pins everything that determines a scan's
  results (seed, probe set, fault-plan spec, population size and
  fingerprint, resilience budget) and is persisted next to the reports;
* a :class:`CampaignJournal` keeps one status row per site
  (``pending`` → ``done`` / ``failed`` / ``quarantined``) in the same
  SQLite database, updated in the *same transaction* as the report
  writes, so a checkpoint is atomic: after any crash the journal and
  the report table agree;
* resuming validates the requested configuration against the recorded
  manifest field by field and refuses on the first mismatch
  (:class:`ManifestMismatch`) — no silent partial overwrites;
* a circuit breaker: sites that keep producing error reports are
  retried across resumes until their attempt budget is exhausted, then
  ``quarantined`` and never rescanned.

Because every site is scanned in its own deterministic universe keyed
by ``(seed, site_index)``, a campaign interrupted at *any* point and
resumed produces byte-identical reports to an uninterrupted run — the
repo's durability contract, enforced by ``tests/scope/test_campaign.py``.
"""

from __future__ import annotations

import enum
import hashlib
import json
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from repro.net.faults import FaultPlan
from repro.scope.report import SiteReport
from repro.scope.resilience import ResilienceConfig
from repro.scope.storage import ReportStore

if TYPE_CHECKING:
    from repro.scope.parallel import SiteResult


class SiteStatus(enum.Enum):
    """Where one site stands within a campaign."""

    PENDING = "pending"
    DONE = "done"
    FAILED = "failed"
    QUARANTINED = "quarantined"


class CampaignError(RuntimeError):
    """Base class for campaign/journal usage errors."""


class CampaignExists(CampaignError):
    """A fresh run would overwrite an already-journaled campaign."""


class ManifestMismatch(CampaignError):
    """Resume requested with a configuration the journal contradicts."""

    def __init__(self, field_name: str, recorded: object, requested: object):
        self.field = field_name
        self.recorded = recorded
        self.requested = requested
        super().__init__(
            f"manifest mismatch on {field_name!r}: journal has "
            f"{recorded!r}, requested {requested!r}"
        )


class CampaignInterrupted(CampaignError):
    """The scan was interrupted; the journal has been flushed."""

    def __init__(self, campaign: str, flushed: int, remaining: int):
        self.campaign = campaign
        self.flushed = flushed
        self.remaining = remaining
        super().__init__(
            f"campaign {campaign!r} interrupted: {flushed} sites journaled "
            f"this run, {remaining} remaining"
        )


def population_fingerprint(domains: list[str]) -> str:
    """A stable, process-independent hash of the site list."""
    digest = hashlib.blake2b(
        "\n".join(domains).encode(), digest_size=8
    ).hexdigest()
    return digest


def _fault_fingerprint(plan: FaultPlan | None) -> str | None:
    if plan is None:
        return None
    return plan.spec if plan.spec is not None else repr(plan.rules)


@dataclass(frozen=True)
class CampaignManifest:
    """Everything that determines a campaign's results.

    Two runs with equal manifests are guaranteed (by per-site universe
    isolation) to produce byte-identical reports, which is why resume
    compares every field here before touching the journal.
    """

    campaign: str
    seed: int
    probes: tuple[str, ...]
    population_size: int
    population_hash: str
    fault_spec: str | None = None
    fault_seed: int | None = None
    timeout: float | None = None
    retries: int | None = None

    #: Fields compared on resume, in the order mismatches are reported.
    COMPARED = (
        "seed",
        "probes",
        "fault_spec",
        "fault_seed",
        "timeout",
        "retries",
        "population_size",
        "population_hash",
    )

    @classmethod
    def build(
        cls,
        campaign: str,
        domains: list[str],
        include: set[str],
        seed: int,
        fault_plan: FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> "CampaignManifest":
        return cls(
            campaign=campaign,
            seed=seed,
            probes=tuple(sorted(include)),
            population_size=len(domains),
            population_hash=population_fingerprint(domains),
            fault_spec=_fault_fingerprint(fault_plan),
            fault_seed=fault_plan.seed if fault_plan is not None else None,
            timeout=resilience.timeout if resilience is not None else None,
            retries=resilience.retries if resilience is not None else None,
        )

    def mismatch_against(self, requested: "CampaignManifest") -> str | None:
        """The first field where ``requested`` contradicts this manifest."""
        for name in self.COMPARED:
            if getattr(self, name) != getattr(requested, name):
                return name
        return None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, document: str) -> "CampaignManifest":
        data = json.loads(document)
        data["probes"] = tuple(data["probes"])
        return cls(**data)


@dataclass
class JournalEntry:
    """One scanned site's outcome, queued for the next checkpoint."""

    site_index: int
    domain: str
    status: SiteStatus
    attempts: int
    report: SiteReport
    virtual_time: float = 0.0
    error: str | None = None


@dataclass
class CampaignResult:
    """What one ``run_campaign`` invocation accomplished."""

    campaign: str
    total: int
    scanned: int  # sites scanned in this run
    skipped: int  # sites already terminal when this run started
    counts: dict[str, int] = field(default_factory=dict)
    virtual_seconds: float = 0.0


class CampaignJournal:
    """Per-site campaign state, stored alongside the reports.

    The journal shares the :class:`ReportStore`'s connection so a
    checkpoint (reports + status rows) is one SQLite transaction.
    """

    def __init__(self, store: ReportStore):
        self._store = store
        self._db = store.connection

    # -- lifecycle ---------------------------------------------------------

    def campaigns(self) -> list[str]:
        rows = self._db.execute(
            "SELECT campaign FROM campaigns ORDER BY campaign"
        ).fetchall()
        return [row[0] for row in rows]

    def manifest(self, campaign: str) -> CampaignManifest | None:
        row = self._db.execute(
            "SELECT manifest FROM campaigns WHERE campaign = ?", (campaign,)
        ).fetchone()
        if row is None:
            return None
        return CampaignManifest.from_json(row[0])

    def begin(self, manifest: CampaignManifest, domains: list[str]) -> None:
        """Record a fresh campaign: manifest plus one pending row per site."""
        if self.manifest(manifest.campaign) is not None:
            raise CampaignExists(
                f"campaign {manifest.campaign!r} is already journaled in "
                f"this database; resume it (--resume) or use a fresh --db"
            )
        with self._store.transaction() as db:
            db.execute(
                "INSERT INTO campaigns (campaign, manifest) VALUES (?, ?)",
                (manifest.campaign, manifest.to_json()),
            )
            db.executemany(
                "INSERT INTO campaign_sites (campaign, site_index, domain) "
                "VALUES (?, ?, ?)",
                [
                    (manifest.campaign, index, domain)
                    for index, domain in enumerate(domains)
                ],
            )

    def resume(
        self, requested: CampaignManifest, max_site_attempts: int
    ) -> None:
        """Validate a resume request and open the circuit breaker.

        Raises :class:`ManifestMismatch` naming the first field where the
        requested configuration contradicts the journal; flips failed
        sites whose attempt budget is spent to ``quarantined``.
        """
        recorded = self.manifest(requested.campaign)
        if recorded is None:
            raise CampaignError(
                f"no journaled campaign {requested.campaign!r} in this "
                f"database; run once without --resume first"
            )
        mismatch = recorded.mismatch_against(requested)
        if mismatch is not None:
            raise ManifestMismatch(
                mismatch, getattr(recorded, mismatch), getattr(requested, mismatch)
            )
        with self._store.transaction() as db:
            db.execute(
                "UPDATE campaign_sites SET status = ? "
                "WHERE campaign = ? AND status = ? AND attempts >= ?",
                (
                    SiteStatus.QUARANTINED.value,
                    requested.campaign,
                    SiteStatus.FAILED.value,
                    max_site_attempts,
                ),
            )

    # -- reading -----------------------------------------------------------

    def pending(
        self, campaign: str, max_site_attempts: int
    ) -> list[tuple[int, str, int, float]]:
        """Sites still owed work: ``(site_index, domain, attempts,
        virtual_time)`` rows.

        Pending sites have never completed; failed sites are retried as
        long as their attempt budget lasts (``virtual_time`` is what the
        last failed attempt cost).  Quarantined sites are out.
        """
        rows = self._db.execute(
            "SELECT site_index, domain, attempts, virtual_time "
            "FROM campaign_sites "
            "WHERE campaign = ? AND (status = ? OR (status = ? AND attempts < ?)) "
            "ORDER BY site_index",
            (
                campaign,
                SiteStatus.PENDING.value,
                SiteStatus.FAILED.value,
                max_site_attempts,
            ),
        ).fetchall()
        return rows

    def counts(self, campaign: str) -> dict[str, int]:
        """Status histogram with every status present (zeros included)."""
        counts = {status.value: 0 for status in SiteStatus}
        rows = self._db.execute(
            "SELECT status, COUNT(*) FROM campaign_sites "
            "WHERE campaign = ? GROUP BY status",
            (campaign,),
        ).fetchall()
        for status, count in rows:
            counts[status] = count
        return counts

    def dns_failures(self, campaign: str) -> int:
        """Sites whose journaled failure is DNS-classified.

        Matches on the ``[dns, attempts=N]`` suffix that
        :class:`~repro.scope.report.ScanError`'s string form puts into
        ``last_error`` — the journal stores the rendered error, so the
        class tag rides along without a schema change.
        """
        row = self._db.execute(
            "SELECT COUNT(*) FROM campaign_sites "
            "WHERE campaign = ? AND last_error LIKE '%[dns,%'",
            (campaign,),
        ).fetchone()
        return row[0] or 0

    def virtual_seconds(self, campaign: str) -> float:
        row = self._db.execute(
            "SELECT SUM(virtual_time) FROM campaign_sites WHERE campaign = ?",
            (campaign,),
        ).fetchone()
        return row[0] or 0.0

    def statuses(self, campaign: str) -> dict[str, tuple[SiteStatus, int]]:
        """Domain → (status, attempts), for tests and tooling."""
        rows = self._db.execute(
            "SELECT domain, status, attempts FROM campaign_sites "
            "WHERE campaign = ? ORDER BY site_index",
            (campaign,),
        ).fetchall()
        return {row[0]: (SiteStatus(row[1]), row[2]) for row in rows}

    # -- writing -----------------------------------------------------------

    def checkpoint(self, campaign: str, entries: list[JournalEntry]) -> None:
        """Flush one batch atomically: reports + status rows together."""
        if not entries:
            return
        with self._store.transaction() as db:
            for entry in entries:
                self._store.stage(campaign, entry.report)
                db.execute(
                    "UPDATE campaign_sites SET status = ?, attempts = ?, "
                    "virtual_time = ?, last_error = ? "
                    "WHERE campaign = ? AND site_index = ?",
                    (
                        entry.status.value,
                        entry.attempts,
                        entry.virtual_time,
                        entry.error,
                        campaign,
                        entry.site_index,
                    ),
                )


#: Scans a failing site gets, across resumes, before it is quarantined
#: (the circuit breaker).
MAX_SITE_ATTEMPTS = 3


class CampaignRun:
    """One journaled pass over a campaign: the loop every backend shares.

    Construction refuses a domain listed twice (reports are keyed by
    ``(campaign, domain)``, so the second would overwrite the first),
    validates the manifest (``begin`` for a fresh run, ``resume``
    otherwise) and lists the work still owed as
    :attr:`tasks`, in todo order.  The caller scans those tasks however
    its backend does and hands the results to :meth:`drive`, which
    classifies, batches, checkpoints and reports progress — so a
    simulated and a live campaign differ only in the order their
    results arrive (todo order for byte-identical stores, completion
    order for wall-clock scans).
    """

    def __init__(
        self,
        store: ReportStore,
        campaign: str,
        domains: list[str],
        include: set[str],
        seed: int,
        fault_plan: FaultPlan | None,
        resilience: ResilienceConfig | None,
        resume: bool,
    ):
        # Not at module level: parallel.py brings in multiprocessing,
        # which ``import repro.scope`` alone should not pay for.
        from repro.scope.parallel import SiteTask

        seen: set[str] = set()
        for domain in domains:
            if domain in seen:
                raise CampaignError(
                    f"campaign {campaign!r} lists {domain!r} twice; "
                    f"each domain is scanned and stored once"
                )
            seen.add(domain)
        self.journal = CampaignJournal(store)
        self.campaign = campaign
        self.total = len(domains)
        # Read here, not at import: a test may narrow the budget.
        self.max_site_attempts = MAX_SITE_ATTEMPTS
        manifest = CampaignManifest.build(
            campaign, domains, include, seed, fault_plan, resilience
        )
        if resume:
            self.journal.resume(manifest, self.max_site_attempts)
        else:
            self.journal.begin(manifest, domains)
        todo = self.journal.pending(campaign, self.max_site_attempts)
        self.tasks = [
            SiteTask(position, site_index, domain, prior_attempts)
            for position, (site_index, domain, prior_attempts, _) in enumerate(todo)
        ]
        #: What each retried site's previous attempt cost.
        self._prior_virtual = {
            site_index: virtual_time
            for site_index, _, prior_attempts, virtual_time in todo
            if prior_attempts
        }

    def drive(
        self,
        results: Iterable[SiteResult],
        checkpoint_every: int = 25,
        progress: Callable | None = None,
    ) -> CampaignResult:
        """Journal ``results`` (one per task, in any order) as they come.

        Flushes reports + journal rows every ``checkpoint_every`` sites
        in one transaction, and ticks ``progress`` with a
        :class:`~repro.scope.scanner.ScanProgress` after every site.  A
        ``KeyboardInterrupt``/``SystemExit`` raised anywhere in the loop
        — including inside ``results`` — flushes what was scanned so far
        and becomes :class:`CampaignInterrupted`.  Tearing down whatever
        produces ``results`` is the caller's job.
        """
        from repro.scope.scanner import ScanProgress, report_has_dns_error

        journal, campaign, total = self.journal, self.campaign, self.total
        counts = journal.counts(campaign)
        virtual_seconds = journal.virtual_seconds(campaign)
        dns_failures = journal.dns_failures(campaign)
        batch: list[JournalEntry] = []
        scanned = 0
        try:
            for result in results:
                task, report = result.task, result.report
                attempts = task.prior_attempts + 1
                dns_error = report_has_dns_error(report)
                if not report.failed:
                    status = SiteStatus.DONE
                elif dns_error:
                    # Unresolvable site: quarantine immediately, never retry.
                    status = SiteStatus.QUARANTINED
                    attempts = max(attempts, self.max_site_attempts)
                elif attempts >= self.max_site_attempts:
                    status = SiteStatus.QUARANTINED
                else:
                    status = SiteStatus.FAILED
                batch.append(
                    JournalEntry(
                        site_index=task.site_index,
                        domain=task.domain,
                        status=status,
                        attempts=attempts,
                        report=report,
                        virtual_time=report.scan_virtual_time,
                        error=str(report.errors[0]) if report.failed else None,
                    )
                )
                scanned += 1
                if task.prior_attempts > 0:  # a retried failure leaves 'failed'
                    counts[SiteStatus.FAILED.value] -= 1
                else:
                    counts[SiteStatus.PENDING.value] -= 1
                counts[status.value] += 1
                dns_failures += dns_error
                # The journal's total already holds a retried site's last
                # attempt, and this attempt's row will overwrite it.
                virtual_seconds += report.scan_virtual_time - self._prior_virtual.get(
                    task.site_index, 0.0
                )
                if len(batch) >= max(1, checkpoint_every):
                    journal.checkpoint(campaign, batch)
                    batch = []
                if progress is not None:
                    # ``done`` counts sites with a journaled terminal
                    # status, so a resume's first tick already credits
                    # everything scanned before the interrupt (retries of
                    # failed sites keep it flat, not double).
                    progress(
                        ScanProgress(
                            done=total - counts[SiteStatus.PENDING.value],
                            total=total,
                            errors=counts[SiteStatus.FAILED.value]
                            + counts[SiteStatus.QUARANTINED.value],
                            quarantined=counts[SiteStatus.QUARANTINED.value],
                            dns_failures=dns_failures,
                            virtual_seconds=virtual_seconds,
                        )
                    )
        except (KeyboardInterrupt, SystemExit):
            journal.checkpoint(campaign, batch)
            raise CampaignInterrupted(
                campaign, flushed=scanned, remaining=len(self.tasks) - scanned
            ) from None
        journal.checkpoint(campaign, batch)
        return CampaignResult(
            campaign=campaign,
            total=total,
            scanned=scanned,
            skipped=total - len(self.tasks),
            counts=journal.counts(campaign),
            virtual_seconds=virtual_seconds,
        )
