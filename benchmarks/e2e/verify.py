"""Output checks, all of them outside the timed regions.

One operation is one site of one campaign call.  It *fails* when it has
no stored report, is still ``pending``, carries a set-up, worker-crash or
other internal error, or — on the clean and live workloads — any error
at all.  The refusals, resets, stalls and truncations the chaos plan
plants are expected outcomes, not failures.  Anything wrong with the
stored campaign as a whole is a *problem* and makes the run incorrect.
No digest of report bytes is pinned here: a later correctness fix must
not need a benchmark edit.
"""

from __future__ import annotations

from repro.scope.campaign import CampaignJournal, SiteStatus
from repro.scope.report import ErrorClass

#: ``ScanError.probe`` values that name the scanner itself, not a probe.
INTERNAL_PROBES = frozenset({"setup", "scan", "worker"})


def failure_of(report, status: SiteStatus | None, any_error_fails: bool) -> str | None:
    """Why this site counts as a failed operation, or None."""
    if report is None:
        return "no stored report"
    if status is None or status is SiteStatus.PENDING:
        return "not journaled as finished"
    for error in report.errors:
        if error.probe in INTERNAL_PROBES or error.error_class is ErrorClass.FATAL:
            return f"internal error: {error}"
        if any_error_fails:
            return f"error on a fault-free site: {error}"
    return None


def check_call(store, campaign: str, sites, any_error_fails: bool):
    """``(failures, problems)`` for one campaign call's output."""
    journal = CampaignJournal(store)
    problems = []
    counts = journal.counts(campaign)
    if sum(counts.values()) != len(sites) or counts[SiteStatus.PENDING.value]:
        problems.append(f"{campaign}: journal counts {counts} for {len(sites)} sites")
    statuses = journal.statuses(campaign)
    reports = {report.domain: report for report in store.load_campaign(campaign)}
    failures = []
    for site in sites:
        status = statuses.get(site.domain, (None, 0))[0]
        why = failure_of(reports.get(site.domain), status, any_error_fails)
        if why is not None:
            failures.append(f"{campaign}/{site.domain}: {why}")
    return failures, problems


def documents(store, campaign: str) -> dict[str, str]:
    """Domain to the stored report text, exactly as SQLite holds it."""
    return dict(
        store.connection.execute(
            "SELECT domain, document FROM reports WHERE campaign = ?", (campaign,)
        )
    )


def differing(expected: dict[str, str], actual: dict[str, str], label: str) -> list[str]:
    """Problems for every site stored on both sides but not byte-equal.

    A site missing from one side is a failed operation of that call and is
    counted there.
    """
    return [
        f"{label}: stored report for {domain} differs from its first scan"
        for domain, document in expected.items()
        if domain in actual and actual[domain] != document
    ]
