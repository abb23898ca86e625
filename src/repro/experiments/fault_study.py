"""Failure fractions under injected faults (scan-resilience study).

The paper's two Alexa scans silently absorb what every internet-scale
measurement absorbs: of 1M SYNs, hundreds of thousands of sites never
complete a handshake, stall, or reset mid-probe (§V-B's
negotiated-vs-HEADERS gap is one visible residue).  This study makes
that loss measurable in the reproduction: it scans a population with a
deterministic :class:`~repro.net.faults.FaultPlan` injecting refusals,
resets, stalls, blackholes, truncations and garbage, runs every probe
under the resilience layer (virtual-time deadlines, retry with
exponential backoff), and reports the resulting error taxonomy —
failure fractions by class, exception and probe, plus how many sites
were rescued by retries.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, population_scan
from repro.net.faults import FaultPlan
from repro.scope.report import format_error_taxonomy, summarize_errors
from repro.scope.resilience import ResilienceConfig

#: The default chaos mixture: mostly-transient refusals/resets capped so
#: retries can rescue them, plus uncapped stalls/blackholes/corruption.
DEFAULT_PLAN_SPEC = (
    "refuse:0.06x4,reset:0.04x2,stall(30):0.03,blackhole:0.02,"
    "truncate(400):0.04,garbage(96):0.04,hello-corrupt:0.02"
)

#: Probes exercised by the study (the connection-heavy subset; the
#: deadline math is identical for the rest).
PROBES = frozenset({"negotiation", "settings", "ping"})

#: The study's per-probe budget and retries; ``h2scope scan`` in chaos
#: mode starts from the same values.
RESILIENCE = ResilienceConfig(timeout=12.0, retries=2)


def run(experiment: int = 1, n_sites: int = 300, seed: int = 7) -> ExperimentResult:
    """Scan ``n_sites`` with injected faults; summarize the taxonomy."""
    plan = FaultPlan.load(DEFAULT_PLAN_SPEC, seed=seed)
    sites, reports, _ = population_scan(
        experiment, n_sites, seed, PROBES, fault_plan=plan, resilience=RESILIENCE
    )
    return summarize(reports, len(sites), experiment, seed, plan, RESILIENCE)


def summarize(
    reports,
    total_sites: int,
    experiment: int,
    seed: int,
    plan: FaultPlan | None,
    resilience: ResilienceConfig,
) -> ExperimentResult:
    """The error taxonomy of one chaos scan's reports."""
    taxonomy = summarize_errors(reports)

    rescued = sum(1 for r in reports if r.retried and not r.failed)
    lines = [
        f"Fault study — experiment {experiment}, {total_sites} sites, "
        f"seed {seed}",
        f"fault plan: {plan.spec if plan is not None else '(none)'}",
        f"resilience: timeout={resilience.timeout}s retries={resilience.retries} "
        "(virtual-time deadlines, exponential backoff)",
        "",
        format_error_taxonomy(taxonomy),
        "",
        f"  sites rescued by retry  {rescued} "
        "(transient failures, clean report after backoff)",
        f"  reports produced        {len(reports)}/{total_sites} "
        "(per-site isolation: one report per site, always)",
    ]
    return ExperimentResult(
        name="fault_study",
        text="\n".join(lines),
        data={
            "total_sites": taxonomy.total_sites,
            "failed_sites": taxonomy.failed_sites,
            "retried_sites": taxonomy.retried_sites,
            "rescued_sites": rescued,
            "failure_fraction": taxonomy.failure_fraction,
            "by_class": dict(taxonomy.by_class),
            "by_exception": dict(taxonomy.by_exception),
            "by_probe": dict(taxonomy.by_probe),
            "reports": reports,
        },
    )
