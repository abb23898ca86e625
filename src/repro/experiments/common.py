"""Shared infrastructure for experiment runners."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.faults import FaultPlan
from repro.population import PopulationConfig, make_population
from repro.scope.report import SiteReport
from repro.scope.resilience import ResilienceConfig
from repro.scope.scanner import scan_population
from repro.servers.site import Site


@dataclass
class ExperimentResult:
    """Output of one experiment runner."""

    name: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


#: In-process cache so several benchmarks can share one population scan.
_SCAN_CACHE: dict[tuple, tuple[list[Site], list[SiteReport], float]] = {}


def population_scan(
    experiment: int,
    n_sites: int,
    seed: int,
    include: frozenset[str],
    fault_plan: FaultPlan | None = None,
    resilience: ResilienceConfig | None = None,
) -> tuple[list[Site], list[SiteReport], float]:
    """Generate + scan a population once per (experiment, size, probes).

    Returns ``(sites, reports, scale)`` where ``scale`` converts
    generated-site counts into paper-population counts.  ``fault_plan``
    and ``resilience`` switch the scan into chaos mode: deterministic
    fault injection plus deadline/retry execution.  The scan is serial;
    ``h2scope scan --workers`` shards through
    :func:`~repro.scope.scanner.scan_population` itself.
    """
    key = (
        experiment,
        n_sites,
        seed,
        include,
        fault_plan.cache_key if fault_plan is not None else None,
        resilience,
    )
    if key not in _SCAN_CACHE:
        config = PopulationConfig(experiment=experiment, n_sites=n_sites, seed=seed)
        sites = make_population(config)
        reports = scan_population(
            sites,
            include=include,
            seed=seed,
            fault_plan=fault_plan,
            resilience=resilience,
        )
        _SCAN_CACHE[key] = (sites, reports, config.scale)
    return _SCAN_CACHE[key]


#: Map an observed Server header onto the paper's family names.
def classify_server_header(header: str | None) -> str:
    if not header:
        return "unknown"
    lowered = header.lower()
    if lowered.startswith("tengine/aserver"):
        return "tengine-aserver"
    if lowered.startswith("tengine"):
        return "tengine"
    if lowered.startswith("cloudflare-nginx"):
        return "cloudflare-nginx"
    if lowered.startswith("nginx"):
        return "nginx"
    if lowered.startswith("litespeed"):
        return "litespeed"
    if lowered.startswith("gse"):
        return "gse"
    if lowered.startswith("ideawebserver"):
        return "ideaweb"
    if lowered.startswith("h2o"):
        return "h2o"
    if lowered.startswith("nghttpd"):
        return "nghttpd"
    if lowered.startswith("apache"):
        return "apache"
    return "other"


def paper_vs_measured_row(
    label: str, paper: float, measured_scaled: float
) -> list[object]:
    """A standard comparison row with a relative-difference column."""
    if paper:
        rel = f"{(measured_scaled - paper) / paper * 100:+.1f}%"
    else:
        rel = "n/a"
    return [label, f"{paper:,}", f"{measured_scaled:,.0f}", rel]
