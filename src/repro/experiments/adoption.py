"""§V-B1 — HTTP/2 adoption: NPN / ALPN / HEADERS counts.

The paper scanned the Alexa top 1M and counted how many sites speak
HTTP/2 via each negotiation mechanism and how many actually answer
requests with HEADERS frames.  The scan runs at a configurable scale
and extrapolates counts back to the paper's population.
"""

from __future__ import annotations

from repro.analysis.tables import format_table, scale_note
from repro.experiments.common import (
    ExperimentResult,
    paper_vs_measured_row,
    population_scan,
)
from repro.population.distributions import experiment_data

PROBES = frozenset({"negotiation"})


def run(experiment: int = 1, n_sites: int = 400, seed: int = 7) -> ExperimentResult:
    _, reports, scale = population_scan(experiment, n_sites, seed, PROBES)
    return summarize(reports, experiment, scale)


def summarize(reports, experiment: int, scale: float) -> ExperimentResult:
    """§V-B1's counts from one scan's reports (any scan that ran ``PROBES``)."""
    data = experiment_data(experiment)

    npn = sum(1 for r in reports if r.negotiation.npn_h2)
    alpn = sum(1 for r in reports if r.negotiation.alpn_h2)
    headers = sum(1 for r in reports if r.negotiation.headers_received)

    rows = [
        paper_vs_measured_row("sites speaking h2 via NPN", data.npn_sites, npn / scale),
        paper_vs_measured_row(
            "sites speaking h2 via ALPN", data.alpn_sites, alpn / scale
        ),
        paper_vs_measured_row(
            "sites returning HEADERS", data.headers_sites, headers / scale
        ),
    ]
    text = format_table(
        ["metric", "paper", "measured (scaled)", "diff"],
        rows,
        title=f"Adoption (§V-B1), {data.label} ({data.date})",
    )
    text += scale_note(scale)
    return ExperimentResult(
        name="adoption",
        text=text,
        data={
            "experiment": experiment,
            "raw": {"npn": npn, "alpn": alpn, "headers": headers},
            "scaled": {
                "npn": npn / scale,
                "alpn": alpn / scale,
                "headers": headers / scale,
            },
            "paper": {
                "npn": data.npn_sites,
                "alpn": data.alpn_sites,
                "headers": data.headers_sites,
            },
        },
    )
