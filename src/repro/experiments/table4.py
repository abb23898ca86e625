"""Table IV — server families used by more than 1,000 sites.

Parses the ``server`` response header from every HEADERS-returning site
(the paper notes the value is self-reported and spoofable, so this is a
"big picture" classification) and compares per-family counts with the
published table for the chosen experiment.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.tables import format_table, scale_note
from repro.experiments.common import (
    ExperimentResult,
    classify_server_header,
    paper_vs_measured_row,
    population_scan,
)
from repro.population.distributions import experiment_data

PROBES = frozenset({"negotiation"})

#: Table IV display names.
FAMILY_LABELS = {
    "litespeed": "Litespeed",
    "nginx": "Nginx",
    "gse": "GSE",
    "tengine": "Tengine",
    "cloudflare-nginx": "cloudflare-nginx",
    "ideaweb": "IdeaWebServer/v0.80",
    "tengine-aserver": "Tengine/Aserver",
}


def run(experiment: int = 1, n_sites: int = 400, seed: int = 7) -> ExperimentResult:
    _, reports, scale = population_scan(experiment, n_sites, seed, PROBES)
    return summarize(reports, experiment, scale)


def summarize(reports, experiment: int, scale: float) -> ExperimentResult:
    """Table IV from one scan's reports (any scan that ran ``PROBES``)."""
    data = experiment_data(experiment)

    counts: Counter[str] = Counter()
    distinct_headers: set[str] = set()
    for report in reports:
        if not report.negotiation.headers_received:
            continue
        header = report.negotiation.server_header
        if header:
            distinct_headers.add(header)
        counts[classify_server_header(header)] += 1

    rows = []
    for family, label in FAMILY_LABELS.items():
        paper_count = data.server_counts.get(family, 0)
        measured = counts.get(family, 0) / scale
        rows.append(paper_vs_measured_row(label, paper_count, measured))
    rows.append(
        paper_vs_measured_row(
            "distinct server kinds", data.server_kinds, len(distinct_headers) / 1
        )
    )

    text = format_table(
        ["Server name", "paper", "measured (scaled)", "diff"],
        rows,
        title=f"Table IV — server families, {data.label} ({data.date})",
    )
    text += scale_note(scale)
    text += (
        "\n(distinct kinds are reported unscaled: kind diversity saturates "
        "sub-linearly with population size)"
    )
    return ExperimentResult(
        name="table4",
        text=text,
        data={
            "experiment": experiment,
            "counts": dict(counts),
            "scaled": {k: v / scale for k, v in counts.items()},
            "distinct_kinds": len(distinct_headers),
            "paper": dict(data.server_counts),
        },
    )
