"""§V-F — server push adoption at population scale.

The paper received PUSH_PROMISE frames from just six front pages in the
first experiment and fifteen in the second, always for static asset
lists (javascript, css, figures).
"""

from __future__ import annotations

from repro.analysis.tables import format_table, scale_note
from repro.experiments.common import (
    ExperimentResult,
    paper_vs_measured_row,
    population_scan,
)
from repro.population.distributions import experiment_data

PROBES = frozenset({"negotiation", "push"})


def run(experiment: int = 1, n_sites: int = 400, seed: int = 7) -> ExperimentResult:
    _, reports, scale = population_scan(experiment, n_sites, seed, PROBES)
    return summarize(reports, experiment, scale)


def summarize(reports, experiment: int, scale: float) -> ExperimentResult:
    """§V-F's counts from one scan's reports (any scan that ran ``PROBES``)."""
    data = experiment_data(experiment)
    responsive = [r for r in reports if r.negotiation.headers_received]

    pushing = [r for r in responsive if r.push.push_received]
    pushed_kinds = sorted(
        {path.rsplit(".", 1)[-1] for r in pushing for path in r.push.promised_paths}
    )

    rows = [
        paper_vs_measured_row(
            "sites sending PUSH_PROMISE", data.push_sites, len(pushing) / scale
        ),
    ]
    text = format_table(
        ["push scan (§V-F)", "paper", "measured (scaled)", "diff"],
        rows,
        title=f"Server push adoption, {data.label} ({data.date})",
    )
    if pushed_kinds:
        text += (
            f"pushed object kinds: {', '.join(pushed_kinds)} "
            "(paper: 'javascript, css, figures, etc.')\n"
        )
    text += scale_note(scale)
    text += (
        "\n(at small scales the expected number of pushing sites is below 1; "
        "the generator plants them probabilistically at the paper's rate)"
    )
    return ExperimentResult(
        name="push_scan",
        text=text,
        data={
            "experiment": experiment,
            "pushing_sites": len(pushing),
            "pushed_paths": [p for r in pushing for p in r.push.promised_paths],
            "scale": scale,
        },
    )
