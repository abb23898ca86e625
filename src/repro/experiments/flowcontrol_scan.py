"""§V-D — the four flow-control scans at population scale.

Reproduces every count reported in Section V-D: the Sframe=1 response
categories (with the LiteSpeed attribution), zero-initial-window
HEADERS compliance, zero WINDOW_UPDATE reactions (including the sites
returning explanatory GOAWAY debug data), and the overflowing
WINDOW_UPDATE reactions at both scopes.
"""

from __future__ import annotations

from repro.analysis.tables import format_table, scale_note
from repro.experiments.common import (
    ExperimentResult,
    classify_server_header,
    paper_vs_measured_row,
    population_scan,
)
from repro.population.distributions import experiment_data
from repro.scope.report import ErrorReaction, TinyWindowResult

PROBES = frozenset({"negotiation", "flow_control"})


def run(experiment: int = 1, n_sites: int = 400, seed: int = 7) -> ExperimentResult:
    _, reports, scale = population_scan(experiment, n_sites, seed, PROBES)
    return summarize(reports, experiment, scale)


def summarize(reports, experiment: int, scale: float) -> ExperimentResult:
    """§V-D's counts from one scan's reports (any scan that ran ``PROBES``)."""
    data = experiment_data(experiment)
    responsive = [r for r in reports if r.negotiation.headers_received]

    tiny_sized = sum(
        1
        for r in responsive
        if r.flow_control.tiny_window is TinyWindowResult.WINDOW_SIZED_DATA
    )
    tiny_zero = sum(
        1
        for r in responsive
        if r.flow_control.tiny_window is TinyWindowResult.ZERO_LENGTH_DATA
    )
    tiny_none = sum(
        1
        for r in responsive
        if r.flow_control.tiny_window is TinyWindowResult.NO_RESPONSE
    )
    tiny_none_litespeed = sum(
        1
        for r in responsive
        if r.flow_control.tiny_window is TinyWindowResult.NO_RESPONSE
        and classify_server_header(r.negotiation.server_header) == "litespeed"
    )

    zero_headers_ok = sum(
        1 for r in responsive if r.flow_control.headers_with_zero_window
    )

    def count_reaction(attr: str, reaction: ErrorReaction) -> int:
        return sum(1 for r in responsive if getattr(r.flow_control, attr) is reaction)

    zero_rst = count_reaction("zero_update_stream", ErrorReaction.RST_STREAM)
    zero_goaway = count_reaction("zero_update_stream", ErrorReaction.GOAWAY)
    zero_ignore = count_reaction("zero_update_stream", ErrorReaction.IGNORE)
    zero_debug = sum(
        1 for r in responsive if r.flow_control.zero_update_debug_data
    )
    zero_conn_goaway = count_reaction("zero_update_connection", ErrorReaction.GOAWAY)

    large_stream_rst = count_reaction("large_update_stream", ErrorReaction.RST_STREAM)
    large_stream_none = len(responsive) - large_stream_rst
    large_conn_goaway = count_reaction(
        "large_update_connection", ErrorReaction.GOAWAY
    )

    rows = [
        paper_vs_measured_row(
            "Sframe=1: 1-byte DATA frames", data.tiny_window_sized, tiny_sized / scale
        ),
        paper_vs_measured_row(
            "Sframe=1: zero-length DATA", data.tiny_zero_length, tiny_zero / scale
        ),
        paper_vs_measured_row(
            "Sframe=1: no response", data.tiny_no_response, tiny_none / scale
        ),
        paper_vs_measured_row(
            "  ... of which LiteSpeed",
            data.tiny_no_response_litespeed,
            tiny_none_litespeed / scale,
        ),
        paper_vs_measured_row(
            "zero window: HEADERS returned (compliant)",
            data.zero_window_headers_ok,
            zero_headers_ok / scale,
        ),
        paper_vs_measured_row(
            "zero WU (stream): RST_STREAM", data.zero_wu_rst, zero_rst / scale
        ),
        paper_vs_measured_row(
            "zero WU (stream): not a stream error",
            data.zero_wu_not_error,
            (zero_ignore + zero_goaway) / scale,
        ),
        paper_vs_measured_row(
            "zero WU (stream): GOAWAY", data.zero_wu_goaway, zero_goaway / scale
        ),
        paper_vs_measured_row(
            "zero WU: explanatory debug data",
            data.zero_wu_goaway_debug,
            zero_debug / scale,
        ),
        paper_vs_measured_row(
            "large WU (connection): GOAWAY",
            data.large_wu_conn_goaway,
            large_conn_goaway / scale,
        ),
        paper_vs_measured_row(
            "large WU (stream): RST_STREAM",
            data.large_wu_stream_rst,
            large_stream_rst / scale,
        ),
        paper_vs_measured_row(
            "large WU (stream): no RST_STREAM",
            data.large_wu_stream_no_rst,
            large_stream_none / scale,
        ),
    ]
    text = format_table(
        ["flow-control scan (§V-D)", "paper", "measured (scaled)", "diff"],
        rows,
        title=f"Flow control at scale, {data.label} ({data.date})",
    )
    text += (
        f"zero WU (connection): GOAWAY from {zero_conn_goaway}/{len(responsive)} "
        "scanned sites (paper: 'nearly all the websites return connection error')\n"
    )
    text += scale_note(scale)
    return ExperimentResult(
        name="flowcontrol_scan",
        text=text,
        data={
            "experiment": experiment,
            "tiny": {
                "window_sized": tiny_sized,
                "zero_length": tiny_zero,
                "no_response": tiny_none,
                "no_response_litespeed": tiny_none_litespeed,
            },
            "zero_window_headers_ok": zero_headers_ok,
            "zero_wu": {
                "rst": zero_rst,
                "goaway": zero_goaway,
                "ignore": zero_ignore,
                "debug": zero_debug,
                "connection_goaway": zero_conn_goaway,
            },
            "large_wu": {
                "stream_rst": large_stream_rst,
                "stream_none": large_stream_none,
                "connection_goaway": large_conn_goaway,
            },
            "responsive": len(responsive),
            "scale": scale,
        },
    )
