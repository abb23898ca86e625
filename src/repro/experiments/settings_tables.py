"""Tables V, VI, VII — distributions of announced SETTINGS values.

NULL rows are sites that sent no SETTINGS frame at all (the identical
NULL count across the three tables is what identifies them); the
"unlimited" row of Table VII is sites whose SETTINGS omitted
MAX_HEADER_LIST_SIZE, for which the RFC default is unlimited.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.tables import format_table, scale_note
from repro.experiments.common import ExperimentResult, population_scan
from repro.h2.constants import SettingCode
from repro.population.distributions import experiment_data

PROBES = frozenset({"negotiation", "settings"})

IWS = int(SettingCode.INITIAL_WINDOW_SIZE)
MFS = int(SettingCode.MAX_FRAME_SIZE)
MHLS = int(SettingCode.MAX_HEADER_LIST_SIZE)


def _distribution(reports, identifier: int, absent_label: str) -> Counter:
    """Scanned value distribution for one SETTINGS parameter."""
    counts: Counter = Counter()
    for report in reports:
        if not report.negotiation.headers_received:
            continue
        if not report.settings.settings_frame_received:
            counts["NULL"] += 1
            continue
        value = report.settings.announced.get(identifier)
        counts[absent_label if value is None else value] += 1
    return counts


def _format_one(
    title: str,
    paper_counts: dict,
    measured: Counter,
    scale: float,
) -> str:
    keys: list = []
    for key in paper_counts:
        keys.append("NULL" if key is None else key)
    # Any measured value the paper didn't list gets its own row.
    for key in measured:
        if key not in keys:
            keys.append(key)

    def sort_key(k):
        return (0, 0) if k == "NULL" else (1, float("inf")) if isinstance(k, str) else (1, k)

    rows = []
    for key in sorted(keys, key=sort_key):
        paper_key = None if key == "NULL" else key
        paper_value = paper_counts.get(paper_key, 0)
        measured_value = measured.get(key, 0) / scale
        rows.append(
            [
                key,
                f"{paper_value:,}",
                f"{measured_value:,.0f}",
            ]
        )
    return format_table(["value", "paper", "measured (scaled)"], rows, title=title)


def run(experiment: int = 1, n_sites: int = 400, seed: int = 7) -> ExperimentResult:
    _, reports, scale = population_scan(experiment, n_sites, seed, PROBES)
    return summarize(reports, experiment, scale)


def summarize(reports, experiment: int, scale: float) -> ExperimentResult:
    """Tables V–VII from one scan's reports (any scan that ran ``PROBES``)."""
    data = experiment_data(experiment)

    iws = _distribution(reports, IWS, absent_label="(default 65,535)")
    mfs = _distribution(reports, MFS, absent_label="(default 16,384)")
    mhls = _distribution(reports, MHLS, absent_label="unlimited")

    text = _format_one(
        f"Table V — SETTINGS_INITIAL_WINDOW_SIZE, {data.label}",
        data.iws_counts,
        iws,
        scale,
    )
    text += "\n" + _format_one(
        f"Table VI — SETTINGS_MAX_FRAME_SIZE, {data.label}",
        data.mfs_counts,
        mfs,
        scale,
    )
    text += "\n" + _format_one(
        f"Table VII — SETTINGS_MAX_HEADER_LIST_SIZE, {data.label}",
        data.mhls_counts,
        mhls,
        scale,
    )
    text += scale_note(scale)
    return ExperimentResult(
        name="settings_tables",
        text=text,
        data={
            "experiment": experiment,
            "iws": dict(iws),
            "mfs": dict(mfs),
            "mhls": dict(mhls),
            "scale": scale,
        },
    )
