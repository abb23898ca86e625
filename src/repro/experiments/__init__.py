"""Experiment runners — one per table/figure of the paper's evaluation.

Each module exposes a ``run(...)`` function returning an
:class:`~repro.experiments.common.ExperimentResult` whose ``text`` is a
printable reproduction of the table/figure and whose ``data`` holds the
raw numbers.  The benchmark harness under ``benchmarks/`` simply calls
these runners and prints the text; they are equally usable from the
examples and from a REPL.  The population-scan summaries
(:data:`SCAN_SUMMARIES`, ``fault_study``) are ``run() = population_scan
+ summarize(reports, ...)``, so ``h2scope scan`` can scan once and call
every ``summarize`` on the same reports.

:data:`EXPERIMENTS` is the index ``h2scope experiment`` reads:

"""

from __future__ import annotations

from importlib import import_module

from repro.experiments.common import ExperimentResult

__all__ = ["EXPERIMENTS", "SCAN_SUMMARIES", "load", "run_experiment"]

_SCAN = ("experiment", "n_sites", "seed")

#: CLI name → (module under ``repro.experiments`` — by name, so that
#: importing the package imports none of the sixteen; which of
#: ``experiment`` / ``n_sites`` / ``seed`` / ``visits`` its ``run()`` is
#: given, the rest keeping the module's defaults; the paper artefact).
EXPERIMENTS: dict[str, tuple[str, tuple[str, ...], str]] = {
    "table3": ("table3", ("seed",), "Table III (testbed feature matrix)"),
    "adoption": ("adoption", _SCAN, "§V-B1 (NPN / ALPN / HEADERS counts)"),
    "table4": ("table4", _SCAN, "Table IV (server families > 1,000 sites)"),
    "settings": ("settings_tables", _SCAN, "Tables V, VI, VII (SETTINGS values)"),
    "fig2": ("fig2", ("n_sites", "seed"), "Fig. 2 (MAX_CONCURRENT_STREAMS CDF)"),
    "flowcontrol": ("flowcontrol_scan", _SCAN, "§V-D (four flow-control scans)"),
    "priority": ("priority_scan", _SCAN, "§V-E (Algorithm 1 + self-dependency)"),
    "push": ("push_scan", _SCAN, "§V-F (push adoption)"),
    "fig3": ("fig3", ("visits", "seed"), "Fig. 3 (page load time, push on/off)"),
    "fig45": ("fig45", _SCAN, "Figs. 4-5 (HPACK ratio CDFs per server family)"),
    "fig6": ("fig6", ("seed",), "Fig. 6 (RTT: h2-ping vs icmp vs tcp vs http/1.1)"),
    "attacks": ("attacks_study", ("seed",), "§VI (DoS exposure and defences)"),
    "lossy": ("lossy_ablation", ("seed",), "§VI point 1 (one connection under loss)"),
    "dynamic-push": ("dynamic_push", ("seed",), "§VI point 4 (learned push manifest)"),
    "longitudinal": ("longitudinal", ("n_sites", "seed"), "§VIII (change report)"),
    "faults": ("fault_study", _SCAN, "scan resilience (failures under faults)"),
}

#: The summaries ``h2scope scan`` prints, in print order.
SCAN_SUMMARIES = ("adoption", "table4", "settings", "flowcontrol", "priority", "push")


def load(name: str):
    """Import and return the module behind an :data:`EXPERIMENTS` name."""
    return import_module(f"repro.experiments.{EXPERIMENTS[name][0]}")


def run_experiment(name: str, **values) -> ExperimentResult:
    """Run one experiment, picking its ``run()`` parameters out of ``values``."""
    _, parameters, _ = EXPERIMENTS[name]
    return load(name).run(**{key: values[key] for key in parameters})


__doc__ = (__doc__ or "") + "\n".join(  # None under -OO
    f"``{name}``".ljust(18) + f"``{module}``".ljust(22) + artefact
    for name, (module, _, artefact) in EXPERIMENTS.items()
)
