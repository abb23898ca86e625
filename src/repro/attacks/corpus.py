"""Labelled trace corpora for detector scoring (ISSUE 7 tentpole c).

The detector (:mod:`repro.analysis.detection`) is judged on traffic it
did not shape: *benign* connection timelines come from full probe-suite
scans of each vendor engine — including chaos-campaign scans where the
network itself resets, stalls and truncates connections — and *attack*
timelines come from battery runs with the abuse guards off, so each
attack plays out to its full length.

Everything is recorded server-side
(:class:`~repro.scope.trace.ConnectionTimeline`), deterministic in the
seed, and labelled with the attack profile's name (or ``None`` for
benign), which is exactly what
:func:`repro.analysis.detection.score_corpus` consumes.

The benign corpus is deliberately adversarial for a detector: the probe
suite announces tiny windows, sends deliberate protocol violations and
batches of PINGs, and chaos scans add mid-connection mutilation — a
naive rule set flags it readily.
"""

from __future__ import annotations

from repro.experiments.fault_study import RESILIENCE
from repro.net.faults import FaultPlan
from repro.scope.scanner import probe_target
from repro.scope.session import ProbeSession
from repro.scope.trace import ConnectionTimeline
from repro.servers.site import Site, serve_site
from repro.servers.vendors import VENDOR_FACTORIES

from repro.attacks.battery import run_battery

#: Chaos spec for the faulty benign scans: resets during the hello,
#: mid-response truncation and a recoverable stall.
CHAOS_SPEC = "reset:0.2,truncate(600):0.2,stall(1.5):0.2"


def benign_timelines(
    vendors: list[str] | None = None, seed: int = 0
) -> list[ConnectionTimeline]:
    """Probe-suite traffic against each vendor, frames recorded.

    One clean scan per vendor, plus one through a faulty network under
    the fault study's resilience.  Labels stay ``None``.
    """
    names = list(VENDOR_FACTORIES) if vendors is None else list(vendors)
    plans = [(None, None), (FaultPlan.parse(CHAOS_SPEC, seed=seed), RESILIENCE)]
    timelines: list[ConnectionTimeline] = []
    for vendor in names:
        for plan, policy in plans:
            site = Site(domain=f"{vendor}.corpus.test", profile=VENDOR_FACTORIES[vendor]())
            with serve_site(
                site, seed, record_frames=True, fault_plan=plan
            ) as (backend, server):
                session = ProbeSession(backend)
                probe_target(session, site.domain, seed=seed, resilience=policy)
                backend.sleep(1.0)
                timelines.extend(server.timelines)
    return timelines


def attack_timelines(
    vendors: list[str] | None = None, seed: int = 0, duration: float = 16.0
) -> list[ConnectionTimeline]:
    """Every battery profile's traffic, guards off, labelled with the
    profile's name."""
    matrix = run_battery(vendors, seed=seed, duration=duration, record_frames=True)
    return [timeline for result in matrix.results for timeline in result.timelines]


def build_corpus(
    vendors: list[str] | None = None, seed: int = 0, duration: float = 16.0
) -> list[ConnectionTimeline]:
    """Benign + attack timelines, ready for ``score_corpus``."""
    return benign_timelines(vendors, seed=seed) + attack_timelines(
        vendors, seed=seed, duration=duration
    )
