"""Chaos changes *whether* a site is measured, never *what* is measured.

The paper's Tables IV–VII are distributions over the sites that
answered.  Under a fault plan fewer sites answer — which ones is a
realisation of the plan (ISSUE 17 re-keyed the draws and so changed it)
— but a site that does complete a probe must report exactly what its
fault-free scan reports, so the tables computed over completing sites
are a subsample of the planted distributions under any keying.
"""

import pytest

from repro.experiments import fault_study
from repro.net.clock import Simulation
from repro.net.faults import FaultPlan
from repro.net.transport import Network
from repro.population.generator import PopulationConfig, make_population
from repro.scope.scanner import probe_target, scan_population, scan_site
from repro.scope.session import ProbeSession
from repro.servers.site import deploy_site
from tests.conftest import sim_session
from tests.scope.test_parallel import CHAOS_SPEC, PROBES, RESILIENCE


@pytest.fixture(scope="module")
def chaos_and_clean():
    """``(chaos report, fault-free report)`` per site, 466 sites."""
    sites = make_population(PopulationConfig(n_sites=400, seed=7))
    clean = scan_population(sites, include=PROBES, seed=7)
    chaos = scan_population(
        sites,
        include=PROBES,
        seed=7,
        fault_plan=FaultPlan.parse(CHAOS_SPEC, seed=5),
        resilience=RESILIENCE,
    )
    return list(zip(chaos, clean))


def failed_probes(report):
    return {error.probe for error in report.errors}


def test_completed_settings_probe_reports_the_fault_free_settings(chaos_and_clean):
    # The settings are read on the negotiation fetch, so the fetch
    # completed wherever the negotiation attempt did.
    completed = [
        (chaos, clean)
        for chaos, clean in chaos_and_clean
        if "negotiation" in chaos.probe_attempts
        and "negotiation" not in failed_probes(chaos)
    ]
    # 350 now; 309 while settings had a connection of their own; 270
    # while the negotiation fetch waited for its body; 202 with four
    # negotiation connections.
    assert len(completed) > 150
    for chaos, clean in completed:
        assert chaos.settings == clean.settings, chaos.domain


def test_site_that_returned_headers_reports_the_fault_free_server(chaos_and_clean):
    answered = [
        (chaos, clean)
        for chaos, clean in chaos_and_clean
        if chaos.negotiation.headers_received
    ]
    assert len(answered) > 150  # 294 now; 219 with four negotiation connections
    for chaos, clean in answered:
        assert clean.negotiation.headers_received, chaos.domain
        assert chaos.negotiation.server_header == clean.negotiation.server_header


@pytest.mark.xfail(
    strict=True,
    reason="known, recorded in ROADMAP item 6(a): a stall or blackhole on the "
    "fetch connection makes wait_for return False instead of raising, so "
    "negotiation ends without an error and without HEADERS (13 of 466 "
    "sites here; 16 while negotiation opened four connections, 14 before "
    "the fault draws were re-keyed); fixing it adds retries and moves "
    "sites_per_s, so it is its own issue",
)
def test_no_site_leaves_the_headers_population_without_an_error(chaos_and_clean):
    silent = [
        chaos.domain
        for chaos, clean in chaos_and_clean
        if clean.negotiation.headers_received
        and not chaos.negotiation.headers_received
        and "negotiation" not in failed_probes(chaos)
    ]
    assert silent == []


def mute_site_verdicts(resilience=None):
    """``(alpn_h2, npn_h2, headers_received)`` of the first site that
    negotiates h2 and then never answers (§V-B's gap), seed 7."""
    sites = make_population(PopulationConfig(n_sites=40, seed=7))
    mute = next(site for site in sites if site.profile.h2_unresponsive)
    report = scan_site(mute, include={"negotiation"}, seed=7, resilience=resilience)
    result = report.negotiation
    return result.alpn_h2, result.npn_h2, result.headers_received


def test_mute_site_negotiates_h2_and_sends_no_headers():
    assert mute_site_verdicts() == (True, True, False)


def test_mute_site_keeps_its_negotiation_verdict_under_resilience():
    # The fetch's HEADERS wait ends at the per-attempt deadline, and no
    # body wait follows it to raise, so the handshakes' verdicts stand.
    resilient = mute_site_verdicts(resilience=fault_study.RESILIENCE)
    assert resilient == mute_site_verdicts()


def test_a_mute_site_ends_its_scan_at_negotiation(monkeypatch):
    # Every §V table reads the sites that returned HEADERS, so a site
    # that sent none runs no later group: no attempt is spent waiting on
    # a server that never answers, no error is recorded for it, and the
    # header-block link is not left open for a group that will not come.
    sites = make_population(PopulationConfig(n_sites=40, seed=7))
    mute = next(site for site in sites if site.profile.h2_unresponsive)
    network = Network(Simulation(), seed=7)
    deploy_site(network, mute)
    clients = []
    real_client = ProbeSession.client

    def client(self, domain, **kwargs):
        clients.append(real_client(self, domain, **kwargs))
        return clients[-1]

    monkeypatch.setattr(ProbeSession, "client", client)
    report = probe_target(
        sim_session(network),
        mute.domain,
        seed=7,
        resilience=fault_study.RESILIENCE,
        known_paths=mute.website,
    )
    assert report.speaks_h2 and not report.negotiation.headers_received
    assert report.probe_attempts == {"negotiation": 1}
    assert report.errors == []
    assert all(c.endpoint is None or c.endpoint.closed for c in clients)
