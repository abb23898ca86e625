"""Chaos soak: seeded fault plans over a generated population.

The acceptance bar for the resilient scan pipeline: whatever a seeded
random :class:`~repro.net.faults.FaultPlan` throws at a 200-site
population, ``scan_population`` returns exactly one report per site,
never raises, and identical seeds reproduce byte-identical reports.
"""

import json
from collections import Counter

import pytest

from repro.net.faults import FaultPlan
from repro.population.generator import PopulationConfig, make_population
from repro.scope.report import ErrorClass, summarize_errors
from repro.scope.resilience import ResilienceConfig
from repro.scope import scanner
from repro.scope.scanner import scan_population
from repro.scope.session import ProbeSession
from repro.scope.storage import _encode

#: A hostile mixture covering every fault kind; ``xN`` caps on the
#: transient kinds let retries rescue some sites (attempts > 1).
CHAOS_SPEC = (
    "refuse:0.08x6,reset:0.06x4,stall(30):0.04,blackhole:0.03,"
    "truncate(400):0.05,garbage(96):0.05,hello-corrupt:0.03"
)
PROBES = {"negotiation", "settings", "ping"}
RESILIENCE = ResilienceConfig(timeout=12.0, retries=2)


def chaos_scan(n_sites, plan_seed, scan_seed=3):
    sites = make_population(PopulationConfig(n_sites=n_sites, seed=11))
    plan = FaultPlan.parse(CHAOS_SPEC, seed=plan_seed)
    reports = scan_population(
        sites,
        include=PROBES,
        seed=scan_seed,
        fault_plan=plan,
        resilience=RESILIENCE,
    )
    return sites, reports


def serialize(reports):
    return [json.dumps(_encode(report), sort_keys=True) for report in reports]


class TestChaosSoak:
    @pytest.mark.parametrize("plan_seed", [1, 2])
    def test_200_sites_one_report_each_no_exception(self, plan_seed):
        sites, reports = chaos_scan(200, plan_seed)
        assert len(sites) >= 200  # the generator adds unresponsive extras
        assert len(reports) == len(sites)
        assert [r.domain for r in reports] == [s.domain for s in sites]

    def test_faults_actually_bite_and_retries_rescue(self):
        _, reports = chaos_scan(200, plan_seed=1)
        taxonomy = summarize_errors(reports)
        # The plan is hostile enough that some sites fail...
        assert taxonomy.failed_sites > 0
        # ...some probes needed more than one attempt...
        assert any(
            attempts > 1 for r in reports for attempts in r.probe_attempts.values()
        )
        # ...and some of the retried sites came back clean.
        assert any(r.retried and not r.failed for r in reports)

    def test_taxonomy_spans_multiple_classes(self):
        _, reports = chaos_scan(200, plan_seed=1)
        taxonomy = summarize_errors(reports)
        observed = {cls for cls, count in taxonomy.by_class.items() if count}
        # Stalls/blackholes time out; truncation/corruption are fatal or
        # transient — a full chaos mixture must surface more than one class.
        assert len(observed) >= 2
        assert observed <= {c.value for c in ErrorClass}

    def test_identical_seeds_reproduce_byte_identical_reports(self):
        _, first = chaos_scan(60, plan_seed=5)
        _, second = chaos_scan(60, plan_seed=5)
        assert serialize(first) == serialize(second)

    def test_different_plan_seeds_differ(self):
        _, a = chaos_scan(60, plan_seed=5)
        _, b = chaos_scan(60, plan_seed=6)
        assert serialize(a) != serialize(b)

    def test_every_probe_attempt_is_recorded(self):
        _, reports = chaos_scan(60, plan_seed=5)
        for report in reports:
            if report.errors and report.errors[0].probe == "setup":
                continue
            assert "negotiation" in report.probe_attempts
            assert all(n >= 1 for n in report.probe_attempts.values())


class TestNoConnectionOutlivesItsAttempt:
    """A probe group's attempt that raises leaves no client it or an
    earlier group made open.  One that returns may leave only the
    header-block link, and only when a later header-block group (push,
    HPACK, ping) is included, so a server never sees an idle probe
    connection held across another group's turns; nothing is open when
    ``scan_site`` returns (DESIGN §8)."""

    def test_every_client_is_closed_when_its_attempt_ends(self, monkeypatch):
        from repro.scope.client import HEADERS_ONLY_WINDOW, IWS

        clients = []
        real_client = ProbeSession.client

        def client(self, domain, **kwargs):
            made = real_client(self, domain, **kwargs)
            clients.append(made)
            return made

        def still_open():
            return [
                c for c in clients if c.endpoint is not None and not c.endpoint.closed
            ]

        left_open = Counter()
        links_held = Counter()
        HOLDERS = ("negotiation", "push", "hpack")
        real_run_resilient = scanner.run_resilient

        def run_resilient(backend, probe, fn, config, seed=0):
            def attempt():
                returned = False
                try:
                    fn()
                    returned = True
                finally:
                    leftover = still_open()
                    if returned and probe in HOLDERS and leftover:
                        # The header-block link, held for push, HPACK or ping.
                        (link,) = leftover
                        assert link.initial_settings == {IWS: HEADERS_ONLY_WINDOW}
                        links_held[probe] += 1
                    else:
                        left_open[probe] += len(leftover)

            return real_run_resilient(backend, probe, attempt, config, seed)

        monkeypatch.setattr(ProbeSession, "client", client)
        monkeypatch.setattr(scanner, "run_resilient", run_resilient)
        sites = make_population(PopulationConfig(n_sites=20, seed=7))
        plan = FaultPlan.parse(
            "refuse:0.1x6,reset:0.06x4,stall(30):0.05,truncate(400):0.05", seed=5
        )
        reports = []
        for index, site in enumerate(sites):
            clients.clear()
            reports.append(
                scanner.scan_site(
                    site,
                    seed=7 + index,
                    fault_plan=plan,
                    resilience=ResilienceConfig(timeout=10.0, retries=1),
                )
            )
            assert still_open() == [], site.domain
        # Attempts did raise: the check covers the raised way out.
        assert sum(len(report.errors) for report in reports) > 0
        # Every group's attempts were checked, on one way out or the other.
        checked = set(left_open) | set(links_held)
        assert checked >= {"flow_control", "priority", "push", "hpack", "ping"}
        assert +left_open == Counter()
        # And the link was held: negotiation handed it to push on most
        # sites, and HPACK to ping.
        assert links_held["negotiation"] > 0 and links_held["push"] > 0
        assert links_held["hpack"] > 0
