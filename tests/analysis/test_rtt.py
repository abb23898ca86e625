"""Four-method RTT comparison (Fig. 6's mechanism)."""

import pytest

from repro.analysis.rtt import compare_rtt_methods
from repro.net.transport import LinkProfile
from repro.scope.scanner import scan_population
from repro.servers.profiles import ServerProfile
from repro.servers.site import Site
from repro.servers.website import default_website


def ping_scan(sites):
    return scan_population(sites, include={"ping"})


def make_sites(n=4, rtt=0.1):
    return [
        Site(
            domain=f"rtt{i}.test",
            profile=ServerProfile(processing_delay=0.02, processing_jitter=0.002),
            website=default_website(),
            link=LinkProfile(rtt=rtt, bandwidth=20e6),
        )
        for i in range(n)
    ]


def test_all_four_methods_sampled():
    comparison = compare_rtt_methods(ping_scan(make_sites()))
    series = comparison.as_series()
    assert all(len(v) == 4 for v in series.values())


def test_ping_tcp_icmp_agree():
    comparison = compare_rtt_methods(ping_scan(make_sites()))
    medians = comparison.medians()
    assert medians["h2-ping"] == pytest.approx(medians["tcp-rtt"], rel=0.05)
    assert medians["h2-ping"] == pytest.approx(medians["icmp"], rel=0.05)


def test_http1_estimate_largest():
    comparison = compare_rtt_methods(ping_scan(make_sites()))
    medians = comparison.medians()
    assert medians["h2-request"] > medians["h2-ping"]
    assert medians["h2-request"] > medians["icmp"]


def test_values_reported_in_milliseconds():
    comparison = compare_rtt_methods(ping_scan(make_sites(rtt=0.1)))
    assert comparison.icmp[0] == pytest.approx(100, rel=0.05)
