"""Fig. 6 — RTT measured by ICMP, TCP, HTTP/1.1 and HTTP/2 PING.

The paper picks 10 sites per popular server family and compares the
four estimators' CDFs, read here from a scan of those sites by the ping
group.  Expected shape: h2-ping ≈ tcp-rtt ≈ icmp, with the HTTP/1.1
request estimate visibly larger because the server must process the
request before replying.
"""

from __future__ import annotations

import random

from repro.analysis.cdf import render_cdf_ascii
from repro.analysis.rtt import compare_rtt_methods
from repro.experiments.common import ExperimentResult
from repro.net.transport import LinkProfile
from repro.scope.scanner import scan_population
from repro.servers.site import Site
from repro.servers.vendors import POPULATION_FACTORIES
from repro.servers.website import default_website

#: Families whose sites the paper samples (10 each).
FAMILIES = ["nginx", "litespeed", "gse", "tengine", "apache", "h2o"]


def build_sites(sites_per_family: int = 10, seed: int = 11) -> list[Site]:
    rng = random.Random(seed)
    sites = []
    for family in FAMILIES:
        for index in range(sites_per_family):
            link = LinkProfile(
                rtt=min(0.38, max(0.008, rng.lognormvariate(-2.6, 0.7))),
                bandwidth=rng.choice([5e6, 10e6, 20e6]),
            )
            profile = POPULATION_FACTORIES[family]().clone(
                processing_delay=rng.uniform(0.006, 0.03),
                processing_jitter=0.004,
            )
            sites.append(
                Site(
                    domain=f"{family}{index}.fig6",
                    profile=profile,
                    website=default_website(),
                    link=link,
                )
            )
    return sites


def run(sites_per_family: int = 10, seed: int = 11) -> ExperimentResult:
    sites = build_sites(sites_per_family, seed)
    comparison = compare_rtt_methods(
        scan_population(sites, include={"ping"}, seed=seed)
    )
    plot = render_cdf_ascii(
        comparison.as_series(),
        x_label="RTT (milliseconds)",
        x_min=0.0,
        x_max=400.0,
    )
    medians = comparison.medians()
    lines = [
        "Fig. 6 — RTT measured by ICMP, TCP, HTTP/1.1 and HTTP/2 PING",
        plot,
        "median RTT per method (ms): "
        + ", ".join(f"{k}={v:.1f}" for k, v in medians.items()),
    ]
    ping = medians.get("h2-ping")
    tcp = medians.get("tcp-rtt")
    icmp = medians.get("icmp")
    h1 = medians.get("h2-request")
    if ping and tcp and icmp and h1:
        lines.append(
            f"h2-ping is within {abs(ping - tcp) / tcp:.1%} of tcp-rtt and "
            f"{abs(ping - icmp) / icmp:.1%} of icmp; the HTTP/1.1 estimate is "
            f"{h1 / ping:.2f}x h2-ping (paper: PING ≈ TCP ≈ ICMP, HTTP/1.1 "
            "longer because the server needs time to handle the request)"
        )
    return ExperimentResult(
        name="fig6",
        text="\n".join(lines) + "\n",
        data={"medians": medians, "series": comparison.as_series()},
    )
