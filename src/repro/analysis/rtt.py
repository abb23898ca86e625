"""Four-way RTT comparison (Fig. 6).

The paper randomly selects 10 sites per popular server family and
measures each with HTTP/2 PING, ICMP, the TCP handshake and an
HTTP/1.1 request.  The observable Fig. 6 reports is the CDF of RTT
estimates per method across all selected sites; the expected shape is
h2-ping ≈ tcp-rtt ≈ icmp, with h2-request visibly to the right (server
processing time inflates it).  The scan's ping group measures all four;
this module folds its reports into the series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.scope.report import SiteReport


@dataclass
class RttComparison:
    """Per-method RTT samples in milliseconds (Fig. 6's series)."""

    h2_ping: list[float] = field(default_factory=list)
    icmp: list[float] = field(default_factory=list)
    tcp: list[float] = field(default_factory=list)
    http1: list[float] = field(default_factory=list)

    def as_series(self) -> dict[str, list[float]]:
        return {
            "h2-ping": self.h2_ping,
            "icmp": self.icmp,
            "tcp-rtt": self.tcp,
            "h2-request": self.http1,
        }

    def medians(self) -> dict[str, float]:
        out = {}
        for name, values in self.as_series().items():
            if values:
                out[name] = sorted(values)[len(values) // 2]
        return out


def compare_rtt_methods(reports: list[SiteReport]) -> RttComparison:
    """Each report's ping readings, in milliseconds, by method."""
    comparison = RttComparison()
    for report in reports:
        result = report.ping
        if result.h2_ping_rtt is not None:
            comparison.h2_ping.append(result.h2_ping_rtt * 1000)
        if result.icmp_rtt is not None:
            comparison.icmp.append(result.icmp_rtt * 1000)
        if result.tcp_rtt is not None:
            comparison.tcp.append(result.tcp_rtt * 1000)
        if result.http1_rtt is not None:
            comparison.http1.append(result.http1_rtt * 1000)
    return comparison
