"""Invariant helpers over a live campaign's politeness logs.

They read the ``contacts`` and ``rate_grants`` lists that
:class:`~repro.scope.live.LiveScanMetrics` shares with
:class:`~repro.scope.live.HostPoliteness` and
:class:`~repro.scope.live.TokenBucket`.
"""

from __future__ import annotations


def min_host_gap(contacts: list[tuple[str, float]]) -> float | None:
    """Smallest observed gap between consecutive same-host contacts."""
    last: dict[str, float] = {}
    smallest: float | None = None
    for host, at in contacts:
        if host in last:
            gap = at - last[host]
            smallest = gap if smallest is None else min(smallest, gap)
        last[host] = at
    return smallest


def max_rate(rate_grants: list[float], window: float = 1.0) -> int:
    """Highest grant count observed in any sliding ``window``."""
    grants = sorted(rate_grants)
    best = 0
    lo = 0
    for hi, at in enumerate(grants):
        while at - grants[lo] > window:
            lo += 1
        best = max(best, hi - lo + 1)
    return best
