"""A contact tap over a live campaign's politeness, and invariant helpers.

The program keeps no contact log: each site's
:class:`~repro.scope.live.SiteGate` holds only its latest contact
instant.  :func:`contact_tap` observes the gates and the shared
:class:`~repro.scope.live.TokenBucket` from outside, for as long as the
``with`` block runs, by wrapping their class attributes.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.scope.live import SiteGate, TokenBucket


class ContactTap:
    """What the gates let through while the tap was open."""

    def __init__(self):
        self._lock = threading.Lock()
        #: ``(domain, instant)`` per contact; the instant is the gate's
        #: own stamp (the token grant when a bucket is in use).
        self.contacts: list[tuple[str, float]] = []
        #: Instant of every token grant.
        self.grants: list[float] = []


@contextmanager
def contact_tap():
    tap = ContactTap()
    gate_call, acquire = SiteGate.__call__, TokenBucket.acquire

    def tapped_gate(gate, domain, port):
        gate_call(gate, domain, port)
        # A site's gate runs on its session thread only, so its stamp
        # is still this contact's.
        with tap._lock:
            tap.contacts.append((domain, gate.last))

    def tapped_acquire(bucket):
        granted = acquire(bucket)
        with tap._lock:
            tap.grants.append(granted)
        return granted

    SiteGate.__call__, TokenBucket.acquire = tapped_gate, tapped_acquire
    try:
        yield tap
    finally:
        SiteGate.__call__, TokenBucket.acquire = gate_call, acquire


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
