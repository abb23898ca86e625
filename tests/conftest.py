"""Fixtures shared by every test directory."""

import gc

import pytest

from repro.net.backend import SimulatedBackend
from repro.scope.probes import (
    HeaderBlockLink,
    probe_hpack,
    probe_negotiation,
    probe_ping,
    probe_push,
)
from repro.scope.report import (
    HpackResult,
    NegotiationResult,
    PingResult,
    PushResult,
    SettingsResult,
)
from repro.scope.session import ProbeSession


def sim_session(network) -> ProbeSession:
    """The probe layer's handle on a test's simulated universe: probes,
    ``probe_target`` and ``run_conformance`` take it, ``.client(...)``
    makes a :class:`ScopeClient` and ``.backend`` is what
    ``run_resilient`` publishes its policy on."""
    return ProbeSession(SimulatedBackend(network))


def negotiation_of(
    session: ProbeSession, domain: str
) -> tuple[NegotiationResult, SettingsResult]:
    """``probe_negotiation`` on a header-block link of its own, closed on
    return, as a scan runs it when no push or HPACK follows."""
    result, settings = NegotiationResult(), SettingsResult()
    with HeaderBlockLink(session, domain) as link:
        probe_negotiation(session, domain, link, result, settings)
    return result, settings


def push_of(session: ProbeSession, domain: str) -> PushResult:
    """``probe_push`` on a header-block link of its own, as a scan runs it
    when the negotiation fetch's connection is gone."""
    result = PushResult()
    with HeaderBlockLink(session, domain) as link:
        probe_push(link, result)
    return result


def ping_of(session: ProbeSession, domain: str) -> PingResult:
    """``probe_ping`` on a header-block link of its own, as a scan that
    includes only ping (Fig. 6's) runs it."""
    result = PingResult()
    probe_ping(session, domain, HeaderBlockLink(session, domain), result)
    return result


def hpack_of(session: ProbeSession, domain: str) -> HpackResult:
    """``probe_hpack`` on a header-block link of its own, as a scan runs
    it when the negotiation fetch's connection is gone."""
    result = HpackResult()
    with HeaderBlockLink(session, domain) as link:
        probe_hpack(link, result)
    return result


@pytest.fixture
def collector_off():
    """The cyclic collector, switched off for the test and handed over.

    For tests that assert what *reference counts alone* freed: they
    never depend on when a collection runs, so they hold on every
    supported Python.  ``collector_off.collect()`` afterwards counts
    what only the collector could have found.
    """
    gc.collect()
    gc.disable()
    try:
        yield gc
    finally:
        gc.enable()
