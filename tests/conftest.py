"""Fixtures shared by every test directory."""

import gc

import pytest

from repro.net.backend import SimulatedBackend
from repro.scope.session import ProbeSession


def sim_session(network) -> ProbeSession:
    """The probe layer's handle on a test's simulated universe: probes,
    ``probe_target`` and ``run_conformance`` take it, ``.client(...)``
    makes a :class:`ScopeClient` and ``.backend`` is what
    ``run_resilient`` publishes its policy on."""
    return ProbeSession(SimulatedBackend(network))


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
