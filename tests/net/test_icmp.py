"""ICMP echo simulation (Fig. 6's kernel-level RTT estimator)."""

import pytest

from repro.net.clock import Simulation
from repro.net.icmp import icmp_ping
from repro.net.transport import LinkProfile, Network


def test_ping_measures_path_rtt():
    sim = Simulation()
    network = Network(sim)
    network.add_host("target.example", LinkProfile(rtt=0.123))
    session = icmp_ping(network, "target.example", count=1)
    assert session.rtts[0] == pytest.approx(0.123, abs=0.001)


def test_multiple_samples():
    sim = Simulation()
    network = Network(sim)
    network.add_host("target.example", LinkProfile(rtt=0.05))
    session = icmp_ping(network, "target.example", count=4)
    assert len(session.rtts) == 4
    assert session.avg_rtt == pytest.approx(0.05, abs=0.001)
    assert min(session.rtts) <= session.avg_rtt


def test_unknown_host_unreachable():
    sim = Simulation()
    network = Network(sim)
    session = icmp_ping(network, "ghost.example", count=2)
    assert session.rtts == []
    assert session.avg_rtt is None
    assert all(r.rtt is None for r in session.results)


def test_kernel_turnaround_is_small():
    # ICMP must not include application processing time.
    sim = Simulation()
    network = Network(sim)
    host = network.add_host("t.example", LinkProfile(rtt=0.1))
    session = icmp_ping(network, "t.example", count=1)
    assert session.rtts[0] - 0.1 < 0.001
