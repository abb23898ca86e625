"""Differential test: real-socket probing must match the simulator.

The acceptance bar for the transport-backend refactor: serve all six
testbed vendor engines over real loopback TCP sockets (the bridge in
:mod:`repro.servers.loopback`) and assert the Table III feature matrix
comes out *verdict-for-verdict identical* to the simulated one.  Any
divergence means the sans-IO driver behaves differently depending on
which transport carries its bytes — exactly the bug class the
abstraction must exclude.

Wall-clock cost is dominated by the probes that wait out a timeout
("ignore" cells) and by window-limited transfers over the emulated
20 ms link: roughly 2-8 s per vendor.  The whole matrix runs in well
under a minute, as part of tier-1.
"""

import pytest

from repro.experiments.table3 import (
    VENDORS,
    characterize_vendor,
    characterize_vendor_socket,
)
from repro.servers.loopback import LoopbackBridge
from repro.servers.site import Site
from repro.servers.vendors import VENDOR_FACTORIES
from repro.servers.website import testbed_website

SEED = 0


@pytest.fixture(scope="module")
def bridge():
    with LoopbackBridge(seed=SEED) as bridge:
        for vendor in VENDORS:
            bridge.serve(
                Site(
                    domain=f"{vendor}.testbed",
                    profile=VENDOR_FACTORIES[vendor](),
                    website=testbed_website(),
                )
            )
        yield bridge


@pytest.mark.parametrize("vendor", VENDORS)
def test_loopback_matrix_matches_simulated(bridge, vendor):
    expected = characterize_vendor(vendor, seed=SEED)
    got = characterize_vendor_socket(vendor, bridge)
    mismatches = {
        row: (expected[row], got.get(row))
        for row in expected
        if got.get(row) != expected[row]
    }
    assert not mismatches, (
        f"{vendor}: socket-backend verdicts diverge from simulation "
        f"(row: (simulated, socket)): {mismatches}"
    )
