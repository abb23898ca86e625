"""Credit is returned per half window, not per DATA frame (DESIGN §8).

A timing-free budget: a full-probe scan of each vendor site, followed
by one client the test opens to fetch the depletion objects to their
END_STREAM, may send, on every connection that returns credit by itself,
at most one connection and one stream WINDOW_UPDATE per half default
window of DATA received (plus a constant).  Per-frame credit — two
updates for every DATA frame, a third of a site's frames — breaks it by
a factor; CI runs this test by name so that regression does not have to
be read off a noisy throughput figure.  The negotiation, HPACK and push
probes return no credit at all (they hold bodies with
``HEADERS_ONLY_WINDOW``), so the test's own client is the one crediting
connection, and it carries the budget past two half windows.
"""

import math

from repro.h2 import events as ev
from repro.h2.frames import DataFrame, WindowUpdateFrame
from repro.net.backend import SimulatedBackend
from repro.scope.client import BULK_TIMEOUT
from repro.scope.scanner import TESTBED_PLAN, probe_target
from repro.scope.session import ProbeSession

from tests.scope.conftest import DEPLETION_PATHS, deploy_vendor
from tests.support.frames import tap_connections

HALF_WINDOW = 65_535 // 2


class RecordingSession(ProbeSession):
    """A session that remembers the clients it made."""

    def __init__(self, backend):
        super().__init__(backend)
        self.clients = []

    def client(self, domain, **kwargs):
        client = super().client(domain, **kwargs)
        self.clients.append(client)
        return client


def test_window_updates_stay_inside_the_half_window_budget(vendor):
    network, domain = deploy_vendor(vendor)
    session = RecordingSession(SimulatedBackend(network))
    with tap_connections() as taps:
        report = probe_target(session, domain, plan=TESTBED_PLAN)
        client = session.client(domain, auto_window_update=True)
        assert client.establish_h2()
        streams = {client.request(path) for path in DEPLETION_PATHS}
        assert client.wait_for(
            lambda: streams
            <= {te.event.stream_id for te in client.events_of(ev.StreamEnded)},
            timeout=BULK_TIMEOUT,
        )
        client.close()
    assert not report.errors
    crediting = [
        taps[client.conn]
        for client in session.clients
        if client.auto_window_update and client.conn is not None
    ]
    # No scan probe returns credit by itself any more: the test's own
    # client is the only crediting connection, and it carries the budget.
    assert len(crediting) == 1
    octets = 0
    for tap in crediting:
        received = sum(
            frame.flow_controlled_length
            for frame in tap.received
            if isinstance(frame, DataFrame)
        )
        updates = sum(isinstance(frame, WindowUpdateFrame) for frame in tap.sent)
        assert updates <= 2 + 2 * math.ceil(received / HALF_WINDOW), (
            vendor,
            received,
            updates,
        )
        octets += received
    assert octets > 2 * HALF_WINDOW  # the budget was exercised
