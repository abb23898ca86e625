"""The negotiation, HPACK and push probes read header blocks only
(DESIGN §8).

Each announces SETTINGS_INITIAL_WINDOW_SIZE = ``HEADERS_ONLY_WINDOW``
and returns no credit, so a server sends each stream at most that many
DATA octets.  The window changes the bytes on the wire and not the
measurements: the results below are the ones the three probes gave when
they read every body in full.
"""

import pytest

from repro.h2.connection import Side
from repro.h2.frames import DataFrame, WindowUpdateFrame
from repro.net.backend import SimulatedBackend
from repro.scope.client import HEADERS_ONLY_WINDOW
from repro.scope.session import ProbeSession

from tests.conftest import hpack_of, negotiation_of, push_of
from tests.scope.conftest import deploy_vendor
from tests.support.frames import tap_connections

PUSHED = ["/style.css", "/app.js"]

#: vendor -> (header_sizes, ratio, push_received, promised_paths), as
#: measured with the default window and every body read.
MEASURED = {
    "apache": ([62] + [6] * 7, 0.20967741935483872, True, PUSHED),
    "h2o": ([59] + [6] * 7, 0.21398305084745764, True, PUSHED),
    "litespeed": ([59] + [6] * 7, 0.21398305084745764, False, []),
    "nghttpd": ([68] + [6] * 7, 0.20220588235294118, True, PUSHED),
    "nginx": ([66] * 8, 1.0, False, []),
    "tengine": ([67] * 8, 1.0, False, []),
}

#: vendor -> (alpn_h2, npn_h2, headers_received, server_header), as
#: measured while the negotiation fetch read the page to its END_STREAM.
NEGOTIATED = {
    "apache": (True, False, True, "Apache/2.4.23"),
    "h2o": (True, True, True, "h2o/1.6.2"),
    "litespeed": (True, True, True, "LiteSpeed"),
    "nghttpd": (True, True, True, "nghttpd nghttp2/1.12.0"),
    "nginx": (True, True, True, "nginx/1.9.15"),
    "tengine": (True, True, True, "Tengine/2.1.2"),
}


def assert_headers_only(taps):
    clients = [tap for conn, tap in taps.items() if conn.config.side is Side.CLIENT]
    assert len(clients) == 1
    (tap,) = clients
    per_stream: dict[int, int] = {}
    for frame in tap.received:
        if isinstance(frame, DataFrame):
            per_stream[frame.stream_id] = (
                per_stream.get(frame.stream_id, 0) + frame.flow_controlled_length
            )
    assert per_stream, "the server sent no DATA at all"
    assert max(per_stream.values()) <= HEADERS_ONLY_WINDOW, per_stream
    assert not any(isinstance(frame, WindowUpdateFrame) for frame in tap.sent)


@pytest.mark.parametrize("vendor", sorted(MEASURED))
def test_header_only_probes_hold_bodies_and_measure_the_same(vendor):
    sizes, ratio, pushes, promised = MEASURED[vendor]
    network, domain = deploy_vendor(vendor)
    session = ProbeSession(SimulatedBackend(network))
    with tap_connections() as taps:
        hpack = hpack_of(session, domain)
    assert_headers_only(taps)
    with tap_connections() as taps:
        push = push_of(session, domain)
    assert_headers_only(taps)
    assert (hpack.header_sizes, hpack.ratio) == (sizes, ratio)
    assert (push.push_received, push.promised_paths) == (pushes, promised)


@pytest.mark.parametrize("vendor", sorted(NEGOTIATED))
def test_negotiation_fetch_holds_the_body_and_measures_the_same(vendor):
    network, domain = deploy_vendor(vendor)
    session = ProbeSession(SimulatedBackend(network))
    with tap_connections() as taps:
        result, _ = negotiation_of(session, domain)
    assert_headers_only(taps)
    assert (
        result.alpn_h2,
        result.npn_h2,
        result.headers_received,
        result.server_header,
    ) == NEGOTIATED[vendor]
