"""The work a scan does, pinned as literal tables (ROADMAP 24).

``tests/support/work.py`` counts, from outside the program and per
probe group, the connections a scan opens, the writes and octets each
side sends, the second writes (an endpoint's second or later write in
one clock callback), the frames by type, the HPACK blocks, the
simulated clock events and, under a fault plan, the fault draws.  The
counts are exact and host-independent, so a change that moves them
names the group that paid: every re-pin here is recorded in CHANGES.md
with its cause, like ``PINNED_SHA256``.
``python -m tests.support.work`` prints the vectors below.

``tests/support/calls.py`` counts the Python calls the same two scans
make into the program, by layer and by probe group, each in a fresh
interpreter; ``python -m tests.support.calls`` prints ``CALLS_*`` below
with the unpinned stdlib and C rows.

The budget attributes; it claims nothing about speed.
"""

import sys

import pytest

from repro.net.transport import Network
from repro.servers.vendors import VENDOR_FACTORIES
from tests.support.calls import CallCounter, fresh_count, pinned
from tests.support.work import WorkCounter, chaos_work, clean_full_work, table3_work

#: The first 20 sites of ``sim_clean_full`` (seed 7), every probe group,
#: summed over the sites: group -> counter -> count.  Ping's PINGs take
#: the header-block link's last turn, so ping opens one connection a
#: site (HTTP/1.1's) and sends no SETTINGS, and its first PING's write
#: carries the cancel of HPACK's last stream (``client.frames.
#: RstStreamFrame``); the link's close events come due in ping's own
#: waits, no longer in flow control's first.  One of the 20 sites
#: negotiates h2 and sends no HEADERS, so its scan ends at negotiation.
CLEAN_FULL = {
    "flow_control": {
        "client.connects": 56,
        "client.frames.HeadersFrame": 114,
        "client.frames.RstStreamFrame": 73,
        "client.frames.SettingsFrame": 112,
        "client.frames.WindowUpdateFrame": 114,
        "client.hpack": 114,
        "client.octets": 10614,
        "client.second_writes": 56,
        "client.writes": 339,
        "events": 819,
        "server.frames.DataFrame": 89,
        "server.frames.GoAwayFrame": 37,
        "server.frames.HeadersFrame": 82,
        "server.frames.RstStreamFrame": 22,
        "server.frames.SettingsFrame": 112,
        "server.frames.WindowUpdateFrame": 9,
        "server.hpack": 82,
        "server.octets": 273369,
        "server.second_writes": 12,
        "server.writes": 273,
    },
    "hpack": {
        "client.frames.HeadersFrame": 133,
        "client.frames.RstStreamFrame": 133,
        "client.hpack": 133,
        "client.octets": 3591,
        "client.writes": 133,
        "events": 406,
        "server.frames.DataFrame": 133,
        "server.frames.HeadersFrame": 133,
        "server.frames.WindowUpdateFrame": 7,
        "server.hpack": 133,
        "server.octets": 143181,
        "server.writes": 140,
    },
    "negotiation": {
        "client.connects": 40,
        "client.frames.HeadersFrame": 20,
        "client.frames.SettingsFrame": 39,
        "client.hpack": 20,
        "client.octets": 3031,
        "client.second_writes": 19,
        "client.writes": 80,
        "events": 238,
        "server.frames.DataFrame": 19,
        "server.frames.HeadersFrame": 19,
        "server.frames.SettingsFrame": 57,
        "server.frames.WindowUpdateFrame": 3,
        "server.hpack": 19,
        "server.octets": 23634,
        "server.writes": 79,
    },
    "ping": {
        "client.connects": 19,
        "client.frames.PingFrame": 57,
        "client.frames.RstStreamFrame": 19,
        "client.octets": 4959,
        "client.writes": 133,
        "events": 475,
        "server.frames.PingFrame": 57,
        "server.octets": 4059851,
        "server.writes": 133,
    },
    "priority": {
        "client.connects": 38,
        "client.frames.HeadersFrame": 190,
        "client.frames.PriorityFrame": 57,
        "client.frames.RstStreamFrame": 57,
        "client.frames.SettingsFrame": 76,
        "client.frames.WindowUpdateFrame": 19,
        "client.hpack": 190,
        "client.octets": 11267,
        "client.second_writes": 57,
        "client.writes": 228,
        "events": 1093,
        "server.frames.DataFrame": 452,
        "server.frames.GoAwayFrame": 3,
        "server.frames.HeadersFrame": 186,
        "server.frames.RstStreamFrame": 14,
        "server.frames.SettingsFrame": 76,
        "server.frames.WindowUpdateFrame": 12,
        "server.hpack": 186,
        "server.octets": 5821294,
        "server.second_writes": 361,
        "server.writes": 580,
    },
}

#: The same 20 sites with ``sim_chaos``'s short probes, fault plan
#: (``refuse:0.1x6,reset:0.06x4,stall(30):0.05,truncate(400):0.05``, seed
#: 5) and ``ResilienceConfig(10.0, 1)``, site *i* with seed 7 + *i*.
#: Every connection draws its fault once (``faults.draws``), and 11
#: probe attempts are retries; ``-`` is the one clock event that came due
#: while a retry's backoff slept, outside every probe group.  Ping's
#: PINGs ride on the negotiation fetch's connection unless a fault ended
#: it; their first write cancels the fetch.
CHAOS = {
    "-": {
        "events": 1,
    },
    "negotiation": {
        "client.connects": 45,
        "client.frames.HeadersFrame": 15,
        "client.frames.SettingsFrame": 30,
        "client.hpack": 15,
        "client.octets": 2550,
        "client.second_writes": 15,
        "client.writes": 68,
        "events": 210,
        "faults.draws": 45,
        "server.frames.DataFrame": 15,
        "server.frames.HeadersFrame": 15,
        "server.frames.SettingsFrame": 48,
        "server.frames.WindowUpdateFrame": 3,
        "server.hpack": 15,
        "server.octets": 18834,
        "server.writes": 65,
    },
    "ping": {
        "client.connects": 19,
        "client.frames.PingFrame": 51,
        "client.frames.RstStreamFrame": 15,
        "client.frames.SettingsFrame": 4,
        "client.octets": 3622,
        "client.second_writes": 2,
        "client.writes": 103,
        "events": 373,
        "faults.draws": 19,
        "server.frames.PingFrame": 49,
        "server.frames.SettingsFrame": 4,
        "server.octets": 2380051,
        "server.writes": 102,
    },
}

#: ``run_conformance`` against each Table III vendor: group -> the
#: counts of ``tests.support.work.SUMMARY`` (frames summed over their
#: types).  ``-`` is the ``settings-ack`` check's connection.  The column
#: is the scan's own sequence (``probe_target`` with ``TESTBED_PLAN``), so
#: ping takes its 3 samples on the header-block link, the first with the
#: cancel of HPACK's last stream (7 client writes: 3 PINGs, the HTTP/1.1
#: hello and 3 GETs), and flow control fetches ``/``, whose PUSH_PROMISEs
#: h2o, nghttpd and Apache send on its connections.  Algorithm 1 reads
#: the multiplexing cell: no group of its own.
TABLE3 = {
    "nginx": {
        "-": (1, 2, 77, 2, 0, 2, 85, 3, 0, 6, 0, 0),
        "flow_control": (2, 15, 430, 20, 6, 18, 1133, 25, 6, 42, 2, 0),
        "hpack": (0, 7, 189, 14, 7, 14, 7847, 21, 7, 28, 0, 0),
        "negotiation": (2, 4, 142, 3, 1, 5, 1271, 8, 1, 13, 1, 0),
        "ping": (1, 7, 213, 4, 0, 7, 24344, 3, 0, 25, 0, 0),
        "priority": (2, 11, 535, 19, 9, 171, 2468005, 181, 9, 196, 3, 152),
        "push": (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    },
    "litespeed": {
        "-": (1, 2, 77, 2, 0, 2, 78, 2, 0, 6, 0, 0),
        "flow_control": (3, 18, 536, 21, 6, 15, 872, 20, 5, 44, 3, 0),
        "hpack": (0, 7, 189, 14, 7, 7, 7336, 14, 7, 21, 0, 0),
        "negotiation": (2, 4, 144, 3, 1, 4, 1237, 5, 1, 12, 1, 0),
        "ping": (1, 7, 225, 4, 0, 7, 24335, 3, 0, 25, 0, 0),
        "priority": (2, 11, 539, 19, 9, 159, 2467274, 167, 8, 184, 3, 152),
        "push": (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    },
    "h2o": {
        "-": (1, 2, 77, 2, 0, 2, 72, 2, 0, 6, 0, 0),
        "flow_control": (3, 18, 524, 21, 6, 18, 1308, 31, 14, 47, 3, 2),
        "hpack": (0, 7, 189, 14, 7, 21, 22246, 56, 35, 33, 0, 14),
        "negotiation": (2, 4, 140, 3, 1, 6, 3411, 11, 5, 12, 1, 2),
        "ping": (1, 7, 207, 4, 0, 7, 24335, 3, 0, 27, 0, 0),
        "priority": (2, 11, 531, 19, 9, 167, 2467367, 170, 9, 192, 3, 152),
        "push": (0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0),
    },
    "nghttpd": {
        "-": (1, 2, 77, 2, 0, 2, 72, 2, 0, 6, 0, 0),
        "flow_control": (4, 21, 660, 24, 6, 20, 1483, 33, 14, 54, 4, 2),
        "hpack": (0, 7, 189, 14, 7, 21, 22246, 56, 35, 33, 0, 14),
        "negotiation": (2, 4, 143, 3, 1, 6, 3420, 11, 5, 12, 1, 2),
        "ping": (1, 7, 219, 4, 0, 7, 24374, 3, 0, 27, 0, 0),
        "priority": (2, 11, 537, 19, 9, 167, 2467385, 170, 9, 192, 3, 152),
        "push": (0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0),
    },
    "tengine": {
        "-": (1, 2, 77, 2, 0, 2, 85, 3, 0, 6, 0, 0),
        "flow_control": (2, 15, 432, 20, 6, 18, 1139, 25, 6, 42, 2, 0),
        "hpack": (0, 7, 189, 14, 7, 14, 7854, 21, 7, 28, 0, 0),
        "negotiation": (2, 4, 143, 3, 1, 5, 1272, 8, 1, 13, 1, 0),
        "ping": (1, 7, 219, 4, 0, 7, 24347, 3, 0, 25, 0, 0),
        "priority": (2, 11, 537, 19, 9, 171, 2468014, 181, 9, 196, 3, 152),
        "push": (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    },
    "apache": {
        "-": (1, 2, 77, 2, 0, 2, 68, 2, 0, 6, 0, 0),
        "flow_control": (4, 21, 656, 24, 6, 20, 1443, 33, 14, 54, 4, 2),
        "hpack": (0, 7, 189, 14, 7, 21, 22246, 56, 35, 33, 0, 14),
        "negotiation": (2, 4, 142, 3, 1, 6, 3383, 10, 5, 12, 1, 2),
        "ping": (1, 7, 216, 4, 0, 7, 24347, 3, 0, 27, 0, 0),
        "priority": (2, 11, 535, 19, 9, 167, 2467365, 170, 9, 192, 3, 152),
        "push": (0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0),
    },
}


#: The Python calls ``CLEAN_FULL``'s scan makes into ``repro``, by layer
#: and by probe group (``-``: deploying the site, the scanner's own code
#: and closing the universe).
CALLS_CLEAN_FULL = {
    "layers": {
        "h2": 78284,
        "h2.hpack": 11296,
        "net": 22311,
        "scope": 925,
        "scope.client": 17683,
        "scope.probes": 7659,
        "servers": 31124,
    },
    "groups": {
        "-": 1724,
        "flow_control": 41860,
        "hpack": 31035,
        "negotiation": 10385,
        "ping": 9297,
        "priority": 74449,
        "push": 532,
    },
}

#: The same for ``CHAOS``'s scan; ``-`` also holds the resilience loop.
CALLS_CHAOS = {
    "layers": {
        "h2": 5021,
        "h2.hpack": 901,
        "net": 6197,
        "scope": 1037,
        "scope.client": 3231,
        "scope.probes": 952,
        "servers": 2235,
    },
    "groups": {
        "-": 1386,
        "negotiation": 9597,
        "ping": 8591,
    },
}


def test_clean_full_work():
    assert clean_full_work().table() == CLEAN_FULL


def test_chaos_work():
    assert chaos_work().table() == CHAOS


@pytest.mark.parametrize("vendor", list(VENDOR_FACTORIES))
def test_table3_work(vendor):
    assert table3_work(vendor).summary() == TABLE3[vendor]


def test_the_counter_leaves_nothing_patched():
    connect = Network.__dict__["connect"]
    with WorkCounter():
        assert Network.__dict__["connect"] is not connect
    assert Network.__dict__["connect"] is connect


@pytest.mark.parametrize(
    "name, calls",
    [("CLEAN_FULL", CALLS_CLEAN_FULL), ("CHAOS", CALLS_CHAOS)],
    ids=["CLEAN_FULL", "CHAOS"],
)
def test_calls(name, calls):
    assert pinned(fresh_count(name)) == calls


def test_the_call_counter_folds_comprehensions_and_unsets_the_profiler():
    def squares():
        return [n * n for n in range(3)]

    with CallCounter() as counter:
        squares()
    assert sys.getprofile() is None
    # One Python call on 3.11 and on 3.12, which inlines the list's frame.
    assert counter.layers()["stdlib"] == 1
