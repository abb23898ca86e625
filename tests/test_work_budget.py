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

The budget attributes; it claims nothing about speed.
"""

import pytest

from repro.net.transport import Network
from repro.servers.vendors import VENDOR_FACTORIES
from tests.support.work import WorkCounter, chaos_work, clean_full_work, table3_work

#: The first 20 sites of ``sim_clean_full`` (seed 7), every probe group,
#: summed over the sites: group -> counter -> count.  ``-`` is the
#: cancel of HPACK's last stream, which leaves when ``probe_target``
#: closes the header-block link after HPACK's turn.
CLEAN_FULL = {
    "-": {
        "client.frames.RstStreamFrame": 19,
        "client.octets": 247,
        "client.writes": 19,
    },
    "flow_control": {
        "client.connects": 58,
        "client.frames.HeadersFrame": 120,
        "client.frames.RstStreamFrame": 78,
        "client.frames.SettingsFrame": 114,
        "client.frames.WindowUpdateFrame": 120,
        "client.hpack": 120,
        "client.octets": 11056,
        "client.second_writes": 56,
        "client.writes": 354,
        "events": 858,
        "server.frames.DataFrame": 89,
        "server.frames.GoAwayFrame": 37,
        "server.frames.HeadersFrame": 82,
        "server.frames.RstStreamFrame": 22,
        "server.frames.SettingsFrame": 112,
        "server.frames.WindowUpdateFrame": 9,
        "server.hpack": 82,
        "server.octets": 273441,
        "server.second_writes": 12,
        "server.writes": 275,
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
        "client.connects": 40,
        "client.frames.PingFrame": 60,
        "client.frames.SettingsFrame": 39,
        "client.octets": 6491,
        "client.second_writes": 19,
        "client.writes": 180,
        "events": 613,
        "server.frames.PingFrame": 57,
        "server.frames.SettingsFrame": 38,
        "server.frames.WindowUpdateFrame": 1,
        "server.octets": 4064570,
        "server.writes": 176,
    },
    "priority": {
        "client.connects": 39,
        "client.frames.HeadersFrame": 191,
        "client.frames.PriorityFrame": 58,
        "client.frames.RstStreamFrame": 57,
        "client.frames.SettingsFrame": 77,
        "client.frames.WindowUpdateFrame": 19,
        "client.hpack": 191,
        "client.octets": 11406,
        "client.second_writes": 57,
        "client.writes": 232,
        "events": 1101,
        "server.frames.DataFrame": 452,
        "server.frames.GoAwayFrame": 3,
        "server.frames.HeadersFrame": 186,
        "server.frames.RstStreamFrame": 14,
        "server.frames.SettingsFrame": 76,
        "server.frames.WindowUpdateFrame": 12,
        "server.hpack": 186,
        "server.octets": 5821330,
        "server.second_writes": 361,
        "server.writes": 581,
    },
}

#: The same 20 sites with ``sim_chaos``'s short probes, fault plan
#: (``refuse:0.1x6,reset:0.06x4,stall(30):0.05,truncate(400):0.05``, seed
#: 5) and ``ResilienceConfig(10.0, 1)``, site *i* with seed 7 + *i*.
#: Every connection draws its fault once (``faults.draws``), and 13
#: probe attempts are retries; ``-`` is the one clock event that came due
#: while a retry's backoff slept, outside every probe group.
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
        "client.connects": 34,
        "client.frames.PingFrame": 42,
        "client.frames.SettingsFrame": 28,
        "client.octets": 4261,
        "client.second_writes": 14,
        "client.writes": 121,
        "events": 422,
        "faults.draws": 34,
        "server.frames.PingFrame": 42,
        "server.frames.SettingsFrame": 29,
        "server.frames.WindowUpdateFrame": 1,
        "server.octets": 2474060,
        "server.writes": 118,
    },
}

#: ``run_conformance`` against each Table III vendor: group -> the
#: counts of ``tests.support.work.SUMMARY`` (frames summed over their
#: types).  ``-`` is the ``settings-ack`` check's connection and the
#: cancel of HPACK's last stream, which leaves when ``probe_target``
#: closes the header-block link.  The column is the scan's own sequence
#: (``probe_target`` with ``TESTBED_PLAN``), so ping takes its 3 samples
#: (9 client writes), and flow control fetches ``/``, whose PUSH_PROMISEs
#: h2o, nghttpd and Apache send on its connections.  Algorithm 1 reads
#: the multiplexing cell: no group of its own.
TABLE3 = {
    "nginx": {
        "-": (1, 3, 90, 3, 0, 2, 85, 3, 0, 6, 0, 0),
        "flow_control": (2, 15, 430, 20, 6, 18, 1133, 25, 6, 43, 2, 0),
        "hpack": (0, 7, 189, 14, 7, 14, 7847, 21, 7, 28, 0, 0),
        "negotiation": (2, 4, 142, 3, 1, 5, 1271, 8, 1, 13, 1, 0),
        "ping": (2, 9, 277, 5, 0, 9, 24429, 6, 0, 31, 1, 0),
        "priority": (2, 11, 535, 19, 9, 171, 2468005, 181, 9, 196, 3, 152),
        "push": (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    },
    "litespeed": {
        "-": (1, 3, 90, 3, 0, 2, 78, 2, 0, 6, 0, 0),
        "flow_control": (3, 18, 536, 21, 6, 15, 872, 20, 5, 45, 3, 0),
        "hpack": (0, 7, 189, 14, 7, 7, 7336, 14, 7, 21, 0, 0),
        "negotiation": (2, 4, 144, 3, 1, 4, 1237, 5, 1, 12, 1, 0),
        "ping": (2, 9, 289, 5, 0, 9, 24413, 5, 0, 31, 1, 0),
        "priority": (2, 11, 539, 19, 9, 159, 2467274, 167, 8, 184, 3, 152),
        "push": (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    },
    "h2o": {
        "-": (1, 3, 90, 3, 0, 2, 72, 2, 0, 6, 0, 0),
        "flow_control": (3, 18, 524, 21, 6, 18, 1308, 31, 14, 50, 3, 2),
        "hpack": (0, 7, 189, 14, 7, 21, 22246, 56, 35, 33, 0, 14),
        "negotiation": (2, 4, 140, 3, 1, 6, 3411, 11, 5, 12, 1, 2),
        "ping": (2, 9, 271, 5, 0, 9, 24407, 5, 0, 31, 1, 0),
        "priority": (2, 11, 531, 19, 9, 167, 2467367, 170, 9, 192, 3, 152),
        "push": (0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0),
    },
    "nghttpd": {
        "-": (1, 3, 90, 3, 0, 2, 72, 2, 0, 6, 0, 0),
        "flow_control": (4, 21, 660, 24, 6, 20, 1483, 33, 14, 57, 4, 2),
        "hpack": (0, 7, 189, 14, 7, 21, 22246, 56, 35, 33, 0, 14),
        "negotiation": (2, 4, 143, 3, 1, 6, 3420, 11, 5, 12, 1, 2),
        "ping": (2, 9, 283, 5, 0, 9, 24446, 5, 0, 31, 1, 0),
        "priority": (2, 11, 537, 19, 9, 167, 2467385, 170, 9, 192, 3, 152),
        "push": (0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0),
    },
    "tengine": {
        "-": (1, 3, 90, 3, 0, 2, 85, 3, 0, 6, 0, 0),
        "flow_control": (2, 15, 432, 20, 6, 18, 1139, 25, 6, 43, 2, 0),
        "hpack": (0, 7, 189, 14, 7, 14, 7854, 21, 7, 28, 0, 0),
        "negotiation": (2, 4, 143, 3, 1, 5, 1272, 8, 1, 13, 1, 0),
        "ping": (2, 9, 283, 5, 0, 9, 24432, 6, 0, 31, 1, 0),
        "priority": (2, 11, 537, 19, 9, 171, 2468014, 181, 9, 196, 3, 152),
        "push": (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    },
    "apache": {
        "-": (1, 3, 90, 3, 0, 2, 68, 2, 0, 6, 0, 0),
        "flow_control": (4, 21, 656, 24, 6, 20, 1443, 33, 14, 57, 4, 2),
        "hpack": (0, 7, 189, 14, 7, 21, 22246, 56, 35, 33, 0, 14),
        "negotiation": (2, 4, 142, 3, 1, 6, 3383, 10, 5, 12, 1, 2),
        "ping": (2, 9, 280, 5, 0, 9, 24415, 5, 0, 31, 1, 0),
        "priority": (2, 11, 535, 19, 9, 167, 2467365, 170, 9, 192, 3, 152),
        "push": (0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0),
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
