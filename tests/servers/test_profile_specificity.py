"""Profile specificity: each Table III cell moves with its quirk and with
nothing else.

The probes and the engine were written together, so a probe reading an
incidental signal would still reproduce Table III.  Here every vendor
field that differs from ``ServerProfile()`` is reset on its own and the
conformance suite judges the result: a field moves exactly the cells
:data:`MOVES` names, or it moves none and :data:`READ_ELSEWHERE` names
the §V experiment that reads it.
"""

from dataclasses import fields

import pytest

from repro.experiments.table3 import PAPER_TABLE3, VENDORS
from repro.scope.conformance import ROWS, Verdict, run_conformance
from repro.scope.session import ProbeSession
from repro.servers.profiles import ServerProfile
from repro.servers.site import Site, serve_site
from repro.servers.vendors import VENDOR_FACTORIES
from repro.servers.website import testbed_website

#: Field -> the Table III cells resetting it moves, for every vendor
#: that sets it.
MOVES = {
    "supports_npn": {"NPN"},
    "flow_control_on_headers": {"Flow Control on HEADERS Frames"},
    "on_zero_window_update_stream": {"Zero Window Update on stream"},
    "on_zero_window_update_connection": {"Zero Window Update on connection"},
    "supports_push": {"Server Push"},
    "scheduler_mode": {"Priority Mechanism Testing (Algorithm 1)"},
    "on_self_dependency": {"Self-dependent Stream"},
    "hpack_index_responses": {"Header Compression"},
}

#: Fields that move no Table III cell, with the experiment that reads them.
READ_ELSEWHERE = {
    "server_header": "Table IV (server classification)",
    "settings": "Tables V-VII and Fig. 2 (announced SETTINGS)",
    "announce_zero_then_window_update": "§V-C (zero window, then WINDOW_UPDATE)",
    "headers_hold_threshold": "§V-D1 (Sframe = 1 gets no response)",
    "tiny_window_behavior": "§V-D1 (tiny-window DATA frames)",
}

CHECK_OF = {row.label: row.check_id for row in ROWS}


def deviating_fields(profile):
    """The fields ``profile`` sets away from ``ServerProfile()``; the
    name is a label, not behaviour."""
    default = ServerProfile()
    return [
        f.name
        for f in fields(ServerProfile)
        if f.name != "name" and getattr(profile, f.name) != getattr(default, f.name)
    ]


def judge(profile):
    """``(cells, verdicts)`` of the conformance suite on ``profile``
    serving the testbed objects."""
    site = Site(domain="x.testbed", profile=profile, website=testbed_website())
    with serve_site(site) as (backend, _):
        report = run_conformance(ProbeSession(backend), site.domain)
    return report.cells, {r.check_id: r.verdict for r in report.results}


@pytest.fixture(scope="module")
def judged():
    """Every vendor and every single-field reset of it, judged once."""
    default = ServerProfile()
    out = {}
    for vendor in VENDORS:
        profile = VENDOR_FACTORIES[vendor]()
        out[vendor, None] = judge(profile)
        for name in deviating_fields(profile):
            reset = profile.clone(**{name: getattr(default, name)})
            out[vendor, name] = judge(reset)
    return out


def test_every_deviating_field_is_named():
    named = set(MOVES) | set(READ_ELSEWHERE)
    for vendor in VENDORS:
        unnamed = set(deviating_fields(VENDOR_FACTORIES[vendor]())) - named
        assert not unnamed, (vendor, unnamed)


@pytest.mark.parametrize("vendor", VENDORS)
def test_each_field_moves_exactly_its_cells(judged, vendor):
    cells, verdicts = judged[vendor, None]
    for name in deviating_fields(VENDOR_FACTORIES[vendor]()):
        reset_cells, reset_verdicts = judged[vendor, name]
        moved = {row for row in cells if reset_cells[row] != cells[row]}
        assert moved == MOVES.get(name, set()), name
        # A verdict moves only with a moved row's cell.
        moved_checks = {c for c in verdicts if reset_verdicts[c] != verdicts[c]}
        assert moved_checks <= {CHECK_OF[row] for row in moved}, name


def test_default_profile_passes_every_check():
    cells, verdicts = judge(ServerProfile())
    assert set(verdicts.values()) == {Verdict.PASS}
    for row in ROWS:
        if row.level is not None:
            assert cells[row.label] == row.requirement, row.label


@pytest.mark.parametrize("vendor", VENDORS)
def test_grafted_fields_read_the_vendors_column(vendor):
    profile = VENDOR_FACTORIES[vendor]()
    graft = ServerProfile(
        **{name: getattr(profile, name) for name in deviating_fields(profile)}
    )
    cells, _ = judge(graft)
    assert cells == {label: PAPER_TABLE3[label][vendor] for label in PAPER_TABLE3}
