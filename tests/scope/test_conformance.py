"""RFC conformance suite against the six vendor models."""

import pytest

from repro.experiments.table3 import PAPER_TABLE3
from repro.h2.connection import Reaction
from repro.net.clock import Simulation
from repro.net.transport import Network
from repro.scope import scanner
from repro.scope.conformance import (
    REPORT_ORDER,
    ROWS,
    SCORED_ROWS,
    Level,
    Verdict,
    cells,
    matrix_cells,
    run_conformance,
)
from repro.scope.probes.priority import _is_interleaved
from repro.scope.scanner import TESTBED_PLAN, scan_site
from repro.scope.session import ProbeSession
from repro.servers.engine import _ServerConnection
from repro.servers.profiles import ServerProfile
from repro.servers.site import Site, serve_site
from repro.servers.vendors import VENDOR_FACTORIES
from repro.servers.website import testbed_website
from tests.conftest import sim_session
from tests.scope.conftest import deploy_vendor


def run_vendor(vendor):
    network, domain = deploy_vendor(vendor)
    return run_conformance(sim_session(network), domain)


def run_profile(profile):
    site = Site(domain="custom.testbed", profile=profile, website=testbed_website())
    with serve_site(site) as (backend, _):
        return run_conformance(ProbeSession(backend), site.domain)


def verdicts(report):
    return {r.check_id: r.verdict for r in report.results}


class TestVendorConformance:
    def test_no_vendor_fully_conformant(self, vendor):
        report = run_vendor(vendor)
        assert not report.fully_conformant, report.summary()

    def test_universal_passes(self, vendor):
        v = verdicts(run_vendor(vendor))
        # Every Table III server gets these right.
        for check in (
            "tls-alpn",
            "preface-settings",
            "settings-ack",
            "ping-echo",
            "flow-control-data",
            "overflow-stream",
            "overflow-connection",
            "multiplexing",
        ):
            assert v[check] is Verdict.PASS, check

    def test_nginx_failures_localized(self):
        v = verdicts(run_vendor("nginx"))
        assert v["zero-window-update"] is Verdict.FAIL  # ignores it
        assert v["self-dependency"] is Verdict.PASS
        assert v["headers-exempt"] is Verdict.PASS

    def test_litespeed_headers_flow_control_flagged(self):
        v = verdicts(run_vendor("litespeed"))
        assert v["headers-exempt"] is Verdict.FAIL
        assert v["zero-window-update"] is Verdict.PASS
        assert v["self-dependency"] is Verdict.FAIL  # ignored

    def test_nghttpd_goaway_on_stream_error_flagged(self):
        v = verdicts(run_vendor("nghttpd"))
        # GOAWAY where the RFC prescribes a *stream* error.
        assert v["zero-window-update"] is Verdict.FAIL
        assert v["self-dependency"] is Verdict.FAIL

    def test_h2o_is_closest_to_conformant(self):
        failures = {
            vendor: sum(
                1
                for r in run_vendor(vendor).results
                if r.verdict is Verdict.FAIL
            )
            for vendor in ("nginx", "litespeed", "h2o", "nghttpd", "tengine", "apache")
        }
        assert failures["h2o"] == min(failures.values())

    def test_concurrent_floor_respected_by_all(self, vendor):
        v = verdicts(run_vendor(vendor))
        assert v["concurrent-floor"] is Verdict.PASS

    def test_row_checks_read_the_papers_cells(self, vendor):
        # Table III's cell against its RFC column decides every row check.
        v = verdicts(run_vendor(vendor))
        for row in SCORED_ROWS:
            expected = PAPER_TABLE3[row.label][vendor] == row.requirement
            assert (v[row.check_id] is Verdict.PASS) == expected, row.label



class TestTableIIIConnectionBudget:
    """``run_conformance`` runs the scan's flow-control sequence
    (DESIGN §8): the zero-window HEADERS probe on a connection of its
    own, then five turns on one connection that a GOAWAY replaces, so
    flow control opens 2 (nginx, tengine), 3 (litespeed, h2o) or 4
    (nghttpd, apache) connections.  The other six: negotiation two, and
    one each for ping's HTTP/1.1 samples, Algorithm 1 (which also reads
    the multiplexing cell), self-dependency and the SETTINGS
    acknowledgement check.  Push, HPACK and ping's PINGs open none: they
    take their turns on the negotiation fetch's connection, the
    header-block link.  Every cell is the paper's."""

    CONNECTIONS = {
        "nginx": 8,
        "litespeed": 9,
        "h2o": 9,
        "nghttpd": 10,
        "tengine": 8,
        "apache": 10,
    }

    def test_connections_and_cells(self, monkeypatch, vendor):
        connects = []
        real_connect = Network.connect

        def connect(self, *args, **kwargs):
            connects.append(args)
            return real_connect(self, *args, **kwargs)

        monkeypatch.setattr(Network, "connect", connect)
        report = run_vendor(vendor)
        assert len(connects) == self.CONNECTIONS[vendor]
        assert report.cells == {
            row.label: PAPER_TABLE3[row.label][vendor] for row in ROWS
        }

class TestOneProbeSequence:
    """Table III's column is a view of the scan's report (DESIGN §8):
    the population scanner, given the testbed's plan, reads every cell
    of the paper's, and ``matrix_cells`` runs that scan once."""

    def test_the_scan_reproduces_table3(self, vendor):
        site = Site(
            domain=f"{vendor}.testbed",
            profile=VENDOR_FACTORIES[vendor](),
            website=testbed_website(),
        )
        measured = cells(scan_site(site, plan=TESTBED_PLAN), TESTBED_PLAN)
        assert measured == {
            row.label: PAPER_TABLE3[row.label][vendor] for row in ROWS
        }

    def test_matrix_cells_runs_the_scan_once(self, monkeypatch):
        calls = []
        real_probe_target = scanner.probe_target

        def probe_target(*args, **kwargs):
            calls.append(kwargs.get("plan"))
            return real_probe_target(*args, **kwargs)

        monkeypatch.setattr(scanner, "probe_target", probe_target)
        network, domain = deploy_vendor("h2o")
        column = matrix_cells(sim_session(network), domain)
        assert calls == [TESTBED_PLAN]
        assert column == {row.label: PAPER_TABLE3[row.label]["h2o"] for row in ROWS}


def run_to_completion(schedule):
    """A scheduler that, once a stream has sent DATA, sends nothing else
    until that stream ends: it serves requests one at a time."""

    def serial(self, ready):
        started = {
            sid for sid, task in self._tasks.items() if 0 < task.offset < task.size
        }
        return schedule(self, ready & started if started else ready)

    return serial


def first_in_first_out(schedule):
    """A scheduler that serves the earliest-arrived ready stream and
    moves on only when that stream's window is empty."""

    def fifo(self, ready):
        open_ = [
            sid
            for sid in ready
            if self.conn.streams[sid].outbound_window.available > 0
        ]
        first = min(
            open_, key=lambda sid: self._tasks[sid].arrival_index, default=None
        )
        return schedule(self, ready if first is None else {first})

    return fifo


class TestMultiplexingWitness:
    """The Request Multiplexing cell says "no support" for a server that
    does not interleave its responses.  Under the FIFO schedule a
    65,535-octet stream window would still switch streams when it runs
    out; Algorithm 1's windows never do, so only its DATA frames show
    the scheduler's own order."""

    @staticmethod
    def multiplexing_cell(monkeypatch, vendor, schedule):
        monkeypatch.setattr(
            _ServerConnection, "_schedule", schedule(_ServerConnection._schedule)
        )
        network, domain = deploy_vendor(vendor)
        return matrix_cells(sim_session(network), domain)["Request Multiplexing"]

    def test_run_to_completion_reads_no_support(self, monkeypatch, vendor):
        cell = self.multiplexing_cell(monkeypatch, vendor, run_to_completion)
        assert cell == "no support"

    def test_fifo_reads_no_support(self, monkeypatch, vendor):
        cell = self.multiplexing_cell(monkeypatch, vendor, first_in_first_out)
        assert cell == "no support"

    @pytest.mark.parametrize(
        "pattern, interleaved",
        [([1, 1, 3, 3], False), ([1, 3, 1], True), ([1, 3, 3, 1], True), ([], False)],
        ids=["serial", "alternating", "nested", "empty"],
    )
    def test_is_interleaved(self, pattern, interleaved):
        assert _is_interleaved(pattern) is interleaved


class TestRules:
    def test_stream_overflow_needs_rst_stream(self):
        # RFC 7540 §6.9.1: a stream's overflow is a stream error.
        report = run_profile(ServerProfile(on_window_overflow_stream=Reaction.GOAWAY))
        assert report.cells["Large Window Update (Stream)"] == "GOAWAY"
        assert verdicts(report)["overflow-stream"] is Verdict.FAIL


class TestReportShape:
    def test_every_check_has_rfc_section(self):
        report = run_vendor("h2o")
        for result in report.results:
            assert result.section.startswith("§")
            assert result.description

    def test_summary_renders(self):
        report = run_vendor("apache")
        text = report.summary()
        assert "RFC 7540 conformance report" in text
        assert "MUST:" in text

    def test_must_counters(self):
        report = run_vendor("h2o")
        musts = [r for r in report.results if r.level is Level.MUST]
        assert report.musts_passed + report.musts_failed == len(
            [m for m in musts if m.verdict is not Verdict.SKIP]
        )

    def test_one_check_per_scored_row(self):
        report = run_vendor("h2o")
        ids = [r.check_id for r in report.results]
        assert ids == list(REPORT_ORDER)
        assert len(ROWS) == 14 and len(SCORED_ROWS) == 13
        assert {row.check_id for row in SCORED_ROWS} <= set(ids)
        assert len(ids) == len(SCORED_ROWS) + 3

    def test_skip_when_h2_not_negotiated(self):
        # The population's model of a site without h2: no ALPN, no NPN.
        report = run_profile(ServerProfile(supports_alpn=False, supports_npn=False))
        v = verdicts(report)
        assert v["tls-alpn"] is Verdict.FAIL
        for row in SCORED_ROWS[1:]:
            assert v[row.check_id] is Verdict.SKIP, row.check_id

    def test_unreachable_target_all_skip_or_fail(self):
        network = Network(Simulation(), seed=1)
        report = run_conformance(sim_session(network), "nowhere.test")
        assert not report.fully_conformant
        assert all(
            r.verdict in (Verdict.FAIL, Verdict.SKIP) for r in report.results
        )

    def test_a_skipped_must_row_is_not_fully_conformant(self, monkeypatch):
        # With negotiation raised the scored rows are skipped, not
        # passed: a report that measured nothing conforms to nothing.
        import repro.scope.scanner as scanner_module

        def exploding_negotiation(session, domain, link, result, settings):
            raise RuntimeError("negotiation exploded")

        monkeypatch.setattr(
            scanner_module, "probe_negotiation", exploding_negotiation
        )
        network, domain = deploy_vendor("nginx")
        report = run_conformance(sim_session(network), domain)
        v = verdicts(report)
        assert v["tls-alpn"] is Verdict.SKIP
        assert report.musts_failed == 0
        assert not report.fully_conformant
        assert report.summary().endswith("fully conformant: False\n")

    def test_settings_checks_skip_when_negotiation_raised(self, monkeypatch):
        # The SETTINGS checks judge what the column's negotiation read;
        # with nothing read they skip instead of failing the server.
        import repro.scope.scanner as scanner_module

        def exploding_negotiation(session, domain, link, result, settings):
            raise RuntimeError("negotiation exploded")

        monkeypatch.setattr(
            scanner_module, "probe_negotiation", exploding_negotiation
        )
        network, domain = deploy_vendor("nginx")
        report = run_conformance(sim_session(network), domain)
        v = verdicts(report)
        assert report.settings is None
        for check_id in ("preface-settings", "concurrent-floor"):
            assert v[check_id] is Verdict.SKIP, check_id
        assert v["settings-ack"] is Verdict.PASS
        assert v["tls-alpn"] is Verdict.SKIP  # the column crashed

    def test_a_raised_probe_skips_the_column_and_keeps_the_settings(
        self, monkeypatch
    ):
        # The column is the scan's report: a probe that raised there fails
        # every scored row, while the negotiation fetch's SETTINGS stand.
        import repro.scope.scanner as scanner_module

        def exploding_ping(session, domain, link, result):
            raise RuntimeError("ping exploded")

        monkeypatch.setattr(scanner_module, "probe_ping", exploding_ping)
        network, domain = deploy_vendor("nginx")
        report = run_conformance(sim_session(network), domain)
        v = verdicts(report)
        assert report.cells == {}
        assert report.settings is not None
        for row in SCORED_ROWS:
            assert v[row.check_id] is Verdict.SKIP, row.check_id
        assert "ping exploded" in next(
            r.detail for r in report.results if r.check_id == "ping-echo"
        )
        for check_id in ("preface-settings", "settings-ack", "concurrent-floor"):
            assert v[check_id] is Verdict.PASS, check_id
