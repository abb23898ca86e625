"""RFC 7540 conformance checking — H2Scope as an h2spec-style tester.

Table III is, at heart, a conformance report, and this module is the
only place a probe result becomes an RFC verdict.  :data:`ROWS` is the
table's row list: each row carries the "RFC 7540" column's cell, and
every row the RFC requires something of also carries the section, the
requirement level (MUST / SHOULD / feature) and the id of the check
that judges it.  :func:`matrix_cells` measures one target's column:
the scan's own probe sequence (:func:`~repro.scope.scanner.probe_target`
with :data:`~repro.scope.scanner.TESTBED_PLAN`), read by the pure
:func:`cells`.  This module calls no probe: even the Request
Multiplexing cell is read from Algorithm 1's DATA frames.
:meth:`Row.judge` turns a cell into a verdict, and
``experiments.table3`` scores the paper's matrix with the same rows.

:func:`run_conformance` measures the column once, judges every scored
row, then runs the three checks Table III has no row for (SETTINGS
after the preface, SETTINGS acknowledgement, the concurrency floor).
The two SETTINGS checks judge the frame the scan's negotiation fetch
received; only the acknowledgement check opens a connection.
Its report is how the paper's "not all implementations strictly follow
RFC 7540" becomes a per-server, per-requirement statement.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.h2 import events as ev
from repro.scope import scanner
from repro.scope.report import ErrorReaction, SettingsResult, SiteReport
from repro.scope.session import ProbeSession


class Level(enum.Enum):
    """Requirement strength, RFC 2119 style."""

    MUST = "MUST"
    SHOULD = "SHOULD"
    FEATURE = "feature"  # optional capability (push, HPACK indexing, ...)


class Verdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    SKIP = "skip"  # prerequisite missing (e.g. h2 not negotiated)


@dataclass(frozen=True)
class Row:
    """One Table III row and, if the RFC requires it, the check judging it."""

    label: str
    #: The row's cell in Table III's "RFC 7540" column.
    requirement: str
    #: None for a row the RFC does not require (NPN): it is not scored.
    level: Level | None = None
    section: str = ""
    check_id: str = ""
    description: str = ""
    #: Report detail for a PASS and for a FAIL; ``{cell}`` is the
    #: measured cell.
    passed: str = ""
    failed: str = ""

    def judge(self, cells: dict[str, str]) -> tuple[Verdict, str]:
        """PASS when the measured cell is the RFC's, FAIL otherwise; every
        row but ALPN is SKIP when neither ALPN nor NPN negotiated h2."""
        if self.label != "ALPN" and "support" not in (cells["ALPN"], cells["NPN"]):
            return Verdict.SKIP, "h2 not established"
        cell = cells[self.label]
        if cell == self.requirement:
            return Verdict.PASS, self.passed.format(cell=cell)
        return Verdict.FAIL, self.failed.format(cell=cell)


#: Table III's rows in the paper's order.
ROWS: tuple[Row, ...] = (
    Row("ALPN", "support", Level.MUST, "§3.3", "tls-alpn",
        "HTTP/2 over TLS negotiated via ALPN",
        "h2 selected via ALPN", "server did not negotiate h2 via ALPN"),
    Row("NPN", "does not require"),
    Row("Request Multiplexing", "support", Level.FEATURE, "§5", "multiplexing",
        "concurrent requests are multiplexed",
        "responses interleaved across streams", "responses strictly sequential"),
    Row("Flow Control on DATA Frames", "yes", Level.MUST, "§6.9.1",
        "flow-control-data", "DATA frames respect the flow-control window",
        "DATA frames sized to the announced window",
        "DATA frames not sized to the announced window"),
    Row("Flow Control on HEADERS Frames", "no", Level.MUST, "§6.9",
        "headers-exempt", "HEADERS frames are not flow-controlled",
        "HEADERS returned while the window was zero",
        "HEADERS withheld behind flow control"),
    Row("Zero Window Update on stream", "RST_STREAM", Level.MUST, "§6.9",
        "zero-window-update",
        "zero WINDOW_UPDATE increment treated as a stream error",
        "zero increment answered with {cell}",
        "zero increment answered with {cell}"),
    Row("Zero Window Update on connection", "GOAWAY", Level.MUST, "§6.9",
        "zero-window-update-connection",
        "zero connection WINDOW_UPDATE increment treated as a connection error",
        "zero connection increment answered with {cell}",
        "zero connection increment answered with {cell}"),
    Row("Large Window Update (Connection)", "GOAWAY", Level.MUST, "§6.9.1",
        "overflow-connection",
        "connection window overflow terminates the connection",
        "connection overflow answered with {cell}",
        "connection overflow answered with {cell}"),
    Row("Large Window Update (Stream)", "RST_STREAM", Level.MUST, "§6.9.1",
        "overflow-stream", "stream window overflow terminates the stream",
        "overflow terminated the stream", "stream overflow answered with {cell}"),
    Row("Server Push", "yes", Level.FEATURE, "§8.2", "server-push",
        "server push offered", "PUSH_PROMISE received", "no PUSH_PROMISE"),
    Row("Priority Mechanism Testing (Algorithm 1)", "pass", Level.SHOULD,
        "§5.3.1", "priority", "responses follow the dependency tree (Algorithm 1)",
        "responses completed in dependency order",
        "responses ignored the dependency tree"),
    Row("Self-dependent Stream", "RST_STREAM", Level.MUST, "§5.3.1",
        "self-dependency", "self-dependent PRIORITY treated as a stream error",
        "self-dependency treated as a stream error",
        "self-dependency answered with {cell}"),
    # RFC 7541 lets an encoder never index; like the paper, the suite
    # reads a ratio near 1 (support*) as defeating the feature.
    Row("Header Compression", "support", Level.FEATURE, "§4.3",
        "header-compression", "repeated response headers are indexed",
        "repeated response headers shrink",
        "repeated response headers did not shrink ({cell})"),
    Row("HTTP/2 PING", "support", Level.MUST, "§6.7", "ping-echo",
        "PING answered with identical payload",
        "PING echoed with identical payload",
        "no PING acknowledgement with the sent payload"),
)

#: The rows the RFC requires something of: one check each.
SCORED_ROWS = tuple(row for row in ROWS if row.level is not None)


def cells(report: SiteReport, plan: scanner.ProbePlan) -> dict[str, str]:
    """The Table III cells a scan's report holds, in :data:`ROWS` order.
    ``plan`` is the plan the report was scanned with; the DATA-frame row
    reads its Sframe."""
    fc = report.flow_control
    return {
        "ALPN": _support(report.negotiation.alpn_h2),
        "NPN": _support(report.negotiation.npn_h2),
        # Only Algorithm 1's context shows the server's own order.
        "Request Multiplexing": _support(report.priority.interleaved),
        # Only window-sized DATA records a first size above zero.
        "Flow Control on DATA Frames": _yes(fc.first_data_size == plan.sframe),
        "Flow Control on HEADERS Frames": _yes(not fc.headers_with_zero_window),
        "Zero Window Update on stream": _reaction_cell(fc.zero_update_stream),
        "Zero Window Update on connection": _reaction_cell(fc.zero_update_connection),
        "Large Window Update (Connection)": _reaction_cell(fc.large_update_connection),
        "Large Window Update (Stream)": _reaction_cell(fc.large_update_stream),
        "Server Push": _yes(report.push.push_received),
        "Priority Mechanism Testing (Algorithm 1)": (
            "pass" if report.priority.passes_algorithm1 else "fail"
        ),
        "Self-dependent Stream": _reaction_cell(report.priority.self_dependency),
        "Header Compression": _compression_cell(report.hpack.ratio),
        "HTTP/2 PING": _support(report.ping.ping_supported),
    }


def matrix_cells(session: ProbeSession, domain: str) -> dict[str, str]:
    """The Table III feature-matrix column for one target.

    Backend-agnostic: the session's backend decides whether the cells
    come from the simulated testbed or from a real server — the socket-
    backend differential test compares the two verdict-for-verdict.
    The target must serve the testbed object layout
    (:data:`~repro.scope.scanner.TESTBED_PLAN`); cells degrade to "no
    response" otherwise.  Raises when a probe raised.
    """
    return _column(
        scanner.probe_target(session, domain, plan=scanner.TESTBED_PLAN)
    )


def _column(report: SiteReport) -> dict[str, str]:
    """:func:`matrix_cells` from the scan's ``report``; raises on its
    first error."""
    if report.errors:
        raise RuntimeError(str(report.errors[0]))
    return cells(report, scanner.TESTBED_PLAN)


def _support(supported: bool) -> str:
    return "support" if supported else "no support"


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _compression_cell(ratio: float | None) -> str:
    if ratio is None:
        return "no support"
    return "support*" if ratio >= 0.95 else "support"


def _reaction_cell(reaction: ErrorReaction | None) -> str:
    return "no response" if reaction is None else reaction.value


@dataclass
class CheckResult:
    check_id: str
    section: str
    level: Level
    description: str
    verdict: Verdict
    detail: str = ""


@dataclass
class ConformanceReport:
    domain: str
    results: list[CheckResult] = field(default_factory=list)
    #: The Table III column the row checks were judged from (empty when
    #: measuring it raised).
    cells: dict[str, str] = field(default_factory=dict)
    #: The SETTINGS the scan's negotiation fetch received (None only
    #: when the negotiation probe raised).
    settings: SettingsResult | None = None

    def _count(self, verdict: Verdict, level: Level | None = None) -> int:
        return sum(
            1
            for r in self.results
            if r.verdict is verdict and (level is None or r.level is level)
        )

    @property
    def musts_passed(self) -> int:
        return self._count(Verdict.PASS, Level.MUST)

    @property
    def musts_failed(self) -> int:
        return self._count(Verdict.FAIL, Level.MUST)

    @property
    def fully_conformant(self) -> bool:
        """Every MUST and SHOULD row passed: a skipped one proves nothing."""
        scored = [r for r in self.results if r.level is not Level.FEATURE]
        return all(r.verdict is Verdict.PASS for r in scored)

    def summary(self) -> str:
        lines = [f"RFC 7540 conformance report for {self.domain}"]
        for result in self.results:
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "skip"}[
                result.verdict.value
            ]
            lines.append(
                f"  [{mark}] {result.check_id} ({result.section}, "
                f"{result.level.value}) {result.description}"
                + (f" — {result.detail}" if result.detail else "")
            )
        lines.append(
            f"  => MUST: {self.musts_passed} passed, {self.musts_failed} failed; "
            f"fully conformant: {self.fully_conformant}"
        )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _Check:
    """A check Table III has no row for.  It is given the session, the
    domain and the SETTINGS the column measured."""

    check_id: str
    section: str
    level: Level
    description: str
    run: Callable[[ProbeSession, str, SettingsResult | None], tuple[Verdict, str]]


_NOT_MEASURED = (Verdict.SKIP, "the negotiation probe raised")


def _check_preface_settings(session, domain, settings):
    if settings is None:
        return _NOT_MEASURED
    if settings.settings_frame_received:
        return Verdict.PASS, f"announced {len(settings.announced)} parameters"
    return Verdict.FAIL, "no SETTINGS frame after the connection preface"


def _check_settings_ack(session, domain, settings):
    client = session.client(domain)
    try:
        if not client.establish_h2():
            return Verdict.SKIP, "h2 not established"
        acked = client.wait_for(
            lambda: any(
                isinstance(te.event, ev.SettingsAcked) for te in client.events
            ),
            timeout=5,
        )
        if acked:
            return Verdict.PASS, "our SETTINGS were acknowledged"
        return Verdict.FAIL, "SETTINGS never acknowledged"
    finally:
        client.close()


def _check_concurrent_floor(session, domain, settings):
    if settings is None:
        return _NOT_MEASURED
    value = settings.announced.get(3)
    if not settings.settings_frame_received:
        return Verdict.SKIP, "no SETTINGS frame"
    if value is None:
        return Verdict.PASS, "unlimited concurrent streams"
    if value >= 100:
        return Verdict.PASS, f"announced {value}"
    return Verdict.FAIL, f"announced {value} (< the recommended 100)"


_CHECKS = (
    _Check("preface-settings", "§3.5", Level.MUST,
           "SETTINGS frame follows the connection preface", _check_preface_settings),
    _Check("settings-ack", "§6.5.3", Level.MUST,
           "peer SETTINGS acknowledged", _check_settings_ack),
    _Check("concurrent-floor", "§6.5.2", Level.SHOULD,
           "MAX_CONCURRENT_STREAMS not below 100", _check_concurrent_floor),
)

#: The report's line order: the twelve checks that predate the row
#: table keep their places, and each row added since sits beside its kin.
REPORT_ORDER = (
    "tls-alpn", "preface-settings", "settings-ack", "ping-echo",
    "flow-control-data", "headers-exempt", "zero-window-update",
    "zero-window-update-connection", "overflow-stream", "overflow-connection",
    "self-dependency", "priority", "concurrent-floor", "multiplexing",
    "server-push", "header-compression",
)


def _crashed(exc: Exception) -> tuple[Verdict, str]:
    return Verdict.SKIP, f"{type(exc).__name__}: {exc}"


def run_conformance(session: ProbeSession, domain: str) -> ConformanceReport:
    """Run the whole suite against one target over ``session``.

    The target must serve the testbed object layout that
    :func:`matrix_cells` reads.  A probe that raises skips every scored
    row, and the SETTINGS checks too when it was negotiation's (a
    checker must not crash).
    """
    report = ConformanceReport(domain=domain)
    try:
        scan = scanner.probe_target(session, domain, plan=scanner.TESTBED_PLAN)
        if not any(error.probe == "negotiation" for error in scan.errors):
            report.settings = scan.settings
        report.cells = _column(scan)
        outcomes = {row: row.judge(report.cells) for row in SCORED_ROWS}
    except Exception as exc:  # noqa: BLE001 - a checker must not crash
        outcomes = dict.fromkeys(SCORED_ROWS, _crashed(exc))
    for check in _CHECKS:
        try:
            outcomes[check] = check.run(session, domain, report.settings)
        except Exception as exc:  # noqa: BLE001 - a checker must not crash
            outcomes[check] = _crashed(exc)
    report.results = sorted(
        (
            CheckResult(check.check_id, check.section, check.level,
                        check.description, *outcome)
            for check, outcome in outcomes.items()
        ),
        key=lambda result: REPORT_ORDER.index(result.check_id),
    )
    return report
