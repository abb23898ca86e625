"""RFC 7540 conformance checking — H2Scope as an h2spec-style tester.

Table III is, at heart, a conformance report; this module formalizes
it: every check carries the RFC section it tests, a requirement level
(MUST / SHOULD / feature), runs one focused probe against a target, and
returns a typed verdict.  ``run_conformance`` executes the whole suite
against one site and produces a report with a compliance score, which
is how the paper's "not all implementations strictly follow RFC 7540"
becomes a per-server, per-requirement statement.

The checks deliberately reuse the Section III probes where one exists;
a few additional protocol details (PING payload echo, SETTINGS
acknowledgement, GOAWAY last-stream-id sanity) get their own minimal
probes here.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.h2 import events as ev
from repro.scope.probes import (
    probe_large_window_update,
    probe_multiplexing,
    probe_negotiation,
    probe_self_dependency,
    probe_settings,
    probe_tiny_window,
    probe_zero_window_headers,
    probe_zero_window_update,
)
from repro.scope.report import ErrorReaction, TinyWindowResult
from repro.scope.session import ProbeSession


class Level(enum.Enum):
    """Requirement strength, RFC 2119 style."""

    MUST = "MUST"
    SHOULD = "SHOULD"
    FEATURE = "feature"  # optional capability (push, NPN, ...)


class Verdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    SKIP = "skip"  # prerequisite missing (e.g. no large objects)


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
        return self.musts_failed == 0 and self._count(Verdict.FAIL, Level.SHOULD) == 0

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


@dataclass
class _Check:
    check_id: str
    section: str
    level: Level
    description: str
    run: Callable[["ProbeSession", str, dict], tuple[Verdict, str]]


def _check_alpn(session, domain, ctx):
    negotiation = probe_negotiation(session, domain)
    ctx["negotiation"] = negotiation
    if negotiation.alpn_h2:
        return Verdict.PASS, "h2 selected via ALPN"
    return Verdict.FAIL, "server did not negotiate h2 via ALPN"


def _check_settings_frame(session, domain, ctx):
    settings = probe_settings(session, domain)
    ctx["settings"] = settings
    if settings.settings_frame_received:
        return Verdict.PASS, f"announced {len(settings.announced)} parameters"
    return Verdict.FAIL, "no SETTINGS frame after the connection preface"


def _check_settings_ack(session, domain, ctx):
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


def _check_ping_echo(session, domain, ctx):
    client = session.client(domain)
    try:
        if not client.establish_h2():
            return Verdict.SKIP, "h2 not established"
        payload = b"\x01\x02\x03\x04conf"
        client.send_ping(payload)
        client.wait_for(
            lambda: any(
                isinstance(te.event, ev.PingAckReceived) for te in client.events
            ),
            timeout=5,
        )
        acks = [
            te.event
            for te in client.events
            if isinstance(te.event, ev.PingAckReceived)
        ]
        if not acks:
            return Verdict.FAIL, "no PING acknowledgement"
        if acks[0].payload != payload:
            return Verdict.FAIL, "PING ack payload differs from request"
        return Verdict.PASS, "PING echoed with identical payload"
    finally:
        client.close()


def _check_flow_control_data(session, domain, ctx):
    path = ctx.get("large_path", "/big.bin")
    category, size, _ = probe_tiny_window(session, domain, sframe=64, path=path)
    if category is TinyWindowResult.WINDOW_SIZED_DATA and size == 64:
        return Verdict.PASS, "DATA frames sized to the announced window"
    return Verdict.FAIL, f"observed {category.value} (first size {size})"


def _check_headers_not_flow_controlled(session, domain, ctx):
    compliant = probe_zero_window_headers(
        session, domain, path=ctx.get("large_path", "/big.bin")
    )
    if compliant is None:
        return Verdict.SKIP, "h2 not established"
    if compliant:
        return Verdict.PASS, "HEADERS returned while the window was zero"
    return Verdict.FAIL, "HEADERS withheld behind flow control"


def _check_zero_window_update(session, domain, ctx):
    reaction, _ = probe_zero_window_update(
        session, domain, level="stream", path=ctx.get("large_path", "/big.bin")
    )
    if reaction is ErrorReaction.RST_STREAM:
        return Verdict.PASS, "zero increment answered with RST_STREAM"
    return Verdict.FAIL, f"zero increment answered with {reaction.value}"


def _check_window_overflow_stream(session, domain, ctx):
    reaction = probe_large_window_update(
        session, domain, level="stream", path=ctx.get("large_path", "/big.bin")
    )
    if reaction is ErrorReaction.RST_STREAM:
        return Verdict.PASS, "overflow terminated the stream"
    if reaction is ErrorReaction.GOAWAY:
        return Verdict.PASS, "overflow terminated the connection"
    return Verdict.FAIL, "window overflow went unanswered"


def _check_window_overflow_connection(session, domain, ctx):
    reaction = probe_large_window_update(
        session, domain, level="connection", path=ctx.get("large_path", "/big.bin")
    )
    if reaction is ErrorReaction.GOAWAY:
        return Verdict.PASS, "connection overflow answered with GOAWAY"
    return Verdict.FAIL, f"connection overflow answered with {reaction.value}"


def _check_self_dependency(session, domain, ctx):
    reaction = probe_self_dependency(
        session, domain, path=ctx.get("large_path", "/big.bin")
    )
    if reaction is ErrorReaction.RST_STREAM:
        return Verdict.PASS, "self-dependency treated as a stream error"
    return Verdict.FAIL, f"self-dependency answered with {reaction.value}"


def _check_max_concurrent_floor(session, domain, ctx):
    settings = ctx.get("settings") or probe_settings(session, domain)
    value = settings.announced.get(3)
    if not settings.settings_frame_received:
        return Verdict.SKIP, "no SETTINGS frame"
    if value is None:
        return Verdict.PASS, "unlimited concurrent streams"
    if value >= 100:
        return Verdict.PASS, f"announced {value}"
    return Verdict.FAIL, f"announced {value} (< the recommended 100)"


def _check_multiplexing(session, domain, ctx):
    paths = ctx.get("multiplex_paths")
    if not paths:
        return Verdict.SKIP, "no large objects available"
    result = probe_multiplexing(session, domain, paths)
    if result.interleaved:
        return Verdict.PASS, "responses interleaved across streams"
    return Verdict.FAIL, "responses strictly sequential"


CHECKS: list[_Check] = [
    _Check("tls-alpn", "§3.3", Level.MUST,
           "HTTP/2 over TLS negotiated via ALPN", _check_alpn),
    _Check("preface-settings", "§3.5", Level.MUST,
           "SETTINGS frame follows the connection preface", _check_settings_frame),
    _Check("settings-ack", "§6.5.3", Level.MUST,
           "peer SETTINGS acknowledged", _check_settings_ack),
    _Check("ping-echo", "§6.7", Level.MUST,
           "PING answered with identical payload", _check_ping_echo),
    _Check("flow-control-data", "§6.9.1", Level.MUST,
           "DATA frames respect the flow-control window", _check_flow_control_data),
    _Check("headers-exempt", "§6.9", Level.MUST,
           "HEADERS frames are not flow-controlled",
           _check_headers_not_flow_controlled),
    _Check("zero-window-update", "§6.9", Level.MUST,
           "zero WINDOW_UPDATE increment treated as a stream error",
           _check_zero_window_update),
    _Check("overflow-stream", "§6.9.1", Level.MUST,
           "stream window overflow terminates stream or connection",
           _check_window_overflow_stream),
    _Check("overflow-connection", "§6.9.1", Level.MUST,
           "connection window overflow terminates the connection",
           _check_window_overflow_connection),
    _Check("self-dependency", "§5.3.1", Level.MUST,
           "self-dependent PRIORITY treated as a stream error",
           _check_self_dependency),
    _Check("concurrent-floor", "§6.5.2", Level.SHOULD,
           "MAX_CONCURRENT_STREAMS not below 100", _check_max_concurrent_floor),
    _Check("multiplexing", "§5", Level.FEATURE,
           "concurrent requests are multiplexed", _check_multiplexing),
]


def run_conformance(
    session: ProbeSession,
    domain: str,
    large_path: str = "/big.bin",
    multiplex_paths: list[str] | None = None,
) -> ConformanceReport:
    """Run the whole check suite against one target over ``session``."""
    report = ConformanceReport(domain=domain)
    ctx: dict = {"large_path": large_path, "multiplex_paths": multiplex_paths}
    for check in CHECKS:
        try:
            verdict, detail = check.run(session, domain, ctx)
        except Exception as exc:  # noqa: BLE001 - a checker must not crash
            verdict, detail = Verdict.SKIP, f"{type(exc).__name__}: {exc}"
        report.results.append(
            CheckResult(
                check_id=check.check_id,
                section=check.section,
                level=check.level,
                description=check.description,
                verdict=verdict,
                detail=detail,
            )
        )
    return report
