"""Abuse rules over one connection's inbound frames: the one core the
server engine's guards run live and the detector replays, each layer
with its own thresholds (``None`` turns a rule off).  A rule is named by
the GOAWAY debug data the engine evicts with.  Deadlines are compared
as instants (``at >= start + deadline``) and a verdict is stamped at its
threshold instant, so one timer at :meth:`AbuseRules.due` and a replay
that ticks between frames agree to the instant.  The first verdict wins.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from repro.h2.frames import (
    ContinuationFrame,
    Frame,
    FrameFlag,
    HeadersFrame,
    PingFrame,
    PriorityFrame,
    RstStreamFrame,
    SettingsFrame,
)

#: The rate-limited frame types, by rule.  A PING or SETTINGS ack
#: answers one of our own frames and never counts.
_RATED = {
    PingFrame: "ping",
    SettingsFrame: "settings",
    RstStreamFrame: "rst",
    PriorityFrame: "priority",
}


class AbuseVerdict(NamedTuple):
    """The rule that tripped, its threshold instant, and (rate rules)
    the frames its window held."""

    rule: str
    at: float
    count: int = 0


class AbuseRules:
    """The rules for one connection, fed its frames in arrival order:

    * ``preface-timeout`` — no frame parsed, nor :meth:`preface_done`
      called, ``preface`` seconds after the connection opened;
    * ``header-timeout`` — a header block (HEADERS without END_HEADERS,
      then CONTINUATIONs) still open ``header`` seconds after it began;
    * ``ping-flood`` / ``settings-flood`` / ``rst-flood`` /
      ``priority-flood`` — more non-ack PINGs, non-ack SETTINGS,
      RST_STREAMs or PRIORITY frames than the limit in any sliding
      ``window`` seconds.
    """

    def __init__(
        self,
        opened_at: float,
        *,
        preface: float | None = None,
        header: float | None = None,
        window: float = 1.0,
        ping: int | None = None,
        settings: int | None = None,
        rst: int | None = None,
        priority: int | None = None,
    ):
        self.verdict: AbuseVerdict | None = None
        #: The pending deadline as ``(rule, instant)``.  There is at most
        #: one: a header block opens on a frame, and a frame ends the
        #: preface.
        self._deadline: tuple[str, float] | None = None
        if preface is not None:
            self._deadline = ("preface-timeout", opened_at + preface)
        self._header = header
        self._window = window
        limits = {"ping": ping, "settings": settings, "rst": rst, "priority": priority}
        self._limits = {kind: n for kind, n in limits.items() if n is not None}
        self._arrivals = {kind: deque() for kind in self._limits}

    def _flag(self, rule: str, at: float, count: int = 0) -> None:
        if self.verdict is None:
            self.verdict = AbuseVerdict(rule, at, count)

    def preface_done(self) -> None:
        """The preface is complete: its deadline no longer applies."""
        if self._deadline is not None and self._deadline[0] == "preface-timeout":
            self._deadline = None

    def due(self) -> float | None:
        """The pending deadline instant, ``None`` when there is none."""
        if self.verdict is not None or self._deadline is None:
            return None
        return self._deadline[1]

    def tick(self, at: float) -> AbuseVerdict | None:
        """Trip the pending deadline if it has passed by clock ``at``."""
        if self._deadline is not None and at >= self._deadline[1]:
            self._flag(*self._deadline)
        return self.verdict

    def observe(self, at: float, frame: Frame) -> AbuseVerdict | None:
        """Feed one frame that arrived at ``at``; deadlines wait for
        :meth:`tick`."""
        if self.verdict is not None:
            return self.verdict
        self.preface_done()
        kind = _RATED.get(type(frame))
        if kind in self._limits and not getattr(frame, "is_ack", False):
            arrivals = self._arrivals[kind]
            arrivals.append(at)
            while arrivals[0] < at - self._window:
                arrivals.popleft()
            if len(arrivals) > self._limits[kind]:
                self._flag(f"{kind}-flood", at, len(arrivals))
        elif self._header is not None and isinstance(
            frame, (HeadersFrame, ContinuationFrame)
        ):
            if frame.flags & FrameFlag.END_HEADERS:
                self._deadline = None
            elif self._deadline is None:
                self._deadline = ("header-timeout", at + self._header)
        return self.verdict
