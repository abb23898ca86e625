"""Real-time slow-rate attack detection over frame traces (ISSUE 7).

A :class:`ConnectionMonitor` consumes one connection's inbound frames
incrementally — the same schema-v3 ``(at, frame)`` stream the engines
record into :class:`~repro.scope.trace.ConnectionTimeline` — and emits
a :class:`Verdict` *mid-connection*, as soon as the evidence crosses a
rule threshold.  Detection is defence: most rules are
:mod:`repro.h2.abuse`, the core the server engine's abuse guards run
live; only the thresholds differ (the guards' are the vendor's, the
constants below are ours).

* ``slow_preface`` / ``slow_headers`` / ``ping_flood`` /
  ``settings_flood`` / ``rst_churn`` / ``priority_churn`` — the core's
  preface and header-block deadlines and sliding-window frame rates;
* ``zero_window_stall`` — a client announcing a tiny initial window
  that holds several streams open (a stream it cancelled with
  RST_STREAM no longer counts) and keeps the connection alive past
  ``stall_window`` without granting window.  A benign probe with a
  small window looks like a young stall, so ``stall_window`` exceeds
  the probe suite's longest wait (8 s; the default is 10 s; ``h2scope
  detect --stall-window`` sets it);
* ``table_flood`` — a client announcing a SETTINGS_HEADER_TABLE_SIZE
  no browser needs, which only buys it room in our encoder's table.

Every other threshold is a module constant, not configuration, tuned
to the testbed: strict enough to catch every battery profile well
inside a 16 s attack window, loose enough that the probe suite's own
protocol abuse (tiny windows, PING batches, deliberate violations)
stays clean.  The benign corpus peaks at one PRIORITY frame a second
and never announces a table size, so there is nothing to tune those
two against.

:func:`score_corpus` evaluates the detector on labelled timelines —
benign chaos-campaign traffic vs each battery profile — reporting
precision, recall and per-profile time-to-detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.h2.abuse import AbuseRules, AbuseVerdict
from repro.h2.frames import (
    Frame,
    HeadersFrame,
    RstStreamFrame,
    SettingsFrame,
    WindowUpdateFrame,
)
from repro.scope.trace import ConnectionTimeline

#: SETTINGS_HEADER_TABLE_SIZE and SETTINGS_INITIAL_WINDOW_SIZE identifiers.
_HEADER_TABLE_SIZE = 1
_INITIAL_WINDOW = 4
#: Seconds an h2 connection may take to complete the preface.
PREFACE_DEADLINE = 3.0
#: Seconds a header block may stay unterminated.
HEADER_DEADLINE = 3.0
#: Seconds a tiny-window connection may idle without window grants,
#: unless the caller gives its own.
STALL_WINDOW = 10.0
#: Initial windows at or below this are "tiny" (attack-sized).
_TINY_WINDOW = 256
#: Streams a tiny-window connection must hold open before the stall rule
#: applies: pinning server memory at scale requires concurrent stalled
#: responses, while the probe suite's benign tiny-window measurement
#: stalls exactly one.
_STALL_MIN_STREAMS = 2
#: Frame-rate thresholds: more than this many non-ack PINGs, non-ack
#: SETTINGS or RST_STREAMs inside any ``_RATE_WINDOW`` seconds triggers
#: the corresponding flood verdict.
_PING_RATE = 30
_SETTINGS_RATE = 12
_RST_RATE = 40
_RATE_WINDOW = 1.0
#: An announced header table above this is a flood in preparation (the
#: default is 4 096; browsers announce 65 536).
_MAX_HEADER_TABLE_SIZE = 2**20
#: More PRIORITY frames than this inside one ``_RATE_WINDOW`` is churn (a
#: page load re-prioritises a handful of streams).
_PRIORITY_RATE = 40
#: The label of each rule core verdict.
_LABELS = {
    "preface-timeout": "slow_preface",
    "header-timeout": "slow_headers",
    "ping-flood": "ping_flood",
    "settings-flood": "settings_flood",
    "rst-flood": "rst_churn",
    "priority-flood": "priority_churn",
}


@dataclass
class Verdict:
    """One mid-connection detection."""

    at: float
    label: str
    reason: str


class ConnectionMonitor:
    """Incremental detector for one connection.

    Feed frames in arrival order via :meth:`observe`; call :meth:`tick`
    with the current clock to let pure-absence rules (nothing arriving
    at all) fire between frames.  The first rule to trip wins:
    :attr:`verdict` stays fixed afterwards.
    """

    def __init__(
        self,
        opened_at: float,
        stall_window: float = STALL_WINDOW,
        protocol: str = "h2",
    ):
        self.opened_at = opened_at
        self.stall_window = stall_window
        self.verdict: Verdict | None = None
        self._rules = AbuseRules(
            opened_at,
            preface=PREFACE_DEADLINE,
            header=HEADER_DEADLINE,
            window=_RATE_WINDOW,
            ping=_PING_RATE,
            settings=_SETTINGS_RATE,
            rst=_RST_RATE,
            priority=_PRIORITY_RATE,
        )
        if not protocol.startswith("h2"):
            self._rules.preface_done()
        self._tiny_window = False
        self._window_granted = False
        self._streams: set[int] = set()

    def _flag(self, at: float, label: str, reason: str) -> None:
        if self.verdict is None:
            self.verdict = Verdict(at=at, label=label, reason=reason)

    def _adopt(self, found: AbuseVerdict | None) -> None:
        """Take the rule core's verdict under this detector's label."""
        if found is not None:
            reason = found.rule
            if found.count:
                reason += f": {found.count} frames in {_RATE_WINDOW:g}s"
            self._flag(found.at, _LABELS[found.rule], reason)

    def tick(self, at: float) -> Verdict | None:
        """Evaluate time-based rules at clock ``at`` (no frame).

        Verdicts are stamped at the instant the threshold was crossed,
        not at the polling instant: the server engine runs the same
        rules live with one timer at the next deadline, so replay finds
        the instant it would have evicted at, however often it ticks.
        """
        if self.verdict is not None:
            return self.verdict
        self._adopt(self._rules.tick(at))
        stall_window = self.stall_window
        if (
            self.verdict is None
            and self._tiny_window
            and not self._window_granted
            and len(self._streams) >= _STALL_MIN_STREAMS
            and at >= self.opened_at + stall_window
        ):
            self._flag(
                self.opened_at + stall_window,
                "zero_window_stall",
                f"tiny window, no grants for {stall_window:g}s",
            )
        return self.verdict

    def observe(self, at: float, frame: Frame) -> Verdict | None:
        """Feed one inbound frame; returns the verdict once reached."""
        # Time rules first: the gap *before* this frame may already
        # prove the attack (a CONTINUATION byte arriving late doesn't
        # un-prove the trickle).
        self.tick(at)
        if self.verdict is not None:
            return self.verdict
        if isinstance(frame, SettingsFrame) and not frame.is_ack:
            for ident, value in frame.settings:
                if ident == _INITIAL_WINDOW and value <= _TINY_WINDOW:
                    self._tiny_window = True
                if ident == _HEADER_TABLE_SIZE and value > _MAX_HEADER_TABLE_SIZE:
                    self._flag(
                        at, "table_flood", f"announced a {value}-octet header table"
                    )
        elif isinstance(frame, WindowUpdateFrame):
            self._window_granted = True
        elif isinstance(frame, HeadersFrame):
            self._streams.add(frame.stream_id)
        elif isinstance(frame, RstStreamFrame):
            # A cancelled stream pins nothing.  The END_STREAM of a GET
            # ends only the client's half: its response is still held.
            self._streams.discard(frame.stream_id)
        self._adopt(self._rules.observe(at, frame))
        return self.verdict


def analyze_timeline(
    timeline: ConnectionTimeline, stall_window: float = STALL_WINDOW
) -> Verdict | None:
    """Replay one recorded connection through a monitor.

    Evaluates time rules over the inter-frame gaps and once more at the
    connection's end; a verdict lands on its threshold instant, where
    the engine's guard timer would have fired.
    """
    monitor = ConnectionMonitor(
        timeline.opened_at, stall_window, protocol=timeline.protocol
    )
    for traced in timeline.frames:
        monitor.observe(traced.at, traced.frame)
        if monitor.verdict is not None:
            return monitor.verdict
    return monitor.tick(timeline.end_at)


# ----------------------------------------------------------------------
# Corpus scoring
# ----------------------------------------------------------------------


@dataclass
class ProfileScore:
    """Recall and latency for one attack profile."""

    detected: int = 0
    of: int = 0
    #: Seconds from connection open to verdict, averaged over detected.
    mean_time_to_detection: float | None = None
    #: Verdict labels that were not this profile's name.
    mislabels: int = 0


@dataclass
class DetectionScore:
    """Detector quality over a labelled corpus."""

    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    true_negatives: int = 0
    per_profile: dict[str, ProfileScore] = field(default_factory=dict)

    @property
    def precision(self) -> float:
        flagged = self.true_positives + self.false_positives
        return self.true_positives / flagged if flagged else 1.0

    @property
    def recall(self) -> float:
        attacks = self.true_positives + self.false_negatives
        return self.true_positives / attacks if attacks else 1.0

    def to_json(self) -> dict:
        return {
            "precision": round(self.precision, 4),
            "recall": round(self.recall, 4),
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "false_negatives": self.false_negatives,
            "true_negatives": self.true_negatives,
            "per_profile": {
                name: {
                    "detected": p.detected,
                    "of": p.of,
                    "mean_time_to_detection": (
                        None
                        if p.mean_time_to_detection is None
                        else round(p.mean_time_to_detection, 4)
                    ),
                    "mislabels": p.mislabels,
                }
                for name, p in sorted(self.per_profile.items())
            },
        }


def score_corpus(
    timelines: list[ConnectionTimeline],
    stall_window: float = STALL_WINDOW,
) -> DetectionScore:
    """Score the detector on labelled timelines.

    A timeline's ``label`` is ``None`` for benign traffic or the attack
    profile's name.  Any verdict on an attack timeline counts as a true
    positive (the attack was caught); verdicts under the wrong label
    are additionally tallied in ``mislabels``.
    """
    score = DetectionScore()
    latencies: dict[str, list[float]] = {}
    for timeline in timelines:
        verdict = analyze_timeline(timeline, stall_window)
        if timeline.label is None:
            if verdict is None:
                score.true_negatives += 1
            else:
                score.false_positives += 1
            continue
        profile = score.per_profile.setdefault(timeline.label, ProfileScore())
        profile.of += 1
        if verdict is None:
            score.false_negatives += 1
            continue
        score.true_positives += 1
        profile.detected += 1
        if verdict.label != timeline.label:
            profile.mislabels += 1
        latencies.setdefault(timeline.label, []).append(
            verdict.at - timeline.opened_at
        )
    for name, values in latencies.items():
        score.per_profile[name].mean_time_to_detection = sum(values) / len(values)
    return score
