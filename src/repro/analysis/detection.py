"""Real-time slow-rate attack detection over frame traces (ISSUE 7).

A :class:`ConnectionMonitor` consumes one connection's inbound frames
incrementally — the same schema-v3 ``(at, frame)`` stream the engines
record into :class:`~repro.scope.trace.ConnectionTimeline` — and emits
a :class:`Verdict` *mid-connection*, as soon as the evidence crosses a
rule threshold.  The rules mirror the engine's abuse guards but are
deliberately independent of them: the detector watches traffic, the
guards enforce policy, and the scoring harness measures how well
watching alone would have caught each battery profile.

Rules (all thresholds on :class:`DetectorConfig`):

* ``slow-preface`` — an h2 connection whose preface is still
  incomplete ``preface_deadline`` seconds after it opened;
* ``slow-headers`` — a header block (HEADERS … CONTINUATION) still
  unterminated ``header_deadline`` seconds after it started;
* ``zero-window-stall`` — a client announcing a tiny initial window
  that opens several streams and then keeps the connection alive past
  ``stall_window`` without granting window;
* ``ping-flood`` / ``settings-flood`` / ``rst-flood`` /
  ``priority-churn`` — sliding-window frame-rate thresholds;
* ``table-flood`` — a client announcing a SETTINGS_HEADER_TABLE_SIZE
  no browser needs, which only buys it room in our encoder's table.

The last two thresholds are module constants, not configuration: the
benign corpus peaks at one PRIORITY frame a second and never announces
a table size, so there is nothing to tune them against.

Detection latency is inherently duration-bound: a benign probe with a
small window is indistinguishable from a young zero-window stall, so
``stall_window`` must exceed the longest benign probe budget (the
probe suite's default wait is 8 s; the default here is 10 s).  The
stall rule additionally requires ``stall_min_streams`` concurrent
streams — memory amplification needs many stalled responses, while
the probe suite's tiny-window measurement stalls exactly one.

:func:`score_corpus` evaluates the detector on labelled timelines —
benign chaos-campaign traffic vs each battery profile — reporting
precision, recall and per-profile time-to-detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.h2.frames import (
    ContinuationFrame,
    Frame,
    FrameFlag,
    HeadersFrame,
    PingFrame,
    PriorityFrame,
    RstStreamFrame,
    SettingsFrame,
    WindowUpdateFrame,
)
from repro.scope.trace import ConnectionTimeline

#: SETTINGS_HEADER_TABLE_SIZE and SETTINGS_INITIAL_WINDOW_SIZE identifiers.
_HEADER_TABLE_SIZE = 1
_INITIAL_WINDOW = 4
#: An announced header table above this is a flood in preparation (the
#: default is 4 096; browsers announce 65 536).
_MAX_HEADER_TABLE_SIZE = 2**20
#: More PRIORITY frames than this inside one ``rate_window`` is churn (a
#: page load re-prioritises a handful of streams).
_PRIORITY_RATE = 40


@dataclass(frozen=True)
class DetectorConfig:
    """Rule thresholds.  Defaults are tuned to the testbed: strict
    enough to catch every battery profile well inside a 16 s attack
    window, loose enough that the probe suite's own protocol abuse
    (tiny windows, PING batches, deliberate violations) stays clean."""

    #: Seconds an h2 connection may take to complete the preface.
    preface_deadline: float = 3.0
    #: Seconds a header block may stay unterminated.
    header_deadline: float = 3.0
    #: Seconds a tiny-window connection may idle without window grants.
    stall_window: float = 10.0
    #: Initial windows at or below this are "tiny" (attack-sized).
    tiny_window_threshold: int = 256
    #: Streams a tiny-window connection must hold open before the stall
    #: rule applies: pinning server memory at scale requires concurrent
    #: stalled responses, while the probe suite's benign tiny-window
    #: measurement stalls exactly one.
    stall_min_streams: int = 2
    #: Frame-rate thresholds: more than ``*_rate`` frames inside any
    #: ``rate_window`` triggers the corresponding flood verdict.
    ping_rate: int = 30
    settings_rate: int = 12
    rst_rate: int = 40
    rate_window: float = 1.0


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
        config: DetectorConfig | None = None,
        protocol: str = "h2",
    ):
        self.config = config or DetectorConfig()
        self.protocol = protocol
        self.opened_at = opened_at
        self.verdict: Verdict | None = None
        self._preface_done = not protocol.startswith("h2")
        self._first_frame_at: float | None = None
        self._assembly_started: float | None = None
        self._tiny_window = False
        self._window_granted = False
        self._streams: set[int] = set()
        self._rates: dict[str, list[float]] = {
            kind: [] for kind in ("ping", "settings", "rst", "priority")
        }

    # -- rule engine ---------------------------------------------------

    def _flag(self, at: float, label: str, reason: str) -> None:
        if self.verdict is None:
            self.verdict = Verdict(at=at, label=label, reason=reason)

    def tick(self, at: float) -> Verdict | None:
        """Evaluate time-based rules at clock ``at`` (no frame).

        Verdicts are stamped at the instant the threshold was crossed,
        not at the polling instant: a live monitor arms a timer per
        deadline, so its detection latency is the deadline itself, no
        matter how often replay happens to call :meth:`tick`.
        """
        if self.verdict is not None:
            return self.verdict
        cfg = self.config
        if not self._preface_done and at - self.opened_at >= cfg.preface_deadline:
            self._flag(
                self.opened_at + cfg.preface_deadline,
                "slow_preface",
                f"preface incomplete after {cfg.preface_deadline:g}s",
            )
        elif (
            self._assembly_started is not None
            and at - self._assembly_started >= cfg.header_deadline
        ):
            self._flag(
                self._assembly_started + cfg.header_deadline,
                "slow_headers",
                f"header block open after {cfg.header_deadline:g}s",
            )
        elif (
            self._tiny_window
            and not self._window_granted
            and len(self._streams) >= cfg.stall_min_streams
            and at - self.opened_at >= cfg.stall_window
        ):
            self._flag(
                self.opened_at + cfg.stall_window,
                "zero_window_stall",
                f"tiny window, no grants for {cfg.stall_window:g}s",
            )
        return self.verdict

    def _bump(self, kind: str, at: float, limit: int, label: str) -> None:
        window = self._rates[kind]
        window.append(at)
        horizon = at - self.config.rate_window
        while window and window[0] < horizon:
            window.pop(0)
        if len(window) > limit:
            self._flag(
                at,
                label,
                f"{len(window)} {kind} frames in {self.config.rate_window:g}s",
            )

    def observe(self, at: float, frame: Frame) -> Verdict | None:
        """Feed one inbound frame; returns the verdict once reached."""
        # Time rules first: the gap *before* this frame may already
        # prove the attack (a CONTINUATION byte arriving late doesn't
        # un-prove the trickle).
        self.tick(at)
        if self.verdict is not None:
            return self.verdict
        cfg = self.config
        if self._first_frame_at is None:
            self._first_frame_at = at
            # Frames only parse after the preface completes, so the
            # first one is proof of a finished preface.
            self._preface_done = True
        if isinstance(frame, SettingsFrame) and not frame.is_ack:
            for ident, value in frame.settings:
                if ident == _INITIAL_WINDOW and value <= cfg.tiny_window_threshold:
                    self._tiny_window = True
                if ident == _HEADER_TABLE_SIZE and value > _MAX_HEADER_TABLE_SIZE:
                    self._flag(
                        at, "table_flood", f"announced a {value}-octet header table"
                    )
            self._bump("settings", at, cfg.settings_rate, "settings_flood")
        elif isinstance(frame, PingFrame) and not frame.is_ack:
            self._bump("ping", at, cfg.ping_rate, "ping_flood")
        elif isinstance(frame, RstStreamFrame):
            self._bump("rst", at, cfg.rst_rate, "rst_churn")
        elif isinstance(frame, PriorityFrame):
            self._bump("priority", at, _PRIORITY_RATE, "priority_churn")
        elif isinstance(frame, WindowUpdateFrame):
            self._window_granted = True
        if isinstance(frame, (HeadersFrame, ContinuationFrame)):
            if isinstance(frame, HeadersFrame):
                self._streams.add(frame.stream_id)
            if frame.flags & FrameFlag.END_HEADERS:
                self._assembly_started = None
            elif self._assembly_started is None:
                self._assembly_started = at
        return self.verdict


def analyze_timeline(
    timeline: ConnectionTimeline, config: DetectorConfig | None = None
) -> Verdict | None:
    """Replay one recorded connection through a monitor.

    Evaluates time rules over the inter-frame gaps and once more at the
    connection's end, exactly as a live monitor polling alongside the
    traffic would.
    """
    monitor = ConnectionMonitor(
        timeline.opened_at, config=config, protocol=timeline.protocol
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
    config: DetectorConfig | None = None,
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
        verdict = analyze_timeline(timeline, config)
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
