"""Frame-trace rendering, recording and persistence.

Nothing in H2Scope keeps a frame history by default: a connection hands
the frames of each ``receive_bytes`` call to its caller and forgets
them (DESIGN §8).  A frame becomes a :class:`TracedFrame` only where a
caller asked for one, and this module renders such traces the way
protocol people read them::

    [  0.050] < SETTINGS  len=18  MAX_CONCURRENT_STREAMS=128 ...
    [  0.051] > HEADERS   stream=1 end_stream end_headers  len=33
    [  0.103] < DATA      stream=1  len=1  flow=1

Useful when a probe's verdict needs auditing: the trace shows exactly
which frames the server produced and when.

Three pieces live here:

* :func:`describe_frame` / :func:`render_trace` — pure rendering;
* :class:`TraceRecorder` — collects per-probe received-frame timelines
  while a scan runs (wired through
  :class:`~repro.scope.session.ProbeSession`);
* :func:`encode_trace` / :func:`decode_trace` — lossless round-trip of
  a timeline through a JSON-friendly document (frames stored as wire
  bytes, re-parsed on load), used by the report store's ``traces``
  table and the ``h2scope trace`` subcommand.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.h2.constants import ErrorCode, FrameFlag, SettingCode
from repro.h2.frames import (
    ContinuationFrame,
    DataFrame,
    Frame,
    GoAwayFrame,
    HeadersFrame,
    PingFrame,
    PriorityFrame,
    PushPromiseFrame,
    RstStreamFrame,
    SettingsFrame,
    UnknownFrame,
    WindowUpdateFrame,
    parse_frames,
    serialize_frame,
)


def _error_name(code: int) -> str:
    try:
        return ErrorCode(code).name
    except ValueError:
        return f"0x{code:x}"


def _setting_name(identifier: int) -> str:
    try:
        return SettingCode(identifier).name
    except ValueError:
        return f"0x{identifier:04x}"


def _flag_names(frame: Frame) -> list[str]:
    names = []
    if isinstance(frame, (DataFrame, HeadersFrame)) and frame.has_flag(
        FrameFlag.END_STREAM
    ):
        names.append("end_stream")
    if isinstance(frame, (SettingsFrame, PingFrame)) and frame.has_flag(FrameFlag.ACK):
        names.append("ack")
    if isinstance(
        frame, (HeadersFrame, PushPromiseFrame, ContinuationFrame)
    ) and frame.has_flag(FrameFlag.END_HEADERS):
        names.append("end_headers")
    if frame.has_flag(FrameFlag.PADDED) and isinstance(
        frame, (DataFrame, HeadersFrame, PushPromiseFrame)
    ):
        names.append("padded")
    return names


def describe_frame(frame: Frame) -> str:
    """One-line human description of a frame."""
    flags = " ".join(_flag_names(frame))
    flags = f" {flags}" if flags else ""

    if isinstance(frame, DataFrame):
        return (
            f"DATA          stream={frame.stream_id}{flags} "
            f"len={len(frame.data)} flow={frame.flow_controlled_length}"
        )
    if isinstance(frame, HeadersFrame):
        prio = ""
        if frame.priority is not None:
            prio = (
                f" prio(dep={frame.priority.depends_on}"
                f" w={frame.priority.weight}"
                f"{' excl' if frame.priority.exclusive else ''})"
            )
        return (
            f"HEADERS       stream={frame.stream_id}{flags}{prio} "
            f"block={len(frame.header_block)}B"
        )
    if isinstance(frame, PriorityFrame):
        p = frame.priority
        return (
            f"PRIORITY      stream={frame.stream_id} dep={p.depends_on} "
            f"w={p.weight}{' excl' if p.exclusive else ''}"
        )
    if isinstance(frame, RstStreamFrame):
        return (
            f"RST_STREAM    stream={frame.stream_id} "
            f"error={_error_name(frame.error_code)}"
        )
    if isinstance(frame, SettingsFrame):
        if frame.is_ack:
            return "SETTINGS      ack"
        pairs = " ".join(
            f"{_setting_name(i)}={v}" for i, v in frame.settings
        )
        return f"SETTINGS      {pairs or '(empty)'}"
    if isinstance(frame, PushPromiseFrame):
        return (
            f"PUSH_PROMISE  stream={frame.stream_id}{flags} "
            f"promised={frame.promised_stream_id}"
        )
    if isinstance(frame, PingFrame):
        return f"PING          {frame.payload.hex()}{flags}"
    if isinstance(frame, GoAwayFrame):
        debug = f" debug={frame.debug_data!r}" if frame.debug_data else ""
        return (
            f"GOAWAY        last_stream={frame.last_stream_id} "
            f"error={_error_name(frame.error_code)}{debug}"
        )
    if isinstance(frame, WindowUpdateFrame):
        return (
            f"WINDOW_UPDATE stream={frame.stream_id} "
            f"increment={frame.window_increment}"
        )
    if isinstance(frame, ContinuationFrame):
        return (
            f"CONTINUATION  stream={frame.stream_id}{flags} "
            f"block={len(frame.header_block)}B"
        )
    if isinstance(frame, UnknownFrame):
        return (
            f"UNKNOWN(0x{frame.type_code:02x}) stream={frame.stream_id} "
            f"len={len(frame.payload)}"
        )
    return repr(frame)  # pragma: no cover - exhaustive above


def render_trace(timed_frames: Iterable) -> str:
    """Render a list of :class:`TracedFrame` objects, each marked ``<``
    (received: traces record inbound frames)."""
    lines = []
    for timed in timed_frames:
        lines.append(f"[{timed.at:9.4f}] < {describe_frame(timed.frame)}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Recording and persistence
# ----------------------------------------------------------------------


@dataclass
class TracedFrame:
    """A frame with the time it was observed: the one ``(at, frame)``
    record.  One is made only where a caller asked for it: a
    :class:`TraceRecorder` inside a named probe, or an engine built with
    ``record_frames=True`` (:class:`ConnectionTimeline`)."""

    at: float
    frame: Frame


class TraceRecorder:
    """Collects received-frame timelines, one per named probe.

    A recorder travels with a :class:`~repro.scope.session.ProbeSession`;
    the scanner calls :meth:`begin` before each probe and every
    :class:`~repro.scope.client.ScopeClient` the session creates feeds
    :meth:`record` the frames each
    :meth:`~repro.h2.connection.H2Connection.receive_bytes` call
    dispatched.  Frames observed outside a named
    probe (``begin`` not called) are dropped — recording is strictly
    opt-in per probe.

    :meth:`begin` while a probe is still open raises: silently
    accepting the second ``begin`` used to merge two probes' frames
    into one timeline, corrupting both.  :meth:`end` is idempotent, so
    ``try: begin(...) ... finally: end()`` nests safely with an
    explicit early ``end()``.
    """

    def __init__(self) -> None:
        self.traces: dict[str, list[TracedFrame]] = {}
        self.current: str | None = None

    def begin(self, probe: str) -> None:
        if self.current is not None:
            raise RuntimeError(
                f"trace for probe {self.current!r} is still open; "
                f"call end() before begin({probe!r})"
            )
        self.current = probe
        self.traces.setdefault(probe, [])

    def end(self) -> None:
        self.current = None

    def record(self, at: float, frame: Frame) -> None:
        if self.current is not None:
            self.traces[self.current].append(TracedFrame(at=at, frame=frame))


@dataclass
class ConnectionTimeline:
    """One connection's server-side view: lifetime plus inbound frames.

    Recorded by the engine when :class:`~repro.servers.engine.H2Server`
    is created with ``record_frames=True``; this is the input shape of
    the real-time detector (:mod:`repro.analysis.detection`) and of the
    labelled attack corpora.  ``label`` is ``None`` for benign traffic
    and an attack-profile name for battery-generated timelines.
    """

    opened_at: float
    closed_at: float | None = None
    #: Negotiated protocol as far as the connection got: ``"hello"``
    #: (TLS never completed), ``"http1"``, ``"h2"`` or ``"h2-mute"``.
    protocol: str = "hello"
    frames: list[TracedFrame] = field(default_factory=list)
    label: str | None = None

    @property
    def end_at(self) -> float:
        """Best-known end of observation (close, else last frame)."""
        if self.closed_at is not None:
            return self.closed_at
        if self.frames:
            return self.frames[-1].at
        return self.opened_at


def encode_trace(timed_frames: Iterable) -> list[dict]:
    """Encode a timeline as a JSON-friendly list of ``{at, frame}``.

    Frames are stored as hex wire bytes so the round trip is exact for
    every frame type, including :class:`UnknownFrame`.
    """
    return [
        {"at": timed.at, "frame": serialize_frame(timed.frame).hex()}
        for timed in timed_frames
    ]


def decode_trace(document: list[dict]) -> list[TracedFrame]:
    """Inverse of :func:`encode_trace`."""
    out: list[TracedFrame] = []
    for entry in document:
        frames, remainder = parse_frames(bytes.fromhex(entry["frame"]))
        if remainder or len(frames) != 1:
            raise ValueError("corrupt stored trace entry")
        out.append(TracedFrame(at=float(entry["at"]), frame=frames[0]))
    return out


def encode_timeline(timeline: ConnectionTimeline) -> dict:
    """Encode a full connection timeline (lifetime + frames + label)."""
    return {
        "opened_at": timeline.opened_at,
        "closed_at": timeline.closed_at,
        "protocol": timeline.protocol,
        "label": timeline.label,
        "frames": encode_trace(timeline.frames),
    }


def decode_timeline(document: dict) -> ConnectionTimeline:
    """Inverse of :func:`encode_timeline`."""
    closed = document.get("closed_at")
    return ConnectionTimeline(
        opened_at=float(document["opened_at"]),
        closed_at=None if closed is None else float(closed),
        protocol=document.get("protocol", "h2"),
        frames=decode_trace(document.get("frames", [])),
        label=document.get("label"),
    )
