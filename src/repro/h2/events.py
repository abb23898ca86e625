"""Connection events.

:meth:`repro.h2.connection.H2Connection.receive_bytes` translates the
inbound byte stream into a list of these event objects; applications
(the server engine, the H2Scope client) react to events rather than to
raw frames.  The unusual events — :class:`ZeroWindowUpdateReceived`,
:class:`WindowOverflowDetected`, :class:`SelfDependencyDetected` — are
the observable conditions the paper's probes trigger on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.h2.frames import PriorityData


@dataclass
class Event:
    """Base class for connection events."""


@dataclass
class PrefaceReceived(Event):
    """The client connection preface arrived (server side only)."""


@dataclass
class SettingsReceived(Event):
    """A (non-ACK) SETTINGS frame arrived; values already applied."""

    settings: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class SettingsAcked(Event):
    """The peer acknowledged our SETTINGS frame."""


@dataclass
class HeadersReceived(Event):
    """A complete header block arrived (HEADERS [+ CONTINUATION])."""

    stream_id: int = 0
    headers: list[tuple[bytes, bytes]] = field(default_factory=list)
    end_stream: bool = False
    priority: PriorityData | None = None
    #: Wire size of the encoded header block (what Eq. 1's S_header measures).
    encoded_size: int = 0


@dataclass
class DataReceived(Event):
    stream_id: int = 0
    data: bytes = b""
    #: Octets charged against flow control (payload + padding).
    flow_controlled_length: int = 0
    end_stream: bool = False


@dataclass
class StreamEnded(Event):
    stream_id: int = 0


@dataclass
class StreamReset(Event):
    """The peer sent RST_STREAM."""

    stream_id: int = 0
    error_code: int = 0


@dataclass
class PushPromiseReceived(Event):
    parent_stream_id: int = 0
    promised_stream_id: int = 0
    headers: list[tuple[bytes, bytes]] = field(default_factory=list)


@dataclass
class PingReceived(Event):
    payload: bytes = b""


@dataclass
class PingAckReceived(Event):
    payload: bytes = b""


@dataclass
class WindowUpdateReceived(Event):
    """A WINDOW_UPDATE was applied (stream_id 0 == connection scope)."""

    stream_id: int = 0
    increment: int = 0


@dataclass
class PriorityReceived(Event):
    stream_id: int = 0
    priority: PriorityData | None = None


@dataclass
class GoAwayReceived(Event):
    last_stream_id: int = 0
    error_code: int = 0
    debug_data: bytes = b""


@dataclass
class UnknownFrameReceived(Event):
    type_code: int = 0
    stream_id: int = 0
    payload: bytes = b""


# -- anomaly events: the conditions H2Scope provokes ---------------------


@dataclass
class ZeroWindowUpdateReceived(Event):
    """The peer sent WINDOW_UPDATE with a zero increment (§6.9)."""

    stream_id: int = 0
    #: What this endpoint decided to do about it ("ignore", "rst_stream",
    #: "goaway") — the axis measured in Table III and Section V-D3.
    reaction: str = "ignore"


@dataclass
class WindowOverflowDetected(Event):
    """A WINDOW_UPDATE pushed a window past 2^31-1 (§6.9.1)."""

    stream_id: int = 0
    reaction: str = "ignore"


@dataclass
class SelfDependencyDetected(Event):
    """A stream was prioritised to depend on itself (§5.3.1)."""

    stream_id: int = 0
    reaction: str = "ignore"
