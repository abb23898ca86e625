"""Per-stream state machine (RFC 7540 §5.1).

Transitions are driven by the connection layer; this module only
encodes which transitions are legal and which error class an illegal
frame triggers (stream error vs. connection error), following the
table in §5.1 of the RFC.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.h2.constants import DEFAULT_INITIAL_WINDOW_SIZE, ErrorCode
from repro.h2.errors import ProtocolError, StreamClosedError
from repro.h2.flow_control import FlowControlWindow


class StreamState(enum.Enum):
    IDLE = "idle"
    RESERVED_LOCAL = "reserved-local"
    RESERVED_REMOTE = "reserved-remote"
    OPEN = "open"
    HALF_CLOSED_LOCAL = "half-closed-local"
    HALF_CLOSED_REMOTE = "half-closed-remote"
    CLOSED = "closed"


#: States in which this endpoint may still *send* DATA/HEADERS.  Tuples:
#: membership is two identity checks, where a set would hash the member
#: through ``Enum.__hash__`` for every DATA frame.
_SEND_OPEN = (StreamState.OPEN, StreamState.HALF_CLOSED_REMOTE)
#: States in which the peer may still send us DATA/HEADERS.
_RECV_OPEN = (StreamState.OPEN, StreamState.HALF_CLOSED_LOCAL)


@dataclass
class Stream:
    """One HTTP/2 stream: state plus its two flow-control windows."""

    stream_id: int
    state: StreamState = StreamState.IDLE
    #: Window limiting what we may send on this stream.
    outbound_window: FlowControlWindow = field(
        default_factory=lambda: FlowControlWindow(DEFAULT_INITIAL_WINDOW_SIZE)
    )
    #: Window we granted the peer on this stream.
    inbound_window: FlowControlWindow = field(
        default_factory=lambda: FlowControlWindow(DEFAULT_INITIAL_WINDOW_SIZE)
    )
    #: Error code if the stream was reset, else None.
    reset_code: int | None = None
    #: True when *we* closed the stream with RST_STREAM: frames the peer
    #: had in flight at that moment are ignored, not errors (§5.1).
    reset_sent: bool = False
    #: True once we have sent (or received) complete request headers.
    headers_sent: bool = False
    headers_received: bool = False

    # -- sending ------------------------------------------------------------

    def send_headers(self, end_stream: bool = False) -> None:
        if self.state is StreamState.IDLE:
            self.state = StreamState.OPEN
        elif self.state is StreamState.RESERVED_LOCAL:
            self.state = StreamState.HALF_CLOSED_REMOTE
        elif self.state not in _SEND_OPEN:
            raise StreamClosedError(
                f"cannot send HEADERS on stream {self.stream_id} in {self.state.value}",
                stream_id=self.stream_id,
            )
        self.headers_sent = True
        if end_stream:
            self._close_local()

    def send_data(self, end_stream: bool = False) -> None:
        if self.state not in _SEND_OPEN:
            raise StreamClosedError(
                f"cannot send DATA on stream {self.stream_id} in {self.state.value}",
                stream_id=self.stream_id,
            )
        if end_stream:
            self._close_local()

    def send_push_promise(self) -> None:
        """We (a server) promised this stream via PUSH_PROMISE."""
        if self.state is not StreamState.IDLE:
            raise ProtocolError(
                f"promised stream {self.stream_id} is not idle ({self.state.value})"
            )
        self.state = StreamState.RESERVED_LOCAL

    def send_reset(self, error_code: int = int(ErrorCode.CANCEL)) -> None:
        if self.state is StreamState.IDLE:
            raise ProtocolError(
                f"cannot reset idle stream {self.stream_id}"
            )
        self.reset_code = error_code
        self.reset_sent = True
        self.state = StreamState.CLOSED

    # -- receiving ------------------------------------------------------------

    def receive_headers(self, end_stream: bool = False) -> None:
        if self.state is StreamState.IDLE:
            self.state = StreamState.OPEN
        elif self.state is StreamState.RESERVED_REMOTE:
            self.state = StreamState.HALF_CLOSED_LOCAL
        elif self.state is StreamState.CLOSED:
            raise StreamClosedError(
                f"HEADERS received on closed stream {self.stream_id}",
                stream_id=self.stream_id,
            )
        elif self.state not in _RECV_OPEN:
            raise ProtocolError(
                f"HEADERS received on stream {self.stream_id} in {self.state.value}"
            )
        self.headers_received = True
        if end_stream:
            self._close_remote()

    def receive_data(self, end_stream: bool = False) -> None:
        if self.state is StreamState.CLOSED:
            raise StreamClosedError(
                f"DATA received on closed stream {self.stream_id}",
                stream_id=self.stream_id,
            )
        if self.state not in _RECV_OPEN:
            raise ProtocolError(
                f"DATA received on stream {self.stream_id} in {self.state.value}"
            )
        if end_stream:
            self._close_remote()

    def receive_push_promise(self) -> None:
        """The peer (a server) reserved this stream for a push."""
        if self.state is not StreamState.IDLE:
            raise ProtocolError(
                f"PUSH_PROMISE for non-idle stream {self.stream_id}"
            )
        self.state = StreamState.RESERVED_REMOTE

    def receive_reset(self, error_code: int) -> None:
        if self.state is StreamState.IDLE:
            raise ProtocolError(
                f"RST_STREAM received for idle stream {self.stream_id}"
            )
        self.reset_code = error_code
        self.state = StreamState.CLOSED

    # -- helpers ----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self.state is StreamState.CLOSED

    @property
    def can_send(self) -> bool:
        return self.state in _SEND_OPEN

    @property
    def can_receive(self) -> bool:
        return self.state in _RECV_OPEN

    def _close_local(self) -> None:
        if self.state is StreamState.OPEN:
            self.state = StreamState.HALF_CLOSED_LOCAL
        elif self.state is StreamState.HALF_CLOSED_REMOTE:
            self.state = StreamState.CLOSED

    def _close_remote(self) -> None:
        if self.state is StreamState.OPEN:
            self.state = StreamState.HALF_CLOSED_REMOTE
        elif self.state is StreamState.HALF_CLOSED_LOCAL:
            self.state = StreamState.CLOSED
