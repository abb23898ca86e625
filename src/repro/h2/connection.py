"""HTTP/2 connection endpoint (RFC 7540 §3, §5, §6).

:class:`H2Connection` is a sans-I/O protocol engine: feed it inbound
bytes with :meth:`H2Connection.receive_bytes`, get back a list of
:mod:`repro.h2.events`, and drain outbound bytes with
:meth:`H2Connection.data_to_send`.  Both the simulated servers and the
H2Scope probing client are built on it.

Two design points are specific to this reproduction:

* **Configurable reactions.**  The RFC mandates reactions to anomalies
  (zero WINDOW_UPDATE → stream error; window overflow → RST_STREAM or
  GOAWAY; self-dependency → stream error), but the paper found that
  deployed servers differ (Table III).  The reactions are therefore
  policy knobs on :class:`ConnectionConfig` rather than hard-coded.
* **Non-strict mode.**  With ``strict=False`` a sender may emit frames
  that violate the protocol (the probes need to send zero-increment
  WINDOW_UPDATEs, window-overflowing increments, self-dependent
  PRIORITY frames, ...).  Receive-side processing is unaffected.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

from repro.h2 import events as ev
from repro.h2.constants import (
    CONNECTION_PREFACE,
    CONNECTION_FRAME_TYPES,
    DEFAULT_INITIAL_WINDOW_SIZE,
    ErrorCode,
    FrameFlag,
    FrameType,
    MAX_STREAM_ID,
    SettingCode,
)
from repro.h2.errors import (
    FlowControlError,
    H2ConnectionError,
    H2StreamError,
    ProtocolError,
)
from repro.h2.flow_control import FlowControlWindow
from repro.h2.frames import (
    ContinuationFrame,
    DataFrame,
    Frame,
    GoAwayFrame,
    HeadersFrame,
    PingFrame,
    PriorityData,
    PriorityFrame,
    PushPromiseFrame,
    RstStreamFrame,
    SettingsFrame,
    UnknownFrame,
    WindowUpdateFrame,
    parse_frames_view,
    serialize_frame_into,
)
from repro.h2.hpack.decoder import Decoder
from repro.h2.hpack.encoder import Encoder, IndexingPolicy
from repro.h2.priority import PriorityTree, SelfDependencyError
from repro.h2.settings import SettingsMap
from repro.h2.stream import Stream


#: HEADERS flags by ``(end_stream, end_headers)``, ORed once here
#: (``IntFlag.__or__`` goes through the enum metaclass).
_HEADERS_FLAGS = {
    (end_stream, end_headers): (
        (FrameFlag.END_STREAM if end_stream else FrameFlag.NONE)
        | (FrameFlag.END_HEADERS if end_headers else FrameFlag.NONE)
    )
    for end_stream in (False, True)
    for end_headers in (False, True)
}
#: Connection-control frame types that have no meaning on a stream.
_STREAM_ZERO_ONLY = frozenset({FrameType.SETTINGS, FrameType.PING, FrameType.GOAWAY})


class Side(enum.Enum):
    CLIENT = "client"
    SERVER = "server"


class Reaction(enum.Enum):
    """How an endpoint reacts to a protocol anomaly (Table III axis)."""

    IGNORE = "ignore"
    RST_STREAM = "rst_stream"
    GOAWAY = "goaway"


@dataclass
class ConnectionConfig:
    """Behavioural configuration of one endpoint."""

    side: Side = Side.CLIENT
    #: Reject protocol-violating *sends* (probes set this to False).
    strict: bool = True
    #: Automatically answer PING with PING+ACK.
    auto_ping_ack: bool = True
    #: Automatically return inbound flow-control credit: one
    #: WINDOW_UPDATE once half a window is used (``_return_credit``).
    auto_window_update: bool = True
    #: Reaction to a zero-increment WINDOW_UPDATE on a stream / the connection.
    on_zero_window_update_stream: Reaction = Reaction.RST_STREAM
    on_zero_window_update_connection: Reaction = Reaction.GOAWAY
    #: Reaction to a window-overflowing WINDOW_UPDATE (RFC: RST / GOAWAY).
    on_window_overflow_stream: Reaction = Reaction.RST_STREAM
    on_window_overflow_connection: Reaction = Reaction.GOAWAY
    #: Reaction to a self-dependent stream (RFC: stream error → RST_STREAM).
    on_self_dependency: Reaction = Reaction.RST_STREAM
    #: Debug text attached to GOAWAY frames sent for zero window updates
    #: (a handful of real sites return explanatory debug data, §V-D3).
    zero_window_update_debug: bytes = b""
    #: HPACK indexing policy for header blocks we *send*.  Nginx/Tengine
    #: behaviour (no response indexing) is IndexingPolicy.NO_INDEX.
    hpack_send_policy: IndexingPolicy = IndexingPolicy.INDEX
    #: SETTINGS announced during connection setup ({identifier: value}).
    initial_settings: dict[int, int] = dataclass_field(default_factory=dict)
    #: Bound on tracked priority-tree nodes (the anti-churn defence the
    #: paper's Discussion motivates; nghttp2 bounds this too).
    max_tracked_priority_streams: int = 1000
    #: Defensive cap on the HPACK encoder table size adopted from the
    #: peer's SETTINGS_HEADER_TABLE_SIZE.  RFC 7541 lets an encoder use
    #: *any* size up to the peer's announcement, so clamping is legal —
    #: it defends against the memory-exhaustion attack the paper's
    #: Discussion describes (announce a huge table, then force growth).
    max_peer_header_table_size: int | None = None


class H2Connection:
    """A sans-I/O HTTP/2 endpoint."""

    def __init__(self, config: ConnectionConfig | None = None):
        self.config = config or ConnectionConfig()
        self.side = self.config.side

        self.local_settings = SettingsMap(self.config.initial_settings)
        self.remote_settings = SettingsMap()

        self.encoder = Encoder(default_policy=self.config.hpack_send_policy)
        self.decoder = Decoder(
            max_header_table_size=self.local_settings.header_table_size
        )

        self.streams: dict[int, Stream] = {}

        #: Connection-scope windows: what we may send / what we granted.
        self.outbound_window = FlowControlWindow(DEFAULT_INITIAL_WINDOW_SIZE)
        self.inbound_window = FlowControlWindow(DEFAULT_INITIAL_WINDOW_SIZE)
        #: The INITIAL_WINDOW_SIZE each side last announced: what new
        #: streams' windows start from.
        self._remote_initial_window = DEFAULT_INITIAL_WINDOW_SIZE
        self._local_initial_window = DEFAULT_INITIAL_WINDOW_SIZE

        self._outbound = bytearray()
        self._inbound = b""
        self._preface_pending = self.side is Side.SERVER
        self._next_stream_id = 1 if self.side is Side.CLIENT else 2
        self._highest_peer_stream_id = 0
        self._sent_goaway = False
        self._received_goaway = False
        #: CONTINUATION assembly state: (stream_id, frames, kind) or None.
        self._header_assembly: tuple[int, list[Frame], str] | None = None
        #: The frames the last :meth:`receive_bytes` call dispatched, a
        #: frame whose dispatch raised included; each call starts a new
        #: list.  The connection keeps no frame history (DESIGN §8):
        #: a caller that records frames takes them from here.
        self.received: list[Frame] = []
        #: Frames sent so far (a count, not a log).
        self.frames_sent = 0

    @cached_property
    def priority_tree(self) -> PriorityTree:
        """The dependency tree, built when a stream first needs it (a
        connection that only exchanges SETTINGS and PINGs never does)."""
        return PriorityTree(
            max_tracked_streams=self.config.max_tracked_priority_streams
        )

    # ------------------------------------------------------------------
    # Connection setup
    # ------------------------------------------------------------------

    def initiate(self, send_settings: bool = True) -> None:
        """Send the preface (client) and the initial SETTINGS frame.

        ``send_settings=False`` models the broken real-world servers
        that never announce SETTINGS (the paper's NULL rows in Tables
        V-VII); RFC 7540 §3.5 requires the frame, so this is only for
        reproducing deployed misbehaviour.
        """
        if self.side is Side.CLIENT:
            self._outbound.extend(CONNECTION_PREFACE)
        if send_settings:
            # Validated when the SettingsMap was built: announce as is.
            settings = self.local_settings.as_dict()
            self._send_frame(
                SettingsFrame(settings=[(k, int(v)) for k, v in settings.items()])
            )
            self._apply_local_settings(settings)

    # ------------------------------------------------------------------
    # Outbound API
    # ------------------------------------------------------------------

    def data_to_send(self) -> bytes:
        if not self._outbound:
            return b""
        out = bytes(self._outbound)
        self._outbound.clear()
        return out

    def upgrade_stream(self) -> int:
        """Install stream 1 after an HTTP/1.1 Upgrade: h2c (RFC 7540 §3.2).

        The request that carried the Upgrade header becomes stream 1:
        half-closed (local) at the client, half-closed (remote) at the
        server, which then answers on it.
        """
        stream = self._get_or_create_stream(
            1, peer_initiated=self.side is Side.SERVER
        )
        if self.side is Side.CLIENT:
            stream.send_headers(end_stream=True)
            self._next_stream_id = max(self._next_stream_id, 3)
        else:
            stream.receive_headers(end_stream=True)
        if 1 not in self.priority_tree:
            self.priority_tree.insert(1)
        return 1

    def next_stream_id(self) -> int:
        sid = self._next_stream_id
        self._next_stream_id += 2
        if sid > MAX_STREAM_ID:
            raise ProtocolError("stream identifiers exhausted")
        return sid

    def send_settings(self, settings: dict[int, int] | None = None) -> None:
        settings = settings or {}
        for identifier, value in settings.items():
            self.local_settings.set(identifier, value, validate=self.config.strict)
        frame = SettingsFrame(settings=[(int(k), int(v)) for k, v in settings.items()])
        self._send_frame(frame)
        self._apply_local_settings(settings)

    def ack_settings(self) -> None:
        self._send_frame(SettingsFrame(flags=FrameFlag.ACK))

    def send_headers(
        self,
        stream_id: int,
        headers: list[tuple[bytes | str, bytes | str]],
        end_stream: bool = False,
        priority: PriorityData | None = None,
    ) -> None:
        """Send a header block, fragmenting into CONTINUATION as needed."""
        stream = self._get_or_create_stream(stream_id)
        if self.config.strict:
            stream.send_headers(end_stream=end_stream)
        else:
            try:
                stream.send_headers(end_stream=end_stream)
            except (H2StreamError, H2ConnectionError):
                pass
        block = self.encoder.encode(headers)
        self._send_header_block(stream_id, block, end_stream, priority)

    def send_data(
        self,
        stream_id: int,
        data: bytes,
        end_stream: bool = False,
    ) -> None:
        """Send one DATA frame; the caller must respect windows/framing.

        In strict mode, violations of the peer's flow-control windows or
        SETTINGS_MAX_FRAME_SIZE raise; windows are consumed on success.
        """
        stream = self._get_or_create_stream(stream_id)
        frame = DataFrame(
            stream_id=stream_id,
            flags=FrameFlag.END_STREAM if end_stream else FrameFlag.NONE,
            data=data,
        )
        fc_len = frame.flow_controlled_length
        if self.config.strict:
            max_frame = self.remote_settings.max_frame_size
            if fc_len > max_frame:
                raise ProtocolError(
                    f"DATA payload exceeds peer SETTINGS_MAX_FRAME_SIZE {max_frame}"
                )
            stream.send_data(end_stream=end_stream)
            stream.outbound_window.consume(fc_len)
            self.outbound_window.consume(fc_len)
        else:
            try:
                stream.send_data(end_stream=end_stream)
                stream.outbound_window.consume(fc_len)
                self.outbound_window.consume(fc_len)
            except (H2StreamError, H2ConnectionError, FlowControlError):
                pass
        self._send_frame(frame)

    def send_priority(
        self,
        stream_id: int,
        depends_on: int = 0,
        weight: int = 16,
        exclusive: bool = False,
    ) -> None:
        frame = PriorityFrame(
            stream_id=stream_id,
            priority=PriorityData(depends_on, weight, exclusive),
        )
        if self.config.strict and stream_id == depends_on:
            raise SelfDependencyError(
                f"stream {stream_id} cannot depend on itself", stream_id=stream_id
            )
        self._send_frame(frame)

    def send_rst_stream(self, stream_id: int, error_code: int = int(ErrorCode.CANCEL)) -> None:
        stream = self.streams.get(stream_id)
        if stream is not None and not stream.closed:
            stream.send_reset(error_code)
        self.priority_tree.remove(stream_id)
        self._send_frame(RstStreamFrame(stream_id=stream_id, error_code=int(error_code)))

    def send_ping(self, payload: bytes = b"\x00" * 8, ack: bool = False) -> None:
        flags = FrameFlag.ACK if ack else FrameFlag.NONE
        self._send_frame(PingFrame(flags=flags, payload=payload))

    def send_window_update(self, stream_id: int, increment: int) -> None:
        if self.config.strict:
            if increment <= 0:
                raise ProtocolError("window increment must be positive")
            window = (
                self.inbound_window
                if stream_id == 0
                else self._get_or_create_stream(stream_id).inbound_window
            )
            window.expand(increment)
        else:
            # Best-effort accounting; probes may send bogus increments.
            try:
                window = (
                    self.inbound_window
                    if stream_id == 0
                    else self._get_or_create_stream(stream_id).inbound_window
                )
                window.expand(increment)
            except (FlowControlError, ValueError):
                pass
        self._send_frame(
            WindowUpdateFrame(stream_id=stream_id, window_increment=increment)
        )

    def send_goaway(
        self,
        error_code: int = int(ErrorCode.NO_ERROR),
        debug_data: bytes = b"",
    ) -> None:
        self._sent_goaway = True
        self._send_frame(
            GoAwayFrame(
                last_stream_id=self._highest_peer_stream_id,
                error_code=int(error_code),
                debug_data=debug_data,
            )
        )

    def send_push_promise(
        self,
        parent_stream_id: int,
        headers: list[tuple[bytes | str, bytes | str]],
    ) -> int:
        """Reserve a new even stream and send PUSH_PROMISE; returns its id."""
        if self.side is not Side.SERVER and self.config.strict:
            raise ProtocolError("only servers may send PUSH_PROMISE")
        if self.config.strict and not self.remote_settings.enable_push:
            raise ProtocolError("peer disabled server push (SETTINGS_ENABLE_PUSH=0)")
        promised_id = self.next_stream_id()
        stream = self._get_or_create_stream(promised_id)
        stream.send_push_promise()
        block = self.encoder.encode(headers)
        frame = PushPromiseFrame(
            stream_id=parent_stream_id,
            flags=FrameFlag.END_HEADERS,
            promised_stream_id=promised_id,
            header_block=block,
        )
        self._send_frame(frame)
        return promised_id

    def send_raw_frame(self, frame: Frame) -> None:
        """Escape hatch: serialize ``frame`` with no protocol checks."""
        self._send_frame(frame)

    # ------------------------------------------------------------------
    # Inbound processing
    # ------------------------------------------------------------------

    def receive_bytes(self, data: bytes) -> list[ev.Event]:
        """Feed inbound bytes; returns the events they produced and
        leaves the frames they carried in :attr:`received`."""
        received: list[Frame] = []
        self.received = received
        self._inbound += data
        out: list[ev.Event] = []

        if self._preface_pending:
            if len(self._inbound) < len(CONNECTION_PREFACE):
                return out
            if not self._inbound.startswith(CONNECTION_PREFACE):
                raise ProtocolError("invalid client connection preface")
            self._inbound = self._inbound[len(CONNECTION_PREFACE) :]
            self._preface_pending = False
            out.append(ev.PrefaceReceived())

        buffer = self._inbound
        frames, consumed = parse_frames_view(
            memoryview(buffer), max_frame_size=self.local_settings.max_frame_size
        )
        self._inbound = buffer[consumed:] if consumed else buffer
        for frame in frames:
            received.append(frame)
            try:
                out.extend(self._dispatch(frame))
            except H2StreamError as exc:
                # §5.4.2: a stream error ends that stream with
                # RST_STREAM; the events before this frame and the
                # frames behind it belong to other streams and stand.
                self.send_rst_stream(exc.stream_id, exc.error_code)
        return out

    # -- frame dispatch ---------------------------------------------------

    def _dispatch(self, frame: Frame) -> list[ev.Event]:
        if self._header_assembly is not None and not isinstance(
            frame, ContinuationFrame
        ):
            raise ProtocolError("expected CONTINUATION during header assembly")

        if isinstance(frame, UnknownFrame):
            return [
                ev.UnknownFrameReceived(
                    type_code=frame.type_code,
                    stream_id=frame.stream_id,
                    payload=frame.payload,
                )
            ]

        frame_type = frame.frame_type
        if frame.stream_id == 0:
            if frame_type not in CONNECTION_FRAME_TYPES:
                raise ProtocolError(
                    f"{frame_type.name} frame on stream 0 is a connection error"
                )
        elif frame_type in _STREAM_ZERO_ONLY:
            raise ProtocolError(f"{frame_type.name} frame must be on stream 0")

        return self._FRAME_HANDLERS[frame_type](self, frame)

    def _handle_data(self, frame: DataFrame) -> list[ev.Event]:
        stream = self.streams.get(frame.stream_id)
        if stream is None:
            raise ProtocolError(f"DATA on unopened stream {frame.stream_id}")
        end = frame.has_flag(FrameFlag.END_STREAM)
        # §5.1: DATA that was in flight when we reset the stream is
        # ignored, but it still used the connection window (§6.9).
        ignored = stream.reset_sent
        if not ignored:
            stream.receive_data(end_stream=end)
        fc_len = frame.flow_controlled_length
        try:
            self.inbound_window.consume(fc_len)
            if not ignored:
                stream.inbound_window.consume(fc_len)
        except FlowControlError:
            self._terminate(ErrorCode.FLOW_CONTROL_ERROR)
            raise
        if self.config.auto_window_update:
            self._return_credit(0, self.inbound_window, DEFAULT_INITIAL_WINDOW_SIZE)
            if not end and not stream.closed:
                self._return_credit(
                    frame.stream_id, stream.inbound_window, self._local_initial_window
                )
        if ignored:
            return []
        events: list[ev.Event] = [
            ev.DataReceived(
                stream_id=frame.stream_id,
                data=frame.data,
                flow_controlled_length=fc_len,
                end_stream=end,
            )
        ]
        if end:
            events.append(ev.StreamEnded(stream_id=frame.stream_id))
            self._retire_stream(frame.stream_id)
        return events

    def _return_credit(
        self, stream_id: int, window: FlowControlWindow, size: int
    ) -> None:
        """Return used flow-control credit in bulk, as nghttp2 does
        (``nghttp2_should_send_window_update``): one WINDOW_UPDATE for
        everything owed once half of the window of ``size`` is used,
        nothing while the window stands above ``size`` (the application
        raised it by hand)."""
        owed = size - window.value
        if owed >= max(1, size // 2):
            self.send_window_update(stream_id, owed)

    def _handle_headers(self, frame: HeadersFrame) -> list[ev.Event]:
        if not frame.has_flag(FrameFlag.END_HEADERS):
            self._header_assembly = (frame.stream_id, [frame], "headers")
            return []
        return self._complete_headers(frame.stream_id, [frame], kind="headers")

    def _handle_continuation(self, frame: ContinuationFrame) -> list[ev.Event]:
        if self._header_assembly is None:
            raise ProtocolError("CONTINUATION without a preceding HEADERS")
        stream_id, frames, kind = self._header_assembly
        if frame.stream_id != stream_id:
            raise ProtocolError("CONTINUATION on a different stream")
        frames.append(frame)
        if not frame.has_flag(FrameFlag.END_HEADERS):
            return []
        self._header_assembly = None
        return self._complete_headers(stream_id, frames, kind=kind)

    def _complete_headers(
        self, stream_id: int, frames: list[Frame], kind: str
    ) -> list[ev.Event]:
        self._header_assembly = None
        block = b"".join(
            f.header_block  # type: ignore[attr-defined]
            for f in frames
        )
        headers = self.decoder.decode(block)

        if kind == "push":
            first = frames[0]
            assert isinstance(first, PushPromiseFrame)
            promised = self.streams.get(first.promised_stream_id)
            assert promised is not None
            return [
                ev.PushPromiseReceived(
                    parent_stream_id=stream_id,
                    promised_stream_id=first.promised_stream_id,
                    headers=headers,
                )
            ]

        first = frames[0]
        assert isinstance(first, HeadersFrame)
        end = first.has_flag(FrameFlag.END_STREAM)
        stream = self._get_or_create_stream(stream_id, peer_initiated=True)
        if stream.reset_sent:
            # §5.1: in flight when we reset the stream; the block went
            # through the decoder above, so the table stays in step.
            return []
        if self.side is Side.SERVER and stream.headers_received and stream.can_receive:
            # A second block on a request stream is trailers (§8.1):
            # they must end the stream, or the request is malformed
            # (§8.1.2.6), a stream error answered with RST_STREAM.
            if not end:
                raise H2StreamError(
                    f"trailers without END_STREAM on stream {stream_id}",
                    stream_id=stream_id,
                )
            stream.receive_headers(end_stream=True)
            self._retire_stream(stream_id)
            return [ev.StreamEnded(stream_id=stream_id)]
        stream.receive_headers(end_stream=end)

        events: list[ev.Event] = []
        if first.priority is not None:
            events.extend(self._apply_priority(stream_id, first.priority))
        elif stream_id not in self.priority_tree:
            self.priority_tree.insert(stream_id)

        events.append(
            ev.HeadersReceived(
                stream_id=stream_id,
                headers=headers,
                end_stream=end,
                priority=first.priority,
                encoded_size=len(block),
            )
        )
        if end:
            events.append(ev.StreamEnded(stream_id=stream_id))
            self._retire_stream(stream_id)
        return events

    def _handle_priority(self, frame: PriorityFrame) -> list[ev.Event]:
        events = self._apply_priority(frame.stream_id, frame.priority)
        events.append(
            ev.PriorityReceived(stream_id=frame.stream_id, priority=frame.priority)
        )
        return events

    def _apply_priority(
        self, stream_id: int, priority: PriorityData
    ) -> list[ev.Event]:
        try:
            self.priority_tree.reprioritize(
                stream_id,
                depends_on=priority.depends_on,
                weight=priority.weight,
                exclusive=priority.exclusive,
            )
        except SelfDependencyError:
            reaction = self.config.on_self_dependency
            self._react(reaction, stream_id, ErrorCode.PROTOCOL_ERROR)
            return [
                ev.SelfDependencyDetected(
                    stream_id=stream_id, reaction=reaction.value
                )
            ]
        return []

    def _handle_rst_stream(self, frame: RstStreamFrame) -> list[ev.Event]:
        stream = self.streams.get(frame.stream_id)
        if stream is None:
            # RST for a stream we never knew; RFC requires idle→error but
            # measurement tools tolerate it.
            if self.config.strict and frame.stream_id > self._highest_peer_stream_id:
                raise ProtocolError("RST_STREAM for idle stream")
        else:
            stream.receive_reset(frame.error_code)
        self.priority_tree.remove(frame.stream_id)
        return [
            ev.StreamReset(stream_id=frame.stream_id, error_code=frame.error_code)
        ]

    def _handle_settings(self, frame: SettingsFrame) -> list[ev.Event]:
        if frame.is_ack:
            return [ev.SettingsAcked()]
        for identifier, value in frame.settings:
            try:
                self._apply_remote_setting(identifier, value)
            except FlowControlError as exc:
                # §6.5.2: INITIAL_WINDOW_SIZE above 2^31-1 MUST be
                # treated as a connection error of type
                # FLOW_CONTROL_ERROR.
                raise H2ConnectionError(
                    str(exc), error_code=ErrorCode.FLOW_CONTROL_ERROR
                ) from exc
        self.ack_settings()
        return [ev.SettingsReceived(settings=list(frame.settings))]

    def _handle_push_promise(self, frame: PushPromiseFrame) -> list[ev.Event]:
        if self.side is Side.SERVER:
            raise ProtocolError("clients cannot send PUSH_PROMISE")
        if not self.local_settings.enable_push:
            raise ProtocolError("peer pushed although we set ENABLE_PUSH=0")
        promised = self._get_or_create_stream(frame.promised_stream_id)
        promised.receive_push_promise()
        if not frame.has_flag(FrameFlag.END_HEADERS):
            self._header_assembly = (frame.stream_id, [frame], "push")
            return []
        return self._complete_headers(frame.stream_id, [frame], kind="push")

    def _handle_ping(self, frame: PingFrame) -> list[ev.Event]:
        if frame.is_ack:
            return [ev.PingAckReceived(payload=frame.payload)]
        if self.config.auto_ping_ack:
            self.send_ping(frame.payload, ack=True)
        return [ev.PingReceived(payload=frame.payload)]

    def _handle_goaway(self, frame: GoAwayFrame) -> list[ev.Event]:
        self._received_goaway = True
        return [
            ev.GoAwayReceived(
                last_stream_id=frame.last_stream_id,
                error_code=frame.error_code,
                debug_data=frame.debug_data,
            )
        ]

    def _handle_window_update(self, frame: WindowUpdateFrame) -> list[ev.Event]:
        stream_id = frame.stream_id
        increment = frame.window_increment

        if increment == 0:
            if stream_id == 0:
                reaction = self.config.on_zero_window_update_connection
            else:
                reaction = self.config.on_zero_window_update_stream
            self._react(
                reaction,
                stream_id,
                ErrorCode.PROTOCOL_ERROR,
                debug=self.config.zero_window_update_debug,
            )
            return [
                ev.ZeroWindowUpdateReceived(
                    stream_id=stream_id, reaction=reaction.value
                )
            ]

        if stream_id == 0:
            window = self.outbound_window
        else:
            stream = self.streams.get(stream_id)
            if stream is None:
                # WINDOW_UPDATE may race with stream closure; tolerate.
                return [
                    ev.WindowUpdateReceived(stream_id=stream_id, increment=increment)
                ]
            window = stream.outbound_window

        try:
            window.expand(increment)
        except FlowControlError:
            if stream_id == 0:
                reaction = self.config.on_window_overflow_connection
            else:
                reaction = self.config.on_window_overflow_stream
            self._react(reaction, stream_id, ErrorCode.FLOW_CONTROL_ERROR)
            return [
                ev.WindowOverflowDetected(stream_id=stream_id, reaction=reaction.value)
            ]
        return [ev.WindowUpdateReceived(stream_id=stream_id, increment=increment)]

    #: One table for the class, not a dict of ten bound methods per frame.
    _FRAME_HANDLERS = {
        FrameType.DATA: _handle_data,
        FrameType.HEADERS: _handle_headers,
        FrameType.PRIORITY: _handle_priority,
        FrameType.RST_STREAM: _handle_rst_stream,
        FrameType.SETTINGS: _handle_settings,
        FrameType.PUSH_PROMISE: _handle_push_promise,
        FrameType.PING: _handle_ping,
        FrameType.GOAWAY: _handle_goaway,
        FrameType.WINDOW_UPDATE: _handle_window_update,
        FrameType.CONTINUATION: _handle_continuation,
    }

    # ------------------------------------------------------------------
    # Settings application
    # ------------------------------------------------------------------

    def _apply_remote_setting(self, identifier: int, value: int) -> None:
        self.remote_settings.set(identifier, value, validate=True)
        if identifier == SettingCode.INITIAL_WINDOW_SIZE:
            delta = value - self._remote_initial_window
            self._remote_initial_window = value
            for stream in self.streams.values():
                if not stream.closed:
                    stream.outbound_window.adjust_initial(delta)
        elif identifier == SettingCode.HEADER_TABLE_SIZE:
            cap = self.config.max_peer_header_table_size
            if cap is not None:
                value = min(value, cap)
            self.encoder.header_table_size = value

    def _apply_local_settings(self, settings: dict[int, int]) -> None:
        for identifier, value in settings.items():
            if identifier == SettingCode.INITIAL_WINDOW_SIZE:
                delta = value - self._local_initial_window
                self._local_initial_window = value
                for stream in self.streams.values():
                    if not stream.closed:
                        stream.inbound_window.adjust_initial(delta)
                        # A smaller window has a smaller half: what is
                        # owed may be due now, and no DATA frame will
                        # come to say so if the peer's view went <= 0.
                        if self.config.auto_window_update and stream.can_receive:
                            self._return_credit(
                                stream.stream_id, stream.inbound_window, value
                            )
            elif identifier == SettingCode.HEADER_TABLE_SIZE:
                self.decoder.set_max_allowed_table_size(value)

    # ------------------------------------------------------------------
    # Stream management
    # ------------------------------------------------------------------

    def _get_or_create_stream(
        self, stream_id: int, peer_initiated: bool = False
    ) -> Stream:
        stream = self.streams.get(stream_id)
        if stream is not None:
            return stream
        stream = Stream(
            stream_id=stream_id,
            outbound_window=FlowControlWindow(self._remote_initial_window),
            inbound_window=FlowControlWindow(self._local_initial_window),
        )
        self.streams[stream_id] = stream
        if peer_initiated:
            self._highest_peer_stream_id = max(
                self._highest_peer_stream_id, stream_id
            )
        return stream

    def _retire_stream(self, stream_id: int) -> None:
        """Forget fully-closed streams' priority entries lazily."""
        stream = self.streams.get(stream_id)
        if stream is not None and stream.closed:
            self.priority_tree.remove(stream_id)

    # ------------------------------------------------------------------
    # Reactions and teardown
    # ------------------------------------------------------------------

    def _react(
        self,
        reaction: Reaction,
        stream_id: int,
        error_code: ErrorCode,
        debug: bytes = b"",
    ) -> None:
        if reaction is Reaction.IGNORE:
            return
        if reaction is Reaction.RST_STREAM and stream_id != 0:
            self.send_rst_stream(stream_id, error_code)
        else:
            # GOAWAY, or a "stream" reaction to a connection-scope frame.
            self.send_goaway(error_code, debug_data=debug)

    def _terminate(self, error_code: ErrorCode) -> None:
        if not self._sent_goaway:
            self.send_goaway(error_code)

    @property
    def terminated(self) -> bool:
        return self._sent_goaway or self._received_goaway

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _send_frame(self, frame: Frame) -> None:
        self.frames_sent += 1
        serialize_frame_into(frame, self._outbound)

    def _send_header_block(
        self,
        stream_id: int,
        block: bytes,
        end_stream: bool,
        priority: PriorityData | None,
    ) -> None:
        max_frame = self.remote_settings.max_frame_size
        budget = max_frame - (5 if priority is not None else 0)
        first_chunk, rest = block[:budget], block[budget:]
        self._send_frame(
            HeadersFrame(
                stream_id=stream_id,
                flags=_HEADERS_FLAGS[bool(end_stream), not rest],
                header_block=first_chunk,
                priority=priority,
            )
        )
        while rest:
            chunk, rest = rest[:max_frame], rest[max_frame:]
            cont_flags = FrameFlag.NONE if rest else FrameFlag.END_HEADERS
            self._send_frame(
                ContinuationFrame(
                    stream_id=stream_id, flags=cont_flags, header_block=chunk
                )
            )
