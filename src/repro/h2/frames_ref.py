"""Reference HTTP/2 frame codec (RFC 7540 §4, §6).

This is the original copy-based frame codec, kept verbatim as the
*reference implementation* for the zero-copy hot path in
:mod:`repro.h2.frames`.  The differential tests
(``tests/h2/test_frames_differential.py``) drive both codecs over the
fuzz corpus and require byte-identical wire output and identical error
classes — so this module must stay a faithful, slow, obviously-correct
executable specification.  Do not optimize it.

Every frame type is a small dataclass with a ``serialize_payload``
method and a ``parse_payload`` classmethod; :func:`serialize_frame`
and :func:`parse_frames` handle the common 9-octet frame header.

The codec is deliberately *symmetric and permissive at the edges*: it
can serialize frames that violate protocol rules (zero-increment
WINDOW_UPDATE, self-dependent PRIORITY, oversized SETTINGS values...)
because H2Scope's whole purpose is to send such frames and observe how
servers react.  Semantic validation lives in
:mod:`repro.h2.connection`, not here; only structural rules that make a
frame *unparseable* (bad lengths, bad padding) are enforced at this
layer, as RFC 7540 requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.h2.constants import (
    FRAME_HEADER_LENGTH,
    FrameFlag,
    FrameType,
    MAX_STREAM_ID,
    PING_PAYLOAD_LENGTH,
)
from repro.h2.errors import FrameSizeError, ProtocolError


def _pack_header(length: int, frame_type: int, flags: int, stream_id: int) -> bytes:
    if length >= 2**24:
        raise FrameSizeError(f"frame payload too large: {length}")
    return (
        length.to_bytes(3, "big")
        + bytes([frame_type, flags])
        + (stream_id & MAX_STREAM_ID).to_bytes(4, "big")
    )


@dataclass(frozen=True)
class PriorityData:
    """The 5-octet priority block (HEADERS w/ PRIORITY flag, PRIORITY frame)."""

    depends_on: int = 0
    weight: int = 16  # presented weight in [1, 256]
    exclusive: bool = False

    def serialize(self) -> bytes:
        if not 1 <= self.weight <= 256:
            raise ProtocolError(f"weight {self.weight} out of range [1, 256]")
        dep = self.depends_on & MAX_STREAM_ID
        if self.exclusive:
            dep |= 0x80000000
        return dep.to_bytes(4, "big") + bytes([self.weight - 1])

    @classmethod
    def parse(cls, data: bytes) -> "PriorityData":
        if len(data) != 5:
            raise FrameSizeError("priority block must be 5 octets")
        raw_dep = int.from_bytes(data[:4], "big")
        return cls(
            depends_on=raw_dep & MAX_STREAM_ID,
            weight=data[4] + 1,
            exclusive=bool(raw_dep & 0x80000000),
        )


@dataclass
class Frame:
    """Base frame: subclasses set ``frame_type`` and payload fields."""

    stream_id: int = 0
    flags: FrameFlag = FrameFlag.NONE
    frame_type: FrameType = field(init=False, default=None)  # type: ignore[assignment]

    def serialize_payload(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def parse_payload(cls, payload: bytes, flags: FrameFlag, stream_id: int) -> "Frame":
        raise NotImplementedError

    def has_flag(self, flag: FrameFlag) -> bool:
        return bool(self.flags & flag)


def _strip_padding(payload: bytes, flags: FrameFlag, what: str) -> bytes:
    """Remove the Pad Length octet and trailing padding if PADDED is set."""
    if not flags & FrameFlag.PADDED:
        return payload
    if not payload:
        raise FrameSizeError(f"padded {what} frame without pad length octet")
    pad_length = payload[0]
    body = payload[1:]
    if pad_length > len(body):
        raise ProtocolError(f"padding longer than remaining {what} payload")
    return body[: len(body) - pad_length]


def _apply_padding(body: bytes, pad_length: int) -> bytes:
    if pad_length < 0 or pad_length > 255:
        raise ProtocolError(f"pad length {pad_length} out of range [0, 255]")
    return bytes([pad_length]) + body + b"\x00" * pad_length


@dataclass
class DataFrame(Frame):
    """DATA (§6.1)."""

    data: bytes = b""
    pad_length: int | None = None

    def __post_init__(self) -> None:
        self.frame_type = FrameType.DATA
        if self.pad_length is not None:
            self.flags |= FrameFlag.PADDED

    @property
    def flow_controlled_length(self) -> int:
        """The length counted against flow-control windows (§6.9.1)."""
        if self.pad_length is None:
            return len(self.data)
        return len(self.data) + self.pad_length + 1

    def serialize_payload(self) -> bytes:
        if self.pad_length is not None:
            return _apply_padding(self.data, self.pad_length)
        return self.data

    @classmethod
    def parse_payload(cls, payload: bytes, flags: FrameFlag, stream_id: int) -> "DataFrame":
        raw_length = len(payload)
        data = _strip_padding(payload, flags, "DATA")
        pad = raw_length - len(data) - 1 if flags & FrameFlag.PADDED else None
        frame = cls(stream_id=stream_id, flags=flags, data=data, pad_length=pad)
        return frame


@dataclass
class HeadersFrame(Frame):
    """HEADERS (§6.2): carries a header block fragment, maybe priority."""

    header_block: bytes = b""
    priority: PriorityData | None = None
    pad_length: int | None = None

    def __post_init__(self) -> None:
        self.frame_type = FrameType.HEADERS
        if self.priority is not None:
            self.flags |= FrameFlag.PRIORITY
        if self.pad_length is not None:
            self.flags |= FrameFlag.PADDED

    def serialize_payload(self) -> bytes:
        body = bytearray()
        if self.priority is not None:
            body.extend(self.priority.serialize())
        body.extend(self.header_block)
        if self.pad_length is not None:
            return _apply_padding(bytes(body), self.pad_length)
        return bytes(body)

    @classmethod
    def parse_payload(
        cls, payload: bytes, flags: FrameFlag, stream_id: int
    ) -> "HeadersFrame":
        raw_length = len(payload)
        body = _strip_padding(payload, flags, "HEADERS")
        pad = raw_length - len(body) - 1 if flags & FrameFlag.PADDED else None
        priority = None
        if flags & FrameFlag.PRIORITY:
            if len(body) < 5:
                raise FrameSizeError("HEADERS with PRIORITY flag shorter than 5 octets")
            priority = PriorityData.parse(body[:5])
            body = body[5:]
        return cls(
            stream_id=stream_id,
            flags=flags,
            header_block=body,
            priority=priority,
            pad_length=pad,
        )


@dataclass
class PriorityFrame(Frame):
    """PRIORITY (§6.3)."""

    priority: PriorityData = field(default_factory=PriorityData)

    def __post_init__(self) -> None:
        self.frame_type = FrameType.PRIORITY

    def serialize_payload(self) -> bytes:
        return self.priority.serialize()

    @classmethod
    def parse_payload(
        cls, payload: bytes, flags: FrameFlag, stream_id: int
    ) -> "PriorityFrame":
        if len(payload) != 5:
            raise FrameSizeError("PRIORITY payload must be exactly 5 octets")
        return cls(stream_id=stream_id, flags=flags, priority=PriorityData.parse(payload))


@dataclass
class RstStreamFrame(Frame):
    """RST_STREAM (§6.4)."""

    error_code: int = 0

    def __post_init__(self) -> None:
        self.frame_type = FrameType.RST_STREAM

    def serialize_payload(self) -> bytes:
        return self.error_code.to_bytes(4, "big")

    @classmethod
    def parse_payload(
        cls, payload: bytes, flags: FrameFlag, stream_id: int
    ) -> "RstStreamFrame":
        if len(payload) != 4:
            raise FrameSizeError("RST_STREAM payload must be exactly 4 octets")
        return cls(
            stream_id=stream_id, flags=flags, error_code=int.from_bytes(payload, "big")
        )


@dataclass
class SettingsFrame(Frame):
    """SETTINGS (§6.5): an ordered list of (identifier, value) pairs.

    Unknown identifiers are preserved (the RFC requires receivers to
    ignore them, but a measurement tool wants to see them).
    """

    settings: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.frame_type = FrameType.SETTINGS

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & FrameFlag.ACK)

    def serialize_payload(self) -> bytes:
        out = bytearray()
        for ident, value in self.settings:
            out.extend(int(ident).to_bytes(2, "big"))
            out.extend(int(value).to_bytes(4, "big"))
        return bytes(out)

    @classmethod
    def parse_payload(
        cls, payload: bytes, flags: FrameFlag, stream_id: int
    ) -> "SettingsFrame":
        if flags & FrameFlag.ACK and payload:
            raise FrameSizeError("SETTINGS ACK must have an empty payload")
        if len(payload) % 6:
            raise FrameSizeError("SETTINGS payload not a multiple of 6 octets")
        settings = []
        for off in range(0, len(payload), 6):
            ident = int.from_bytes(payload[off : off + 2], "big")
            value = int.from_bytes(payload[off + 2 : off + 6], "big")
            settings.append((ident, value))
        return cls(stream_id=stream_id, flags=flags, settings=settings)


@dataclass
class PushPromiseFrame(Frame):
    """PUSH_PROMISE (§6.6)."""

    promised_stream_id: int = 0
    header_block: bytes = b""
    pad_length: int | None = None

    def __post_init__(self) -> None:
        self.frame_type = FrameType.PUSH_PROMISE
        if self.pad_length is not None:
            self.flags |= FrameFlag.PADDED

    def serialize_payload(self) -> bytes:
        body = (self.promised_stream_id & MAX_STREAM_ID).to_bytes(4, "big")
        body += self.header_block
        if self.pad_length is not None:
            return _apply_padding(body, self.pad_length)
        return body

    @classmethod
    def parse_payload(
        cls, payload: bytes, flags: FrameFlag, stream_id: int
    ) -> "PushPromiseFrame":
        raw_length = len(payload)
        body = _strip_padding(payload, flags, "PUSH_PROMISE")
        pad = raw_length - len(body) - 1 if flags & FrameFlag.PADDED else None
        if len(body) < 4:
            raise FrameSizeError("PUSH_PROMISE shorter than promised stream id")
        promised = int.from_bytes(body[:4], "big") & MAX_STREAM_ID
        return cls(
            stream_id=stream_id,
            flags=flags,
            promised_stream_id=promised,
            header_block=body[4:],
            pad_length=pad,
        )


@dataclass
class PingFrame(Frame):
    """PING (§6.7): eight opaque octets; ACK flag marks the reply."""

    payload: bytes = b"\x00" * PING_PAYLOAD_LENGTH

    def __post_init__(self) -> None:
        self.frame_type = FrameType.PING

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & FrameFlag.ACK)

    def serialize_payload(self) -> bytes:
        if len(self.payload) != PING_PAYLOAD_LENGTH:
            raise FrameSizeError(
                f"PING payload must be {PING_PAYLOAD_LENGTH} octets, "
                f"got {len(self.payload)}"
            )
        return self.payload

    @classmethod
    def parse_payload(cls, payload: bytes, flags: FrameFlag, stream_id: int) -> "PingFrame":
        if len(payload) != PING_PAYLOAD_LENGTH:
            raise FrameSizeError("PING payload must be exactly 8 octets")
        return cls(stream_id=stream_id, flags=flags, payload=payload)


@dataclass
class GoAwayFrame(Frame):
    """GOAWAY (§6.8)."""

    last_stream_id: int = 0
    error_code: int = 0
    debug_data: bytes = b""

    def __post_init__(self) -> None:
        self.frame_type = FrameType.GOAWAY

    def serialize_payload(self) -> bytes:
        return (
            (self.last_stream_id & MAX_STREAM_ID).to_bytes(4, "big")
            + self.error_code.to_bytes(4, "big")
            + self.debug_data
        )

    @classmethod
    def parse_payload(
        cls, payload: bytes, flags: FrameFlag, stream_id: int
    ) -> "GoAwayFrame":
        if len(payload) < 8:
            raise FrameSizeError("GOAWAY payload shorter than 8 octets")
        return cls(
            stream_id=stream_id,
            flags=flags,
            last_stream_id=int.from_bytes(payload[:4], "big") & MAX_STREAM_ID,
            error_code=int.from_bytes(payload[4:8], "big"),
            debug_data=payload[8:],
        )


@dataclass
class WindowUpdateFrame(Frame):
    """WINDOW_UPDATE (§6.9).

    A zero increment is *representable* (H2Scope sends it on purpose);
    receivers are supposed to treat it as an error, which is exactly the
    behaviour the paper measures.
    """

    window_increment: int = 0

    def __post_init__(self) -> None:
        self.frame_type = FrameType.WINDOW_UPDATE

    def serialize_payload(self) -> bytes:
        return (self.window_increment & MAX_STREAM_ID).to_bytes(4, "big")

    @classmethod
    def parse_payload(
        cls, payload: bytes, flags: FrameFlag, stream_id: int
    ) -> "WindowUpdateFrame":
        if len(payload) != 4:
            raise FrameSizeError("WINDOW_UPDATE payload must be exactly 4 octets")
        increment = int.from_bytes(payload, "big") & MAX_STREAM_ID
        return cls(stream_id=stream_id, flags=flags, window_increment=increment)


@dataclass
class ContinuationFrame(Frame):
    """CONTINUATION (§6.10)."""

    header_block: bytes = b""

    def __post_init__(self) -> None:
        self.frame_type = FrameType.CONTINUATION

    def serialize_payload(self) -> bytes:
        return self.header_block

    @classmethod
    def parse_payload(
        cls, payload: bytes, flags: FrameFlag, stream_id: int
    ) -> "ContinuationFrame":
        return cls(stream_id=stream_id, flags=flags, header_block=payload)


@dataclass
class UnknownFrame(Frame):
    """A frame of a type this implementation does not define.

    RFC 7540 §4.1 requires implementations to ignore and discard
    unknown frame types; we surface them so tooling can count them.
    """

    type_code: int = 0xFF
    payload: bytes = b""

    def __post_init__(self) -> None:
        self.frame_type = None  # type: ignore[assignment]

    def serialize_payload(self) -> bytes:
        return self.payload


_FRAME_CLASSES: dict[int, type[Frame]] = {
    FrameType.DATA: DataFrame,
    FrameType.HEADERS: HeadersFrame,
    FrameType.PRIORITY: PriorityFrame,
    FrameType.RST_STREAM: RstStreamFrame,
    FrameType.SETTINGS: SettingsFrame,
    FrameType.PUSH_PROMISE: PushPromiseFrame,
    FrameType.PING: PingFrame,
    FrameType.GOAWAY: GoAwayFrame,
    FrameType.WINDOW_UPDATE: WindowUpdateFrame,
    FrameType.CONTINUATION: ContinuationFrame,
}


def serialize_frame(frame: Frame) -> bytes:
    """Serialize one frame, header included."""
    payload = frame.serialize_payload()
    if isinstance(frame, UnknownFrame):
        type_code = frame.type_code
    else:
        type_code = int(frame.frame_type)
    return _pack_header(len(payload), type_code, int(frame.flags), frame.stream_id) + payload


def parse_frame_header(data: bytes) -> tuple[int, int, FrameFlag, int]:
    """Parse a 9-octet frame header into (length, type, flags, stream_id)."""
    if len(data) < FRAME_HEADER_LENGTH:
        raise FrameSizeError("frame header truncated")
    length = int.from_bytes(data[:3], "big")
    frame_type = data[3]
    flags = FrameFlag(data[4])
    stream_id = int.from_bytes(data[5:9], "big") & MAX_STREAM_ID
    return length, frame_type, flags, stream_id


def parse_frames(
    buffer: bytes, max_frame_size: int | None = None
) -> tuple[list[Frame], bytes]:
    """Parse as many complete frames as ``buffer`` holds.

    Returns ``(frames, remainder)`` where ``remainder`` is the unparsed
    tail (an incomplete frame).  ``max_frame_size`` enforces the local
    SETTINGS_MAX_FRAME_SIZE; exceeding it raises
    :class:`~repro.h2.errors.FrameSizeError` as §4.2 requires.
    """
    frames: list[Frame] = []
    offset = 0
    while len(buffer) - offset >= FRAME_HEADER_LENGTH:
        length, type_code, flags, stream_id = parse_frame_header(
            buffer[offset : offset + FRAME_HEADER_LENGTH]
        )
        if max_frame_size is not None and length > max_frame_size:
            raise FrameSizeError(
                f"frame of {length} octets exceeds SETTINGS_MAX_FRAME_SIZE "
                f"{max_frame_size}"
            )
        end = offset + FRAME_HEADER_LENGTH + length
        if end > len(buffer):
            break
        payload = buffer[offset + FRAME_HEADER_LENGTH : end]
        frame_cls = _FRAME_CLASSES.get(type_code)
        if frame_cls is None:
            frames.append(
                UnknownFrame(
                    stream_id=stream_id,
                    flags=flags,
                    type_code=type_code,
                    payload=payload,
                )
            )
        else:
            frames.append(frame_cls.parse_payload(payload, flags, stream_id))
        offset = end
    return frames, buffer[offset:]
