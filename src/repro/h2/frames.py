"""HTTP/2 frame codec (RFC 7540 §4, §6) — zero-copy hot path.

Every frame type is a small dataclass with a ``write_payload`` method
(append the payload to a caller-supplied ``bytearray``) and a
``parse_payload`` classmethod; :func:`serialize_frame_into` and
:func:`parse_frames_view` handle the common 9-octet frame header.
``serialize_payload``/:func:`serialize_frame`/:func:`parse_frames` are
thin compatibility wrappers that materialize ``bytes``.

Hot-path rules (enforced by ``tests/h2/test_hotpath_guard.py`` and the
CI grep check):

* **Parsing** walks a single ``memoryview`` over the receive buffer —
  header fields come from one ``struct.unpack_from``, payload slices
  stay views until the moment a frame *field* is materialized, so one
  frame costs exactly one copy (its payload fields), never
  header/padding/intermediate copies.
* **Serialization** appends straight into a reused output buffer (the
  connection's outbound ``bytearray``): a 9-octet placeholder is
  reserved, the payload is written through ``write_payload``, and the
  header is back-patched with ``struct.pack_into`` once the length is
  known.  No intermediate payload ``bytes`` object exists.

libnghttp2, the framing layer the paper's H2Scope was built on, is the
reference: ``tests/h2/test_frames_differential.py`` checks what each
side reads of the other's frames, and how each ends a connection on
mutated ones.

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

import struct
from dataclasses import dataclass, field

from repro.h2.constants import (
    FRAME_HEADER_LENGTH,
    FrameFlag,
    FrameType,
    MAX_STREAM_ID,
    PING_PAYLOAD_LENGTH,
)
from repro.h2.errors import FrameSizeError, ProtocolError

#: The 9-octet frame header: 3-octet length (split 16+8 for struct),
#: type, flags, 4-octet stream id (R bit masked on read).
_HEADER = struct.Struct(">HBBBI")
_HEADER_PLACEHOLDER = bytes(FRAME_HEADER_LENGTH)
_SETTING = struct.Struct(">HI")

#: ``FrameFlag`` construction is an enum metaclass call — far too slow
#: for once-per-frame; all 256 possible flag octets are interned here.
_FLAG_CACHE = tuple(FrameFlag(value) for value in range(256))

#: Plain-int flag masks: even ``flags & FrameFlag.PADDED`` goes through
#: Python-level enum ``__and__``/``__call__`` machinery (~17% of frame
#: round-trip time when profiled), while ``int(flags) & _PADDED_BIT``
#: stays on C-level int ops.  Hot tests use these; cold code keeps the
#: readable enum form.
_PADDED_BIT = int(FrameFlag.PADDED)
_PRIORITY_BIT = int(FrameFlag.PRIORITY)
_ACK_BIT = int(FrameFlag.ACK)


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
    def parse(cls, data) -> "PriorityData":
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
    """Base frame: subclasses redeclare ``frame_type`` with their type
    as its default (``None`` here: an unknown type) and add payload fields.

    ``write_payload`` is the canonical serialization hook; the
    ``serialize_payload`` wrapper exists for callers that want a
    standalone ``bytes`` payload.
    """

    stream_id: int = 0
    flags: FrameFlag = FrameFlag.NONE
    frame_type: FrameType = field(init=False, default=None)  # type: ignore[assignment]

    def write_payload(self, out: bytearray) -> None:
        """Append this frame's payload octets to ``out``."""
        raise NotImplementedError

    def serialize_payload(self) -> bytes:
        out = bytearray()
        self.write_payload(out)
        return bytes(out)

    @classmethod
    def parse_payload(cls, payload, flags: FrameFlag, stream_id: int) -> "Frame":
        raise NotImplementedError

    def has_flag(self, flag: FrameFlag) -> bool:
        # Both sides as plain ints: ``IntFlag.__and__`` builds its
        # result through the enum metaclass.
        return bool(int(self.flags) & int(flag))


def _strip_padding(payload, what: str):
    """Drop the Pad Length octet and trailing padding (PADDED is set).

    ``payload`` is a memoryview (or bytes); the result is a slice of
    it, not a copy.
    """
    if not len(payload):
        raise FrameSizeError(f"padded {what} frame without pad length octet")
    pad_length = payload[0]
    body_length = len(payload) - 1
    if pad_length > body_length:
        raise ProtocolError(f"padding longer than remaining {what} payload")
    return payload[1 : 1 + body_length - pad_length]


def _check_pad_length(pad_length: int) -> None:
    if pad_length < 0 or pad_length > 255:
        raise ProtocolError(f"pad length {pad_length} out of range [0, 255]")


@dataclass
class DataFrame(Frame):
    """DATA (§6.1)."""

    frame_type: FrameType = field(init=False, default=FrameType.DATA)
    data: bytes = b""
    pad_length: int | None = None

    def __post_init__(self) -> None:
        if self.pad_length is not None:
            self.flags = _FLAG_CACHE[int(self.flags) | _PADDED_BIT]

    @property
    def flow_controlled_length(self) -> int:
        """The length counted against flow-control windows (§6.9.1)."""
        if self.pad_length is None:
            return len(self.data)
        return len(self.data) + self.pad_length + 1

    def write_payload(self, out: bytearray) -> None:
        pad = self.pad_length
        if pad is None:
            out += self.data
            return
        _check_pad_length(pad)
        out.append(pad)
        out += self.data
        if pad:
            out += b"\x00" * pad

    @classmethod
    def parse_payload(cls, payload, flags: FrameFlag, stream_id: int) -> "DataFrame":
        if int(flags) & _PADDED_BIT:
            raw_length = len(payload)
            data = _strip_padding(payload, "DATA")
            pad = raw_length - len(data) - 1
        else:
            data = payload
            pad = None
        return cls(stream_id=stream_id, flags=flags, data=bytes(data), pad_length=pad)


@dataclass
class HeadersFrame(Frame):
    """HEADERS (§6.2): carries a header block fragment, maybe priority."""

    frame_type: FrameType = field(init=False, default=FrameType.HEADERS)
    header_block: bytes = b""
    priority: PriorityData | None = None
    pad_length: int | None = None

    def __post_init__(self) -> None:
        if self.priority is not None or self.pad_length is not None:
            bits = int(self.flags)
            if self.priority is not None:
                bits |= _PRIORITY_BIT
            if self.pad_length is not None:
                bits |= _PADDED_BIT
            self.flags = _FLAG_CACHE[bits]

    def write_payload(self, out: bytearray) -> None:
        priority = b"" if self.priority is None else self.priority.serialize()
        pad = self.pad_length
        if pad is None:
            out += priority
            out += self.header_block
            return
        _check_pad_length(pad)
        out.append(pad)
        out += priority
        out += self.header_block
        if pad:
            out += b"\x00" * pad

    @classmethod
    def parse_payload(
        cls, payload, flags: FrameFlag, stream_id: int
    ) -> "HeadersFrame":
        bits = int(flags)
        if bits & _PADDED_BIT:
            raw_length = len(payload)
            body = _strip_padding(payload, "HEADERS")
            pad = raw_length - len(body) - 1
        else:
            body = payload
            pad = None
        priority = None
        if bits & _PRIORITY_BIT:
            if len(body) < 5:
                raise FrameSizeError("HEADERS with PRIORITY flag shorter than 5 octets")
            priority = PriorityData.parse(body[:5])
            body = body[5:]
        return cls(
            stream_id=stream_id,
            flags=flags,
            header_block=bytes(body),
            priority=priority,
            pad_length=pad,
        )


@dataclass
class PriorityFrame(Frame):
    """PRIORITY (§6.3)."""

    frame_type: FrameType = field(init=False, default=FrameType.PRIORITY)
    priority: PriorityData = field(default_factory=PriorityData)

    def write_payload(self, out: bytearray) -> None:
        out += self.priority.serialize()

    @classmethod
    def parse_payload(
        cls, payload, flags: FrameFlag, stream_id: int
    ) -> "PriorityFrame":
        if len(payload) != 5:
            raise FrameSizeError("PRIORITY payload must be exactly 5 octets")
        return cls(stream_id=stream_id, flags=flags, priority=PriorityData.parse(payload))


@dataclass
class RstStreamFrame(Frame):
    """RST_STREAM (§6.4)."""

    frame_type: FrameType = field(init=False, default=FrameType.RST_STREAM)
    error_code: int = 0

    def write_payload(self, out: bytearray) -> None:
        out += self.error_code.to_bytes(4, "big")

    @classmethod
    def parse_payload(
        cls, payload, flags: FrameFlag, stream_id: int
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

    frame_type: FrameType = field(init=False, default=FrameType.SETTINGS)
    settings: list[tuple[int, int]] = field(default_factory=list)

    @property
    def is_ack(self) -> bool:
        return bool(int(self.flags) & _ACK_BIT)

    def write_payload(self, out: bytearray) -> None:
        pack = _SETTING.pack
        for ident, value in self.settings:
            try:
                out += pack(ident, value)
            except struct.error:
                # Out-of-range pair: re-run through to_bytes so the
                # error class matches the original implementation.
                out += int(ident).to_bytes(2, "big")
                out += int(value).to_bytes(4, "big")

    @classmethod
    def parse_payload(
        cls, payload, flags: FrameFlag, stream_id: int
    ) -> "SettingsFrame":
        if int(flags) & _ACK_BIT and len(payload):
            raise FrameSizeError("SETTINGS ACK must have an empty payload")
        if len(payload) % 6:
            raise FrameSizeError("SETTINGS payload not a multiple of 6 octets")
        unpack = _SETTING.unpack_from
        settings = [unpack(payload, off) for off in range(0, len(payload), 6)]
        return cls(stream_id=stream_id, flags=flags, settings=settings)


@dataclass
class PushPromiseFrame(Frame):
    """PUSH_PROMISE (§6.6)."""

    frame_type: FrameType = field(init=False, default=FrameType.PUSH_PROMISE)
    promised_stream_id: int = 0
    header_block: bytes = b""
    pad_length: int | None = None

    def __post_init__(self) -> None:
        if self.pad_length is not None:
            self.flags = _FLAG_CACHE[int(self.flags) | _PADDED_BIT]

    def write_payload(self, out: bytearray) -> None:
        pad = self.pad_length
        if pad is not None:
            _check_pad_length(pad)
            out.append(pad)
        out += (self.promised_stream_id & MAX_STREAM_ID).to_bytes(4, "big")
        out += self.header_block
        if pad:
            out += b"\x00" * pad

    @classmethod
    def parse_payload(
        cls, payload, flags: FrameFlag, stream_id: int
    ) -> "PushPromiseFrame":
        if int(flags) & _PADDED_BIT:
            raw_length = len(payload)
            body = _strip_padding(payload, "PUSH_PROMISE")
            pad = raw_length - len(body) - 1
        else:
            body = payload
            pad = None
        if len(body) < 4:
            raise FrameSizeError("PUSH_PROMISE shorter than promised stream id")
        promised = int.from_bytes(body[:4], "big") & MAX_STREAM_ID
        return cls(
            stream_id=stream_id,
            flags=flags,
            promised_stream_id=promised,
            header_block=bytes(body[4:]),
            pad_length=pad,
        )


@dataclass
class PingFrame(Frame):
    """PING (§6.7): eight opaque octets; ACK flag marks the reply."""

    frame_type: FrameType = field(init=False, default=FrameType.PING)
    payload: bytes = b"\x00" * PING_PAYLOAD_LENGTH

    @property
    def is_ack(self) -> bool:
        return bool(int(self.flags) & _ACK_BIT)

    def write_payload(self, out: bytearray) -> None:
        if len(self.payload) != PING_PAYLOAD_LENGTH:
            raise FrameSizeError(
                f"PING payload must be {PING_PAYLOAD_LENGTH} octets, "
                f"got {len(self.payload)}"
            )
        out += self.payload

    @classmethod
    def parse_payload(cls, payload, flags: FrameFlag, stream_id: int) -> "PingFrame":
        if len(payload) != PING_PAYLOAD_LENGTH:
            raise FrameSizeError("PING payload must be exactly 8 octets")
        return cls(stream_id=stream_id, flags=flags, payload=bytes(payload))


@dataclass
class GoAwayFrame(Frame):
    """GOAWAY (§6.8)."""

    frame_type: FrameType = field(init=False, default=FrameType.GOAWAY)
    last_stream_id: int = 0
    error_code: int = 0
    debug_data: bytes = b""

    def write_payload(self, out: bytearray) -> None:
        out += (self.last_stream_id & MAX_STREAM_ID).to_bytes(4, "big")
        out += self.error_code.to_bytes(4, "big")
        out += self.debug_data

    @classmethod
    def parse_payload(
        cls, payload, flags: FrameFlag, stream_id: int
    ) -> "GoAwayFrame":
        if len(payload) < 8:
            raise FrameSizeError("GOAWAY payload shorter than 8 octets")
        return cls(
            stream_id=stream_id,
            flags=flags,
            last_stream_id=int.from_bytes(payload[:4], "big") & MAX_STREAM_ID,
            error_code=int.from_bytes(payload[4:8], "big"),
            debug_data=bytes(payload[8:]),
        )


@dataclass
class WindowUpdateFrame(Frame):
    """WINDOW_UPDATE (§6.9).

    A zero increment is *representable* (H2Scope sends it on purpose);
    receivers are supposed to treat it as an error, which is exactly the
    behaviour the paper measures.
    """

    frame_type: FrameType = field(init=False, default=FrameType.WINDOW_UPDATE)
    window_increment: int = 0

    def write_payload(self, out: bytearray) -> None:
        out += (self.window_increment & MAX_STREAM_ID).to_bytes(4, "big")

    @classmethod
    def parse_payload(
        cls, payload, flags: FrameFlag, stream_id: int
    ) -> "WindowUpdateFrame":
        if len(payload) != 4:
            raise FrameSizeError("WINDOW_UPDATE payload must be exactly 4 octets")
        increment = int.from_bytes(payload, "big") & MAX_STREAM_ID
        return cls(stream_id=stream_id, flags=flags, window_increment=increment)


@dataclass
class ContinuationFrame(Frame):
    """CONTINUATION (§6.10)."""

    frame_type: FrameType = field(init=False, default=FrameType.CONTINUATION)
    header_block: bytes = b""

    def write_payload(self, out: bytearray) -> None:
        out += self.header_block

    @classmethod
    def parse_payload(
        cls, payload, flags: FrameFlag, stream_id: int
    ) -> "ContinuationFrame":
        return cls(stream_id=stream_id, flags=flags, header_block=bytes(payload))


@dataclass
class UnknownFrame(Frame):
    """A frame of a type this implementation does not define.

    RFC 7540 §4.1 requires implementations to ignore and discard
    unknown frame types; we surface them so tooling can count them.
    """

    type_code: int = 0xFF
    payload: bytes = b""

    def write_payload(self, out: bytearray) -> None:
        out += self.payload


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


def serialize_frame_into(frame: Frame, out: bytearray) -> None:
    """Append one serialized frame (header included) to ``out``.

    The 9-octet header is reserved up front and back-patched once the
    payload length is known; a payload that fails to serialize leaves
    ``out`` exactly as it was.
    """
    start = len(out)
    out += _HEADER_PLACEHOLDER
    try:
        frame.write_payload(out)
        length = len(out) - start - FRAME_HEADER_LENGTH
        if length >= 2**24:
            raise FrameSizeError(f"frame payload too large: {length}")
    except BaseException:
        del out[start:]
        raise
    if isinstance(frame, UnknownFrame):
        type_code = frame.type_code
    else:
        type_code = int(frame.frame_type)
    _HEADER.pack_into(
        out,
        start,
        length >> 8,
        length & 0xFF,
        type_code,
        int(frame.flags),
        frame.stream_id & MAX_STREAM_ID,
    )


def serialize_frame(frame: Frame) -> bytes:
    """Serialize one frame, header included."""
    out = bytearray()
    serialize_frame_into(frame, out)
    return bytes(out)


def parse_frames_view(
    view, max_frame_size: int | None = None
) -> tuple[list[Frame], int]:
    """Parse as many complete frames as the buffer view holds.

    Returns ``(frames, consumed)`` where ``consumed`` is the octet
    count of whole frames parsed (the tail past it is an incomplete
    frame the caller should retain).  ``view`` is any buffer object;
    payload slices are only materialized into ``bytes`` at the frame
    fields, so parsing costs one copy per frame, not three.
    ``max_frame_size`` enforces the local SETTINGS_MAX_FRAME_SIZE;
    exceeding it raises :class:`~repro.h2.errors.FrameSizeError` as
    §4.2 requires.
    """
    frames: list[Frame] = []
    offset = 0
    available = len(view)
    unpack_header = _HEADER.unpack_from
    frame_classes = _FRAME_CLASSES
    flag_cache = _FLAG_CACHE
    while available - offset >= FRAME_HEADER_LENGTH:
        length_hi, length_lo, type_code, flag_bits, raw_sid = unpack_header(
            view, offset
        )
        length = (length_hi << 8) | length_lo
        if max_frame_size is not None and length > max_frame_size:
            raise FrameSizeError(
                f"frame of {length} octets exceeds SETTINGS_MAX_FRAME_SIZE "
                f"{max_frame_size}"
            )
        end = offset + FRAME_HEADER_LENGTH + length
        if end > available:
            break
        payload = view[offset + FRAME_HEADER_LENGTH : end]
        frame_cls = frame_classes.get(type_code)
        if frame_cls is None:
            frames.append(
                UnknownFrame(
                    stream_id=raw_sid & MAX_STREAM_ID,
                    flags=flag_cache[flag_bits],
                    type_code=type_code,
                    payload=bytes(payload),  # copy ok: field materialization
                )
            )
        else:
            frames.append(
                frame_cls.parse_payload(
                    payload, flag_cache[flag_bits], raw_sid & MAX_STREAM_ID
                )
            )
        offset = end
    return frames, offset


def parse_frames(buffer) -> tuple[list[Frame], bytes]:
    """Parse as many complete frames as ``buffer`` holds.

    Returns ``(frames, remainder)`` where ``remainder`` is the unparsed
    tail (an incomplete frame).  Compatibility wrapper over
    :func:`parse_frames_view`, which callers owning a stable receive
    buffer should prefer (it returns an offset instead of copying the
    tail).
    """
    view = memoryview(buffer)
    frames, consumed = parse_frames_view(view)
    return frames, bytes(view[consumed:])
