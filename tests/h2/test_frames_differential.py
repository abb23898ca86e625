"""Differential tests: the frame codec against libnghttp2.

The paper's H2Scope did its framing with nghttp2, so a server
``nghttp2_session`` is the reference here, on every build the host
carries (:func:`~tests.support.nghttp2.libraries`; each test runs once
per build and the module skips when none loads):

* **Ours to theirs.**  The session is fed the preface, an empty SETTINGS
  frame, then client frames we serialised: every kind a server accepts.
  nghttp2 must report the header and payload fields ``parse_frames``
  reads from the same bytes.
* **Theirs to ours.**  The frames nghttp2 writes for
  ``nghttp2_submit_*`` calls are the bytes ``serialize_frame`` writes
  for the same fields, and parse back to exactly those fields.
* **Hostile bytes.**  One frame of a valid exchange is mutated.  A
  ``FrameSizeError``/``ProtocolError`` from our codec must meet a GOAWAY
  of the same code from nghttp2; where nghttp2 rejects on semantic
  grounds that our permissive codec parses, our server ``H2Connection``
  must end the connection with the same code.  What still differs is
  listed, case by case, in :data:`KNOWN_DISAGREEMENTS`.

Three differences are normalised, each for its RFC reason:

1. nghttp2 clears the flags RFC 7540 §6 leaves undefined for a type
   before its callbacks see the header (a CONTINUATION's header reaches
   ``on_begin_frame`` unmasked).  §4.1: undefined flags "MUST be
   ignored on receipt".
2. nghttp2 collapses SETTINGS entries that repeat a defined identifier
   into one, at the first entry's place, carrying the last value.
   §6.5: parameters are processed in order, and a receiver keeps only
   the current value of each.  HEADER_TABLE_SIZE keeps its smallest
   value as well, which RFC 7541 §4.2 needs.
3. A build that dropped RFC 7540 priorities (1.67.1 did) never calls
   ``on_frame_recv`` for PRIORITY and makes ``nghttp2_submit_priority``
   a no-op; RFC 9113 §5.3.2 deprecates that signalling.  PRIORITY's
   header is read from ``on_begin_frame`` on every build.
"""

import functools
import random

import pytest

from repro.h2.connection import ConnectionConfig, H2Connection, Side
from repro.h2.constants import (
    CONNECTION_PREFACE,
    DEFAULT_MAX_FRAME_SIZE,
    FRAME_HEADER_LENGTH,
    ErrorCode,
    FrameFlag,
    FrameType,
)
from repro.h2.errors import FrameSizeError, H2Error, ProtocolError
from repro.h2.frames import (
    ContinuationFrame,
    DataFrame,
    GoAwayFrame,
    HeadersFrame,
    PingFrame,
    PriorityData,
    PriorityFrame,
    RstStreamFrame,
    SettingsFrame,
    WindowUpdateFrame,
    parse_frames,
    parse_frames_view,
    serialize_frame,
    serialize_frame_into,
)
from repro.h2.hpack.decoder import Decoder
from repro.h2.hpack.encoder import Encoder

from tests.h2.test_fuzz_roundtrip import FRAME_SEED, random_frame
from tests.support.nghttp2 import ServerSession, error_frames, libraries
from tests.support.readers import parse_frame_header

pytestmark = pytest.mark.skipif(not libraries(), reason="no libnghttp2 loads")

SEED = FRAME_SEED + 20
REQUEST = [
    (b":method", b"GET"),
    (b":scheme", b"https"),
    (b":path", b"/"),
    (b":authority", b"oracle.test"),
]
EMPTY_SETTINGS = serialize_frame(SettingsFrame())
PROTOCOL = ("GOAWAY", ErrorCode.PROTOCOL_ERROR)

#: The flags RFC 7540 §6 defines for each frame type (normalisation 1).
DEFINED_FLAGS = {
    FrameType.DATA: FrameFlag.END_STREAM | FrameFlag.PADDED,
    FrameType.HEADERS: FrameFlag.END_STREAM
    | FrameFlag.END_HEADERS
    | FrameFlag.PADDED
    | FrameFlag.PRIORITY,
    FrameType.PRIORITY: 0,
    FrameType.RST_STREAM: 0,
    FrameType.SETTINGS: FrameFlag.ACK,
    FrameType.PING: FrameFlag.ACK,
    FrameType.GOAWAY: 0,
    FrameType.WINDOW_UPDATE: 0,
    FrameType.CONTINUATION: FrameFlag.END_HEADERS,
}
#: The identifiers RFC 7540 §6.5.2 defines (normalisation 2).
DEFINED_SETTINGS = range(1, 7)

#: Every ``(class, message)`` the hostile corpus draws from
#: ``parse_frames``.  A new message, or one that stops occurring, shows
#: up here.
PARSE_ERRORS = {
    ("FrameSizeError", "GOAWAY payload shorter than 8 octets"),
    ("FrameSizeError", "HEADERS with PRIORITY flag shorter than 5 octets"),
    ("FrameSizeError", "PING payload must be exactly 8 octets"),
    ("FrameSizeError", "PRIORITY payload must be exactly 5 octets"),
    ("FrameSizeError", "RST_STREAM payload must be exactly 4 octets"),
    ("FrameSizeError", "SETTINGS ACK must have an empty payload"),
    ("FrameSizeError", "SETTINGS payload not a multiple of 6 octets"),
    ("FrameSizeError", "WINDOW_UPDATE payload must be exactly 4 octets"),
    ("FrameSizeError", "frame of 16385 octets exceeds SETTINGS_MAX_FRAME_SIZE 16384"),
    ("FrameSizeError", "frame of 16777215 octets exceeds SETTINGS_MAX_FRAME_SIZE 16384"),
    ("FrameSizeError", "padded DATA frame without pad length octet"),
    ("FrameSizeError", "padded HEADERS frame without pad length octet"),
    ("ProtocolError", "padding longer than remaining DATA payload"),
    ("ProtocolError", "padding longer than remaining HEADERS payload"),
}

#: Where our server and nghttp2 still part ways on the hostile corpus,
#: and why: a rule nghttp2 enforces that our permissive ``H2Connection``
#: does not, or a choice the RFC leaves open.
KNOWN_DISAGREEMENTS = {
    "idle WINDOW_UPDATE": "WINDOW_UPDATE on an idle stream is a PROTOCOL_ERROR "
    "(RFC 7540 §5.1); H2Connection tolerates it as a race with closure",
    "odd GOAWAY": "nghttp2 refuses a client GOAWAY naming a client-initiated "
    "stream (§6.8: it names streams the receiver initiated); H2Connection "
    "takes any last stream id",
    "even HEADERS": "a client HEADERS on an even stream is a PROTOCOL_ERROR "
    "(§5.1.1); H2Connection accepts it",
    "early block": "nghttp2 decodes and checks a HEADERS fragment as it "
    "arrives; H2Connection waits for END_HEADERS, which this frame lacks",
    "malformed request": "a request without :method, :scheme, :path and "
    ":authority is malformed (§8.1.2.3); H2Connection does not check requests",
    "no pad length octet": "a padded frame with no room for its Pad Length is "
    "too small for its mandatory data, FRAME_SIZE_ERROR by §4.2; nghttp2 says "
    "PROTOCOL_ERROR, as for padding that fills the payload (§6.1)",
}


# -- client frames a server accepts -----------------------------------------------


def undefined_flags(rng, frame_type) -> int:
    """Flag bits §6 leaves undefined for the type, set on a third of frames."""
    if rng.random() < 0.3:
        return rng.randrange(256) & ~int(DEFINED_FLAGS[frame_type])
    return 0


def random_priority(rng, stream_id) -> PriorityData:
    """A dependency on any stream but the frame's own."""
    depends_on = rng.choice([0, 1, rng.randrange(2**31)])
    return PriorityData(
        depends_on=depends_on if depends_on != stream_id else 0,
        weight=rng.randrange(1, 257),
        exclusive=rng.random() < 0.5,
    )


def random_settings(rng) -> SettingsFrame:
    """Valid values for the defined identifiers, repeats and unknown ones."""
    values = {
        1: lambda: rng.randrange(2**32),
        2: lambda: rng.randrange(2),
        3: lambda: rng.randrange(2**32),
        4: lambda: rng.randrange(2**20),
        5: lambda: rng.randrange(DEFAULT_MAX_FRAME_SIZE, 2**24),
        6: lambda: rng.randrange(2**32),
    }
    entries = []
    for _ in range(rng.randrange(10)):
        unknown = [0, 0x10, 0x4242, rng.randrange(0x10, 2**16)]
        ident = rng.choice([*DEFINED_SETTINGS, *unknown])
        value = values[ident]() if ident in values else rng.randrange(2**32)
        entries.append((ident, value))
    flags = FrameFlag(undefined_flags(rng, FrameType.SETTINGS))
    return SettingsFrame(flags=flags, settings=entries)


def request_frames(rng, encoder, stream_id) -> list:
    """HEADERS for a GET, padded or not, maybe split over CONTINUATION."""
    extra = [
        (
            b"x-" + bytes(rng.choices(b"abcdefgh", k=rng.randrange(1, 8))),
            bytes(rng.choices(b"abcdefghijklmnopqrstuvwxyz0123", k=rng.randrange(30))),
        )
        for _ in range(rng.randrange(4))
    ]
    block = encoder.encode(REQUEST + extra)
    cuts = []
    if rng.random() < 0.4:
        cuts = sorted(rng.sample(range(1, len(block)), rng.randrange(1, 3)))
    pieces = [block[a:b] for a, b in zip([0, *cuts], [*cuts, len(block)])]
    end_headers = FrameFlag.NONE if cuts else FrameFlag.END_HEADERS
    frames = [
        HeadersFrame(
            stream_id=stream_id,
            flags=FrameFlag(undefined_flags(rng, FrameType.HEADERS) | end_headers),
            header_block=pieces[0],
            priority=random_priority(rng, stream_id) if rng.random() < 0.3 else None,
            pad_length=rng.randrange(40) if rng.random() < 0.4 else None,
        )
    ]
    for i, piece in enumerate(pieces[1:], start=2):
        end = FrameFlag.END_HEADERS if i == len(pieces) else FrameFlag.NONE
        flags = FrameFlag(undefined_flags(rng, FrameType.CONTINUATION) | end)
        frames.append(
            ContinuationFrame(stream_id=stream_id, flags=flags, header_block=piece)
        )
    return frames


def client_frames(rng) -> list:
    """A client's frames that a server accepts: SETTINGS (with and
    without ACK), PING (with and without ACK), WINDOW_UPDATE on stream 0
    and on an open stream, PRIORITY, HEADERS (padded, unpadded, split),
    DATA and RST_STREAM on open streams, and a closing GOAWAY."""
    encoder = Encoder()
    frames = [random_settings(rng)]
    open_streams, next_id = [], 1
    for _ in range(rng.randrange(10, 25)):
        kind = rng.randrange(8) if open_streams else 0
        sid = rng.choice(open_streams) if open_streams else 0
        if kind == 0:
            frames += request_frames(rng, encoder, next_id)
            open_streams.append(next_id)
            next_id += 2
        elif kind == 1:
            end = FrameFlag.END_STREAM if rng.random() < 0.2 else FrameFlag.NONE
            frames.append(
                DataFrame(
                    stream_id=sid,
                    flags=FrameFlag(undefined_flags(rng, FrameType.DATA) | end),
                    data=rng.randbytes(rng.randrange(200)),
                    pad_length=rng.randrange(40) if rng.random() < 0.4 else None,
                )
            )
            if end:
                open_streams.remove(sid)
        elif kind == 2:
            flags = FrameFlag(undefined_flags(rng, FrameType.RST_STREAM))
            code = rng.randrange(2**32)
            frames.append(RstStreamFrame(stream_id=sid, flags=flags, error_code=code))
            open_streams.remove(sid)
        elif kind == 3:
            flags = FrameFlag(undefined_flags(rng, FrameType.WINDOW_UPDATE))
            frames.append(
                WindowUpdateFrame(
                    stream_id=rng.choice([0, sid]),
                    flags=flags,
                    window_increment=rng.randrange(1, 2**16),
                )
            )
        elif kind == 4:
            flags = FrameFlag(undefined_flags(rng, FrameType.PRIORITY))
            priority = random_priority(rng, sid)
            frames.append(PriorityFrame(stream_id=sid, flags=flags, priority=priority))
        elif kind == 5:
            ack = FrameFlag.ACK if rng.random() < 0.3 else FrameFlag.NONE
            flags = FrameFlag(undefined_flags(rng, FrameType.PING) | ack)
            frames.append(PingFrame(flags=flags, payload=rng.randbytes(8)))
        elif kind == 6:
            frames.append(random_settings(rng))
        else:
            flags = FrameFlag(undefined_flags(rng, FrameType.SETTINGS) | FrameFlag.ACK)
            frames.append(SettingsFrame(flags=flags))
    frames.append(
        GoAwayFrame(
            flags=FrameFlag(undefined_flags(rng, FrameType.GOAWAY)),
            # §6.8: a client's GOAWAY names a server-initiated (even) stream.
            last_stream_id=2 * rng.randrange(2**30),
            error_code=rng.randrange(2**32),
            debug_data=rng.randbytes(rng.randrange(30)),
        )
    )
    return frames


# -- what nghttp2 should report ------------------------------------------------------


def collapse_settings(entries) -> list[tuple[int, int]]:
    """Normalisation 2: a repeated defined identifier keeps its first
    place and takes its last value; other identifiers stay as sent.

    HEADER_TABLE_SIZE keeps one more entry when its smallest value is
    below its last: the smallest takes the first place and the last is
    appended, as an HPACK encoder must signal both (RFC 7541 §4.2).
    """
    out: list[list[int]] = []
    for ident, value in entries:
        earlier = [e for e in out if e[0] == ident and ident in DEFINED_SETTINGS]
        if earlier:
            earlier[0][1] = value
        else:
            out.append([ident, value])
    table_sizes = [value for ident, value in entries if ident == 1]
    if table_sizes and min(table_sizes) < table_sizes[-1]:
        next(e for e in out if e[0] == 1)[1] = min(table_sizes)
        out.append([1, table_sizes[-1]])
    return [tuple(e) for e in out]


def padlen(frame) -> int:
    """nghttp2 counts the Pad Length octet in ``padlen``."""
    return 0 if frame.pad_length is None else frame.pad_length + 1


def pri_spec(priority: PriorityData | None) -> tuple[int, int, bool]:
    if priority is None:  # RFC 7540 §5.3.5 defaults
        return 0, 16, False
    return priority.depends_on, priority.weight, priority.exclusive


def payload_fields(frame) -> dict:
    """Our parsed fields under nghttp2's names for them."""
    if isinstance(frame, DataFrame):
        return {"padlen": padlen(frame)}
    if isinstance(frame, HeadersFrame):
        return {"padlen": padlen(frame), "pri_spec": pri_spec(frame.priority)}
    if isinstance(frame, PriorityFrame):
        return {"pri_spec": pri_spec(frame.priority)}
    if isinstance(frame, RstStreamFrame):
        return {"error_code": frame.error_code}
    if isinstance(frame, SettingsFrame):
        return {"iv": collapse_settings(frame.settings)}
    if isinstance(frame, PingFrame):
        return {"opaque_data": frame.payload}
    if isinstance(frame, GoAwayFrame):
        return {
            "last_stream_id": frame.last_stream_id,
            "error_code": frame.error_code,
            "opaque_data": frame.debug_data,
        }
    assert isinstance(frame, WindowUpdateFrame)
    return {"window_size_increment": frame.window_increment}


def expected_reports(wire: bytes, keeps_priority: bool):
    """What nghttp2 should report for ``wire``, from our parse of it:
    ``(begun, received, data)`` in :class:`ServerSession`'s shapes."""
    parsed, remainder = parse_frames(wire)
    assert remainder == b""
    begun, received, data = [], [], []
    offset, pending = 0, None
    for frame in parsed:
        length, frame_type, flags, stream_id = parse_frame_header(wire[offset:])
        offset += FRAME_HEADER_LENGTH + length
        masked = int(flags) & int(DEFINED_FLAGS[frame_type])  # normalisation 1
        if frame_type == FrameType.CONTINUATION:
            begun.append((length, frame_type, int(flags), stream_id))
            # nghttp2 reports a split block once, as its HEADERS with the
            # lengths summed and END_HEADERS taken from the last piece.
            pending[0] += length
            pending[2] |= masked
            if masked & FrameFlag.END_HEADERS:
                received.append((tuple(pending[:4]), pending[4]))
            continue
        begun.append((length, frame_type, masked, stream_id))
        if isinstance(frame, DataFrame) and frame.data:
            data.append((stream_id, frame.data))
        if frame_type == FrameType.HEADERS and not masked & FrameFlag.END_HEADERS:
            pending = [length, frame_type, masked, stream_id, payload_fields(frame)]
        elif keeps_priority or frame_type != FrameType.PRIORITY:  # normalisation 3
            received.append((begun[-1], payload_fields(frame)))
    return begun, received, data


@functools.lru_cache(maxsize=None)
def keeps_rfc7540_priorities(ng) -> bool:
    """Whether this build still reports PRIORITY frames (normalisation 3)."""
    session = ServerSession(ng)
    priority = PriorityFrame(stream_id=3, priority=PriorityData(depends_on=1))
    session.receive(CONNECTION_PREFACE + EMPTY_SETTINGS + serialize_frame(priority))
    return any(hd[1] == FrameType.PRIORITY for hd, _ in session.received)


def acks_awaited(session: ServerSession, frames) -> None:
    """Have the server send the SETTINGS that ``frames``' ACKs acknowledge."""
    for frame in frames:
        if isinstance(frame, SettingsFrame) and frame.is_ack:
            session.submit_settings([])
    session.send()


def feed(ng, frames) -> tuple[ServerSession, bytes]:
    """Feed a server session the preface, an empty SETTINGS and
    ``frames`` one at a time; returns it and the bytes after the preface."""
    session = ServerSession(ng)
    acks_awaited(session, frames)
    pieces = [EMPTY_SETTINGS, *map(serialize_frame, frames)]
    assert session.receive(CONNECTION_PREFACE) == len(CONNECTION_PREFACE)
    for octets in pieces:
        assert session.receive(octets) == len(octets)
        session.send()
    assert session.invalid == []
    return session, b"".join(pieces)


def by_stream(chunks) -> dict[int, bytes]:
    """DATA octets per stream, however they were chunked."""
    out: dict[int, bytes] = {}
    for stream_id, chunk in chunks:
        out[stream_id] = out.get(stream_id, b"") + chunk
    return out


def client_corpus(seed, count=60):
    rng = random.Random(seed)
    return [client_frames(rng) for _ in range(count)]


# -- theirs to ours ------------------------------------------------------------------


def opened_session(ng) -> ServerSession:
    """A server session with streams 1 and 3 open."""
    encoder = Encoder()
    requests = b"".join(
        serialize_frame(
            HeadersFrame(
                stream_id=sid,
                flags=FrameFlag.END_HEADERS,
                header_block=encoder.encode(REQUEST),
            )
        )
        for sid in (1, 3)
    )
    session = ServerSession(ng)
    session.receive(CONNECTION_PREFACE + EMPTY_SETTINGS + requests)
    session.send()
    return session


def submissions(rng):
    """``(submit_* method, its arguments, the frame expected)``: SETTINGS,
    PING with and without ACK, WINDOW_UPDATE and PRIORITY, then
    RST_STREAM and GOAWAY."""
    out = []
    for _ in range(rng.randrange(4, 12)):
        kind = rng.randrange(5)
        if kind == 0:
            entries = [
                (rng.choice([1, 3, 6, 0x4242]), rng.randrange(2**32))
                if rng.random() < 0.6
                else (4, rng.randrange(2**31))
                for _ in range(rng.randrange(5))
            ]
            out.append(("settings", (entries,), SettingsFrame(settings=entries)))
        elif kind == 1:
            payload, ack = rng.randbytes(8), rng.random() < 0.5
            flags = FrameFlag.ACK if ack else FrameFlag.NONE
            out.append(("ping", (payload, ack), PingFrame(flags=flags, payload=payload)))
        elif kind == 2:
            sid, inc = rng.choice([0, 1]), rng.randrange(1, 2**16)
            frame = WindowUpdateFrame(stream_id=sid, window_increment=inc)
            out.append(("window_update", (sid, inc), frame))
        else:
            sid = rng.choice([1, 3, 5, 7])
            spec = random_priority(rng, sid)
            args = (sid, spec.depends_on, spec.weight, spec.exclusive)
            out.append(("priority", args, PriorityFrame(stream_id=sid, priority=spec)))
    code, debug = rng.randrange(2**32), rng.randbytes(rng.randrange(20))
    last = rng.choice([0, 1, 3])
    out.append(("rst_stream", (1, code), RstStreamFrame(stream_id=1, error_code=code)))
    goaway = GoAwayFrame(last_stream_id=last, error_code=code, debug_data=debug)
    out.append(("goaway", (last, code, debug), goaway))
    return out


# -- hostile bytes ------------------------------------------------------------------


def mutate(rng, wire: bytes) -> bytes:
    """One mutation of one frame: a header bit flip, a changed length
    (the payload cut or grown to it), or a pad length past the payload."""
    header = bytearray(wire[:FRAME_HEADER_LENGTH])
    payload = bytearray(wire[FRAME_HEADER_LENGTH:])
    padded = header[3] in (FrameType.DATA, FrameType.HEADERS) and header[4] & FrameFlag.PADDED
    kinds = ["flip", "length", "pad"] if padded and payload else ["flip", "length"]
    kind = rng.choice(kinds)
    if kind == "flip":
        bit = rng.randrange(24, 72)  # type, flags, reserved bit and stream id
        header[bit // 8] ^= 0x80 >> (bit % 8)
    elif kind == "length":
        near = [len(payload) - 1, len(payload) + 1]
        oversized = [DEFAULT_MAX_FRAME_SIZE + 1, 2**24 - 1]
        length = max(0, rng.choice([0, 1, 4, 5, 7, 8, 9, *near, *oversized]))
        header[:3] = length.to_bytes(3, "big")
        if length <= DEFAULT_MAX_FRAME_SIZE:
            payload = payload[:length] + rng.randbytes(max(0, length - len(payload)))
    else:
        payload[0] = rng.randrange(len(payload), 256) if len(payload) < 256 else 255
    return bytes(header + payload)


def stream_one_open() -> bytes:
    """The client's empty SETTINGS and a GET on stream 1."""
    block = Encoder().encode(REQUEST)
    return EMPTY_SETTINGS + serialize_frame(
        HeadersFrame(stream_id=1, flags=FrameFlag.END_HEADERS, header_block=block)
    )


def hostile_frame(rng) -> bytes:
    """A frame a server accepts after :func:`stream_one_open`."""
    make = rng.choice(
        [
            lambda: random_settings(rng),
            lambda: PingFrame(payload=rng.randbytes(8)),
            lambda: WindowUpdateFrame(
                stream_id=rng.choice([0, 1]), window_increment=rng.randrange(1, 2**16)
            ),
            lambda: GoAwayFrame(
                last_stream_id=2 * rng.randrange(2**30),
                error_code=rng.randrange(16),
                debug_data=rng.randbytes(rng.randrange(10)),
            ),
            lambda: PriorityFrame(stream_id=3, priority=random_priority(rng, 3)),
            lambda: RstStreamFrame(stream_id=1, error_code=rng.randrange(16)),
            lambda: DataFrame(
                stream_id=1,
                data=rng.randbytes(rng.randrange(60)),
                pad_length=rng.choice([None, rng.randrange(20)]),
            ),
            lambda: request_frames(rng, Encoder(), 3)[0],
        ]
    )
    return serialize_frame(make())


def wire_outcome(octets: bytes):
    """A GOAWAY if one was sent, else the first RST_STREAM, else ``ok``."""
    found = error_frames(octets)
    goaways = [item for item in found if item[0] == "GOAWAY"]
    return (goaways or found or [("ok", 0)])[0]


def nghttp2_outcome(ng, context: bytes, frame: bytes):
    session = ServerSession(ng)
    session.receive(CONNECTION_PREFACE + context)
    session.send()
    consumed = session.receive(frame)
    if consumed < 0:
        return "fatal", consumed
    return wire_outcome(session.send())


def codec_outcome(frame: bytes):
    """Our frame layer at the server's SETTINGS_MAX_FRAME_SIZE:
    ``(outcome, (class, message))``, or ``(None, None)`` if it parses."""
    try:
        parse_frames_view(memoryview(frame), DEFAULT_MAX_FRAME_SIZE)
    except (FrameSizeError, ProtocolError) as exc:
        return ("GOAWAY", int(exc.error_code)), (type(exc).__name__, str(exc))
    return None, None


def server_connection(context: bytes) -> H2Connection:
    conn = H2Connection(ConnectionConfig(side=Side.SERVER))
    conn.initiate()
    conn.receive_bytes(CONNECTION_PREFACE + context)
    conn.data_to_send()
    return conn


def connection_outcome(context: bytes, frame: bytes):
    """Our server connection fed the same bytes: any other exception
    than a typed :class:`H2Error` fails the test."""
    conn = server_connection(context)
    try:
        conn.receive_bytes(frame)
    except H2Error as exc:
        return "GOAWAY", int(exc.error_code)
    return wire_outcome(conn.data_to_send())


def why_they_differ(frame: bytes, ours, theirs) -> str | None:
    """The :data:`KNOWN_DISAGREEMENTS` entry a case falls under, if any."""
    length, frame_type, flags, stream_id = parse_frame_header(frame)
    if ours == ("GOAWAY", ErrorCode.FRAME_SIZE_ERROR) and theirs == PROTOCOL:
        padded = flags & FrameFlag.PADDED and frame_type in (FrameType.DATA, FrameType.HEADERS)
        return "no pad length octet" if padded and length == 0 else None
    if ours != ("ok", 0):
        return None
    idle = stream_id not in (0, 1)  # stream_one_open() opened stream 1
    if frame_type == FrameType.WINDOW_UPDATE and idle and theirs == PROTOCOL:
        return "idle WINDOW_UPDATE"
    if frame_type == FrameType.GOAWAY and theirs == PROTOCOL:
        # A GOAWAY that parsed has its Last-Stream-ID in octets 9-12.
        return "odd GOAWAY" if frame[12] & 1 else None
    if frame_type != FrameType.HEADERS or theirs[1] not in (
        ErrorCode.PROTOCOL_ERROR,
        ErrorCode.COMPRESSION_ERROR,
    ):
        return None
    if stream_id % 2 == 0:
        return "even HEADERS"
    if not flags & FrameFlag.END_HEADERS:
        return "early block"
    events = server_connection(stream_one_open()).receive_bytes(frame)
    sent = [event.headers for event in events if hasattr(event, "headers")]
    names = {name for headers in sent for name, _ in headers}
    return None if {name for name, _ in REQUEST} <= names else "malformed request"


@functools.lru_cache(maxsize=None)
def hostile_corpus() -> list[bytes]:
    """1 500 mutated frames, each sent after :func:`stream_one_open`."""
    rng = random.Random(SEED + 3)
    return [mutate(rng, hostile_frame(rng)) for _ in range(1500)]


def hostile_results(ng):
    """``(mutated frame, our outcome, nghttp2's outcome)`` per case."""
    context = stream_one_open()
    results = []
    for frame in hostile_corpus():
        ours = codec_outcome(frame)[0] or connection_outcome(context, frame)
        results.append((frame, ours, nghttp2_outcome(ng, context, frame)))
    return results


# -- the tests ------------------------------------------------------------------------


class TestSerializeDifferential:
    def test_random_frames_serialize_byte_identically(self):
        """nghttp2's bytes for each submitted frame are ours for the same
        fields, and parse back to exactly them."""
        for ng in libraries():
            rng = random.Random(SEED + 1)
            keeps_priority = keeps_rfc7540_priorities(ng)
            for _ in range(60):
                session = opened_session(ng)
                for name, args, expected in submissions(rng):
                    getattr(session, f"submit_{name}")(*args)
                    octets = session.send()
                    if isinstance(expected, PriorityFrame) and not keeps_priority:
                        assert octets == b"", ng  # normalisation 3
                        continue
                    assert octets == serialize_frame(expected), ng
                    assert parse_frames(octets) == ([expected], b""), ng

    def test_serialize_into_appends_without_disturbing_prefix(self):
        rng = random.Random(FRAME_SEED + 11)
        out = bytearray(b"prefix")
        singles = []
        for _ in range(50):
            frame = random_frame(rng)
            serialize_frame_into(frame, out)
            singles.append(serialize_frame(frame))
        assert bytes(out) == b"prefix" + b"".join(singles)

    def test_failed_serialize_leaves_buffer_untouched(self):
        out = bytearray(b"keep")
        with pytest.raises(FrameSizeError):
            serialize_frame_into(PingFrame(payload=b"short"), out)
        assert out == bytearray(b"keep")
        with pytest.raises(ProtocolError):
            serialize_frame_into(DataFrame(stream_id=1, data=b"x", pad_length=300), out)
        assert out == bytearray(b"keep")

    def test_serialize_error_classes_match_reference(self):
        """The class each unserialisable frame raises, exactly."""
        for frame, error_class in [
            (PingFrame(payload=b"way too long for ping"), FrameSizeError),
            (DataFrame(stream_id=1, data=b"x", pad_length=999), ProtocolError),
            (PriorityFrame(stream_id=3, priority=PriorityData(weight=0)), ProtocolError),
            (HeadersFrame(stream_id=5, header_block=b"hb", pad_length=-1), ProtocolError),
        ]:
            with pytest.raises(H2Error) as raised:
                serialize_frame(frame)
            assert type(raised.value) is error_class


class TestParseDifferential:
    def test_parse_frame_header_matches(self):
        """Every header nghttp2's ``on_begin_frame`` saw is the one
        ``parse_frame_header`` reads (normalisation 1 aside)."""
        for ng in libraries():
            for frames in client_corpus(SEED):
                session, wire = feed(ng, frames)
                assert session.begun == expected_reports(wire, True)[0], ng
        for short in (b"", b"\x00" * 8):
            with pytest.raises(FrameSizeError):
                parse_frame_header(short)

    def test_valid_wire_parses_identically(self):
        """nghttp2 decodes the payload fields ``parse_frames`` reads."""
        for ng in libraries():
            kinds = set()
            for frames in client_corpus(SEED):
                session, wire = feed(ng, frames)
                _, received, data = expected_reports(wire, keeps_rfc7540_priorities(ng))
                assert session.received == received, ng
                assert session.data == data, ng
                assert error_frames(session.send()) == [], ng
                kinds |= {type(frame).__name__ for frame in frames}
            assert len(kinds) == 9  # every kind a server accepts from a client

    def test_concatenated_and_truncated_streams_parse_identically(self):
        """The same exchanges fed as one stream cut at random points."""
        rng = random.Random(SEED + 4)
        for ng in libraries():
            for frames in client_corpus(SEED, count=30):
                session = ServerSession(ng)
                acks_awaited(session, frames)
                wire = EMPTY_SETTINGS + b"".join(map(serialize_frame, frames))
                stream = CONNECTION_PREFACE + wire
                cuts = sorted(rng.sample(range(1, len(stream)), 20))
                for start, end in zip([0, *cuts], [*cuts, len(stream)]):
                    assert session.receive(stream[start:end]) == end - start, ng
                    session.send()
                keeps_priority = keeps_rfc7540_priorities(ng)
                begun, received, data = expected_reports(wire, keeps_priority)
                assert (session.begun, session.received) == (begun, received), ng
                # A cut DATA frame arrives in more than one chunk.
                assert by_stream(session.data) == by_stream(data), ng

    def test_normalised_cases_occur(self):
        """The corpus reaches all three normalisations."""
        frames = [frame for exchange in client_corpus(SEED) for frame in exchange]
        assert any(int(f.flags) & ~int(DEFINED_FLAGS[f.frame_type]) for f in frames)
        settings = [f.settings for f in frames if isinstance(f, SettingsFrame)]
        assert any(collapse_settings(s) != s for s in settings)
        assert any(len(collapse_settings(s)) > len({i for i, _ in s}) for s in settings)
        assert any(isinstance(f, PriorityFrame) for f in frames)

    def test_submitted_response_parses_back(self):
        for ng in libraries():
            rng = random.Random(SEED + 2)
            for _ in range(60):
                session, decoder = opened_session(ng), Decoder()
                headers = [(b":status", b"%d" % rng.choice([200, 204, 302, 404]))] + [
                    (
                        b"x-" + bytes(rng.choices(b"abcdef", k=4)),
                        bytes(rng.choices(b"0123456789abc", k=rng.randrange(20))),
                    )
                    for _ in range(rng.randrange(5))
                ]
                session.submit_response(3, headers)
                (frame,), remainder = parse_frames(session.send())
                assert remainder == b"", ng
                assert isinstance(frame, HeadersFrame), ng
                assert frame.stream_id == 3
                assert frame.flags == FrameFlag.END_STREAM | FrameFlag.END_HEADERS
                assert (frame.priority, frame.pad_length) == (None, None)
                assert decoder.decode(frame.header_block) == headers

    def test_max_frame_size_enforcement_matches(self):
        """Both servers' SETTINGS_MAX_FRAME_SIZE is 16 384: a frame of that
        length is taken, one octet more is a FRAME_SIZE_ERROR to both."""
        context = stream_one_open()
        for ng in libraries():
            too_large = ("GOAWAY", ErrorCode.FRAME_SIZE_ERROR)
            for extra, expected in [(0, ("ok", 0)), (1, too_large)]:
                size = DEFAULT_MAX_FRAME_SIZE + extra
                for frame in (
                    DataFrame(stream_id=1, data=bytes(size)),
                    GoAwayFrame(debug_data=bytes(size - 8)),
                ):
                    octets = serialize_frame(frame)
                    ours = codec_outcome(octets)[0] or connection_outcome(context, octets)
                    assert ours == nghttp2_outcome(ng, context, octets) == expected, ng

    def test_mutated_wire_matches_reference_outcomes(self):
        """Codec errors meet a GOAWAY of their code, semantic rejections an
        H2Connection error of the same code; the rest is known."""
        for ng in libraries():
            unexplained = [
                (frame.hex(), ours, theirs)
                for frame, ours, theirs in hostile_results(ng)
                if ours != theirs and why_they_differ(frame, ours, theirs) is None
            ]
            assert unexplained == [], ng

    def test_parse_error_messages(self):
        raised = {codec_outcome(frame)[1] for frame in hostile_corpus()}
        assert raised - {None} == PARSE_ERRORS
