"""Frame codec (RFC 7540 §4, §6)."""

import pytest
from hypothesis import given, strategies as st

from repro.h2.constants import FrameFlag, FrameType
from repro.h2.errors import FrameSizeError, ProtocolError
from repro.h2.frames import (
    ContinuationFrame,
    DataFrame,
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
    parse_frames,
    parse_frames_view,
    serialize_frame,
)
from tests.support.readers import parse_frame_header


def roundtrip(frame):
    frames, rest = parse_frames(serialize_frame(frame))
    assert rest == b""
    assert len(frames) == 1
    return frames[0]


class TestFrameHeader:
    def test_header_layout(self):
        wire = serialize_frame(DataFrame(stream_id=5, data=b"abc"))
        length, frame_type, flags, stream_id = parse_frame_header(wire)
        assert (length, frame_type, stream_id) == (3, FrameType.DATA, 5)
        assert flags == FrameFlag.NONE

    def test_reserved_bit_masked(self):
        wire = bytearray(serialize_frame(PingFrame()))
        wire[5] |= 0x80  # set the reserved bit of the stream id
        _, _, _, stream_id = parse_frame_header(bytes(wire))
        assert stream_id == 0

    def test_truncated_header_raises(self):
        with pytest.raises(FrameSizeError):
            parse_frame_header(b"\x00\x00\x01")


class TestDataFrame:
    def test_roundtrip(self):
        frame = roundtrip(DataFrame(stream_id=1, data=b"payload"))
        assert frame.data == b"payload"
        assert frame.stream_id == 1

    def test_end_stream_flag(self):
        frame = roundtrip(DataFrame(stream_id=1, flags=FrameFlag.END_STREAM, data=b"x"))
        assert frame.has_flag(FrameFlag.END_STREAM)

    def test_padding_roundtrip(self):
        frame = roundtrip(DataFrame(stream_id=3, data=b"abc", pad_length=10))
        assert frame.data == b"abc"
        assert frame.pad_length == 10

    def test_flow_controlled_length_counts_padding(self):
        frame = DataFrame(stream_id=1, data=b"abc", pad_length=10)
        # 3 data + 10 padding + 1 pad-length octet (§6.9.1)
        assert frame.flow_controlled_length == 14

    def test_padding_exceeding_payload_rejected(self):
        wire = bytearray(serialize_frame(DataFrame(stream_id=1, data=b"ab", pad_length=1)))
        wire[9] = 200  # pad length > remaining payload
        with pytest.raises(ProtocolError):
            parse_frames(bytes(wire))

    def test_empty_padded_frame_rejected(self):
        header = (0).to_bytes(3, "big") + bytes([0, int(FrameFlag.PADDED)]) + (1).to_bytes(4, "big")
        with pytest.raises(FrameSizeError):
            parse_frames(header)

    def test_zero_length_data(self):
        frame = roundtrip(DataFrame(stream_id=1, data=b""))
        assert frame.data == b""
        assert frame.flow_controlled_length == 0


class TestHeadersFrame:
    def test_roundtrip(self):
        frame = roundtrip(
            HeadersFrame(stream_id=1, flags=FrameFlag.END_HEADERS, header_block=b"\x82")
        )
        assert frame.header_block == b"\x82"

    def test_priority_block_roundtrip(self):
        prio = PriorityData(depends_on=3, weight=200, exclusive=True)
        frame = roundtrip(HeadersFrame(stream_id=5, header_block=b"hb", priority=prio))
        assert frame.priority == prio
        assert frame.has_flag(FrameFlag.PRIORITY)

    def test_priority_and_padding(self):
        prio = PriorityData(depends_on=1, weight=16)
        frame = roundtrip(
            HeadersFrame(stream_id=5, header_block=b"hb", priority=prio, pad_length=4)
        )
        assert frame.header_block == b"hb"
        assert frame.priority == prio

    def test_priority_flag_with_short_payload_rejected(self):
        header = (
            (3).to_bytes(3, "big")
            + bytes([int(FrameType.HEADERS), int(FrameFlag.PRIORITY)])
            + (1).to_bytes(4, "big")
            + b"abc"
        )
        with pytest.raises(FrameSizeError):
            parse_frames(header)


class TestPriorityFrame:
    def test_roundtrip(self):
        prio = PriorityData(depends_on=7, weight=1, exclusive=False)
        frame = roundtrip(PriorityFrame(stream_id=9, priority=prio))
        assert frame.priority == prio

    def test_exclusive_bit(self):
        wire = serialize_frame(
            PriorityFrame(stream_id=9, priority=PriorityData(3, 16, True))
        )
        assert wire[9] & 0x80

    def test_weight_transmitted_minus_one(self):
        wire = serialize_frame(
            PriorityFrame(stream_id=9, priority=PriorityData(3, 256, False))
        )
        assert wire[13] == 255

    def test_self_dependency_representable(self):
        # H2Scope must be able to *send* this protocol violation.
        frame = roundtrip(PriorityFrame(stream_id=9, priority=PriorityData(9, 16)))
        assert frame.priority.depends_on == frame.stream_id

    def test_wrong_length_rejected(self):
        header = (
            (4).to_bytes(3, "big")
            + bytes([int(FrameType.PRIORITY), 0])
            + (1).to_bytes(4, "big")
            + b"\x00" * 4
        )
        with pytest.raises(FrameSizeError):
            parse_frames(header)

    @pytest.mark.parametrize("weight", [0, 257])
    def test_out_of_range_weight_rejected_on_serialize(self, weight):
        with pytest.raises(ProtocolError):
            PriorityFrame(stream_id=1, priority=PriorityData(0, weight)).serialize_payload()


class TestRstStream:
    def test_roundtrip(self):
        frame = roundtrip(RstStreamFrame(stream_id=3, error_code=8))
        assert frame.error_code == 8

    def test_wrong_length_rejected(self):
        header = (
            (3).to_bytes(3, "big")
            + bytes([int(FrameType.RST_STREAM), 0])
            + (1).to_bytes(4, "big")
            + b"\x00" * 3
        )
        with pytest.raises(FrameSizeError):
            parse_frames(header)


class TestSettings:
    def test_roundtrip(self):
        frame = roundtrip(SettingsFrame(settings=[(3, 100), (4, 65535)]))
        assert frame.settings == [(3, 100), (4, 65535)]

    def test_empty_settings(self):
        frame = roundtrip(SettingsFrame())
        assert frame.settings == []
        assert not frame.is_ack

    def test_ack(self):
        frame = roundtrip(SettingsFrame(flags=FrameFlag.ACK))
        assert frame.is_ack

    def test_ack_with_payload_rejected(self):
        header = (
            (6).to_bytes(3, "big")
            + bytes([int(FrameType.SETTINGS), int(FrameFlag.ACK)])
            + (0).to_bytes(4, "big")
            + b"\x00" * 6
        )
        with pytest.raises(FrameSizeError):
            parse_frames(header)

    def test_payload_not_multiple_of_6_rejected(self):
        header = (
            (5).to_bytes(3, "big")
            + bytes([int(FrameType.SETTINGS), 0])
            + (0).to_bytes(4, "big")
            + b"\x00" * 5
        )
        with pytest.raises(FrameSizeError):
            parse_frames(header)

    def test_unknown_identifiers_preserved(self):
        frame = roundtrip(SettingsFrame(settings=[(0xF0, 42)]))
        assert frame.settings == [(0xF0, 42)]

    def test_order_preserved(self):
        frame = roundtrip(SettingsFrame(settings=[(5, 1), (3, 2), (4, 3)]))
        assert [i for i, _ in frame.settings] == [5, 3, 4]


class TestPushPromise:
    def test_roundtrip(self):
        frame = roundtrip(
            PushPromiseFrame(
                stream_id=1,
                flags=FrameFlag.END_HEADERS,
                promised_stream_id=2,
                header_block=b"\x82\x84",
            )
        )
        assert frame.promised_stream_id == 2
        assert frame.header_block == b"\x82\x84"

    def test_padded(self):
        frame = roundtrip(
            PushPromiseFrame(
                stream_id=1, promised_stream_id=4, header_block=b"x", pad_length=3
            )
        )
        assert frame.header_block == b"x"

    def test_too_short_rejected(self):
        header = (
            (2).to_bytes(3, "big")
            + bytes([int(FrameType.PUSH_PROMISE), 0])
            + (1).to_bytes(4, "big")
            + b"\x00\x00"
        )
        with pytest.raises(FrameSizeError):
            parse_frames(header)


class TestPing:
    def test_roundtrip(self):
        frame = roundtrip(PingFrame(payload=b"12345678"))
        assert frame.payload == b"12345678"
        assert not frame.is_ack

    def test_ack(self):
        frame = roundtrip(PingFrame(flags=FrameFlag.ACK, payload=b"abcdefgh"))
        assert frame.is_ack

    def test_wrong_length_payload_rejected_on_serialize(self):
        with pytest.raises(FrameSizeError):
            serialize_frame(PingFrame(payload=b"short"))

    def test_wrong_length_rejected_on_parse(self):
        header = (
            (7).to_bytes(3, "big")
            + bytes([int(FrameType.PING), 0])
            + (0).to_bytes(4, "big")
            + b"\x00" * 7
        )
        with pytest.raises(FrameSizeError):
            parse_frames(header)


class TestGoAway:
    def test_roundtrip(self):
        frame = roundtrip(
            GoAwayFrame(last_stream_id=7, error_code=2, debug_data=b"because")
        )
        assert frame.last_stream_id == 7
        assert frame.error_code == 2
        assert frame.debug_data == b"because"

    def test_empty_debug_data(self):
        frame = roundtrip(GoAwayFrame(last_stream_id=0, error_code=0))
        assert frame.debug_data == b""

    def test_too_short_rejected(self):
        header = (
            (7).to_bytes(3, "big")
            + bytes([int(FrameType.GOAWAY), 0])
            + (0).to_bytes(4, "big")
            + b"\x00" * 7
        )
        with pytest.raises(FrameSizeError):
            parse_frames(header)


class TestWindowUpdate:
    def test_roundtrip(self):
        frame = roundtrip(WindowUpdateFrame(stream_id=5, window_increment=1000))
        assert frame.window_increment == 1000

    def test_zero_increment_representable(self):
        # The §III-B3 probe sends this on purpose.
        frame = roundtrip(WindowUpdateFrame(stream_id=5, window_increment=0))
        assert frame.window_increment == 0

    def test_max_increment(self):
        frame = roundtrip(WindowUpdateFrame(stream_id=0, window_increment=2**31 - 1))
        assert frame.window_increment == 2**31 - 1

    def test_wrong_length_rejected(self):
        header = (
            (3).to_bytes(3, "big")
            + bytes([int(FrameType.WINDOW_UPDATE), 0])
            + (0).to_bytes(4, "big")
            + b"\x00" * 3
        )
        with pytest.raises(FrameSizeError):
            parse_frames(header)


class TestContinuationAndUnknown:
    def test_continuation_roundtrip(self):
        frame = roundtrip(
            ContinuationFrame(stream_id=1, flags=FrameFlag.END_HEADERS, header_block=b"hb")
        )
        assert frame.header_block == b"hb"

    def test_unknown_type_surfaces(self):
        header = (
            (3).to_bytes(3, "big")
            + bytes([0xEE, 0x05])
            + (9).to_bytes(4, "big")
            + b"xyz"
        )
        frames, rest = parse_frames(header)
        assert rest == b""
        assert isinstance(frames[0], UnknownFrame)
        assert frames[0].type_code == 0xEE
        assert frames[0].payload == b"xyz"

    def test_unknown_frame_reserializes(self):
        frame = UnknownFrame(stream_id=9, type_code=0xEE, payload=b"xyz")
        frames, _ = parse_frames(serialize_frame(frame))
        assert frames[0].payload == b"xyz"


class TestStreamParsing:
    def test_multiple_frames_in_one_buffer(self):
        wire = serialize_frame(PingFrame()) + serialize_frame(
            DataFrame(stream_id=1, data=b"d")
        )
        frames, rest = parse_frames(wire)
        assert [type(f) for f in frames] == [PingFrame, DataFrame]
        assert rest == b""

    def test_partial_frame_left_in_remainder(self):
        wire = serialize_frame(DataFrame(stream_id=1, data=b"hello"))
        frames, rest = parse_frames(wire[:-2])
        assert frames == []
        assert rest == wire[:-2]

    def test_incremental_feeding(self):
        wire = serialize_frame(DataFrame(stream_id=1, data=b"hello world"))
        frames, rest = parse_frames(wire[:4])
        assert not frames
        frames, rest = parse_frames(rest + wire[4:])
        assert len(frames) == 1
        assert frames[0].data == b"hello world"

    def test_max_frame_size_enforced(self):
        wire = serialize_frame(DataFrame(stream_id=1, data=b"x" * 100))
        with pytest.raises(FrameSizeError):
            parse_frames_view(memoryview(wire), 50)

    def test_oversized_serialize_rejected(self):
        with pytest.raises(FrameSizeError):
            serialize_frame(DataFrame(stream_id=1, data=b"x" * 2**24))


_any_frame = st.one_of(
    st.builds(
        DataFrame,
        stream_id=st.integers(1, 2**31 - 1),
        data=st.binary(max_size=64),
        pad_length=st.one_of(st.none(), st.integers(0, 255)),
    ),
    st.builds(
        HeadersFrame,
        stream_id=st.integers(1, 2**31 - 1),
        header_block=st.binary(max_size=64),
        priority=st.one_of(
            st.none(),
            st.builds(
                PriorityData,
                depends_on=st.integers(0, 2**31 - 1),
                weight=st.integers(1, 256),
                exclusive=st.booleans(),
            ),
        ),
    ),
    st.builds(
        SettingsFrame,
        settings=st.lists(
            st.tuples(st.integers(0, 0xFFFF), st.integers(0, 2**32 - 1)), max_size=8
        ),
    ),
    st.builds(
        WindowUpdateFrame,
        stream_id=st.integers(0, 2**31 - 1),
        window_increment=st.integers(0, 2**31 - 1),
    ),
    st.builds(
        GoAwayFrame,
        last_stream_id=st.integers(0, 2**31 - 1),
        error_code=st.integers(0, 13),
        debug_data=st.binary(max_size=32),
    ),
    st.builds(RstStreamFrame, stream_id=st.integers(1, 2**31 - 1), error_code=st.integers(0, 13)),
    st.builds(PingFrame, payload=st.binary(min_size=8, max_size=8)),
)


class TestPropertyRoundTrip:
    @given(_any_frame)
    def test_parse_serialize_identity(self, frame):
        frames, rest = parse_frames(serialize_frame(frame))
        assert rest == b""
        assert frames[0] == frame

    @given(st.lists(_any_frame, max_size=6))
    def test_concatenated_frames_parse_in_order(self, frame_list):
        wire = b"".join(serialize_frame(f) for f in frame_list)
        frames, rest = parse_frames(wire)
        assert rest == b""
        assert frames == frame_list

    @given(_any_frame, st.integers(0, 30))
    def test_split_point_invariance(self, frame, cut):
        wire = serialize_frame(frame)
        cut = min(cut, len(wire))
        first, rest = parse_frames(wire[:cut])
        second, leftover = parse_frames(rest + wire[cut:])
        assert leftover == b""
        assert (first + second) == [frame]


class TestFlagMasks:
    """``has_flag`` / ``is_ack`` mask plain ints (ISSUE 16); the answers
    are those of ``IntFlag.__and__``, for enum and plain-``int`` flags."""

    FLAGS = (
        FrameFlag.END_STREAM,
        FrameFlag.ACK,
        FrameFlag.END_HEADERS,
        FrameFlag.PADDED,
        FrameFlag.PRIORITY,
        FrameFlag.NONE,
        FrameFlag.END_STREAM | FrameFlag.END_HEADERS,
    )

    @pytest.mark.parametrize("as_enum", [True, False])
    def test_has_flag_over_all_256_octets(self, as_enum):
        for bits in range(256):
            frame = ContinuationFrame(
                stream_id=1, flags=FrameFlag(bits) if as_enum else bits
            )
            for flag in self.FLAGS:
                assert frame.has_flag(flag) is bool(FrameFlag(bits) & flag), (bits, flag)
                assert frame.has_flag(int(flag)) is bool(bits & int(flag))

    @pytest.mark.parametrize("frame_cls", [SettingsFrame, PingFrame])
    def test_is_ack_over_all_256_octets(self, frame_cls):
        for bits in range(256):
            for flags in (FrameFlag(bits), bits):
                assert frame_cls(flags=flags).is_ack is bool(bits & 0x1)

    def test_every_frame_class_carries_its_type(self):
        # frame_type is a dataclass default now, not a __post_init__ store.
        for frame_cls, frame_type in (
            (DataFrame, FrameType.DATA),
            (HeadersFrame, FrameType.HEADERS),
            (PriorityFrame, FrameType.PRIORITY),
            (RstStreamFrame, FrameType.RST_STREAM),
            (SettingsFrame, FrameType.SETTINGS),
            (PushPromiseFrame, FrameType.PUSH_PROMISE),
            (PingFrame, FrameType.PING),
            (GoAwayFrame, FrameType.GOAWAY),
            (WindowUpdateFrame, FrameType.WINDOW_UPDATE),
            (ContinuationFrame, FrameType.CONTINUATION),
        ):
            assert frame_cls().frame_type is frame_type
            assert frame_cls(stream_id=3, flags=FrameFlag.NONE).frame_type is frame_type
        assert UnknownFrame().frame_type is None
