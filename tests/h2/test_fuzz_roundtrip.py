"""Seeded fuzz round-trips for the frame codec and HPACK.

Two properties, each checked over ~2k seeded-random inputs:

* **Losslessness** — for every random-but-valid frame and header block,
  encode → decode → encode reproduces the exact wire bytes.  The codec
  is the substrate every probe's observations rest on; a lossy corner
  would silently corrupt measurements instead of failing loudly.
* **Total decoding** — malformed inputs (truncations, garbage,
  overflows, bad indices) must be rejected with the protocol's own
  error type (:class:`HpackDecodingError` / :class:`FrameSizeError`),
  never an ``IndexError``/``MemoryError``-style crash.

Everything derives from fixed seeds: failures reproduce exactly.
"""

import random

import pytest

from repro.h2.constants import MAX_STREAM_ID, FrameFlag
from repro.h2.errors import FrameSizeError, HpackDecodingError, ProtocolError
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
from repro.h2.hpack.decoder import Decoder
from repro.h2.hpack.encoder import Encoder, IndexingPolicy
from repro.h2.hpack.integer import decode_integer, encode_integer
from tests.support.readers import normalize_headers

FRAME_SEED = 0x48545450  # "HTTP"
HPACK_SEED = 0x68325363  # "h2Sc"
N_FRAMES = 1200
N_HEADER_BLOCKS = 800


# -- random frame generation -------------------------------------------------


def random_priority(rng):
    return PriorityData(
        depends_on=rng.randrange(0, MAX_STREAM_ID + 1),
        weight=rng.randrange(1, 257),
        exclusive=rng.random() < 0.5,
    )


def random_frame(rng):
    stream_id = rng.randrange(0, MAX_STREAM_ID + 1)
    kind = rng.randrange(11)
    if kind == 0:
        return DataFrame(
            stream_id=stream_id,
            flags=rng.choice([FrameFlag.NONE, FrameFlag.END_STREAM]),
            data=rng.randbytes(rng.randrange(0, 120)),
            pad_length=rng.randrange(0, 64) if rng.random() < 0.4 else None,
        )
    if kind == 1:
        return HeadersFrame(
            stream_id=stream_id,
            flags=rng.choice(
                [
                    FrameFlag.NONE,
                    FrameFlag.END_STREAM,
                    FrameFlag.END_HEADERS,
                    FrameFlag.END_STREAM | FrameFlag.END_HEADERS,
                ]
            ),
            header_block=rng.randbytes(rng.randrange(0, 80)),
            priority=random_priority(rng) if rng.random() < 0.4 else None,
            pad_length=rng.randrange(0, 64) if rng.random() < 0.3 else None,
        )
    if kind == 2:
        return PriorityFrame(stream_id=stream_id, priority=random_priority(rng))
    if kind == 3:
        return RstStreamFrame(
            stream_id=stream_id, error_code=rng.randrange(0, 2**32)
        )
    if kind == 4:
        if rng.random() < 0.2:  # ACK frames must be empty
            return SettingsFrame(flags=FrameFlag.ACK)
        return SettingsFrame(
            settings=[
                (rng.randrange(0, 2**16), rng.randrange(0, 2**32))
                for _ in range(rng.randrange(0, 8))
            ]
        )
    if kind == 5:
        return PushPromiseFrame(
            stream_id=stream_id,
            flags=rng.choice([FrameFlag.NONE, FrameFlag.END_HEADERS]),
            promised_stream_id=rng.randrange(0, MAX_STREAM_ID + 1),
            header_block=rng.randbytes(rng.randrange(0, 60)),
            pad_length=rng.randrange(0, 32) if rng.random() < 0.3 else None,
        )
    if kind == 6:
        return PingFrame(
            stream_id=0,
            flags=rng.choice([FrameFlag.NONE, FrameFlag.ACK]),
            payload=rng.randbytes(8),
        )
    if kind == 7:
        return GoAwayFrame(
            last_stream_id=rng.randrange(0, MAX_STREAM_ID + 1),
            error_code=rng.randrange(0, 2**32),
            debug_data=rng.randbytes(rng.randrange(0, 40)),
        )
    if kind == 8:
        return WindowUpdateFrame(
            stream_id=stream_id,
            window_increment=rng.randrange(0, MAX_STREAM_ID + 1),
        )
    if kind == 9:
        return ContinuationFrame(
            stream_id=stream_id,
            flags=rng.choice([FrameFlag.NONE, FrameFlag.END_HEADERS]),
            header_block=rng.randbytes(rng.randrange(0, 80)),
        )
    return UnknownFrame(
        stream_id=stream_id,
        type_code=rng.randrange(0x0A, 0x100),  # outside the defined ten
        payload=rng.randbytes(rng.randrange(0, 60)),
    )


class TestFrameRoundTrip:
    def test_every_random_frame_roundtrips_losslessly(self):
        rng = random.Random(FRAME_SEED)
        for _ in range(N_FRAMES):
            frame = random_frame(rng)
            wire = serialize_frame(frame)
            parsed, remainder = parse_frames(wire)
            assert remainder == b""
            assert len(parsed) == 1
            assert serialize_frame(parsed[0]) == wire

    def test_concatenated_stream_roundtrips(self):
        rng = random.Random(FRAME_SEED + 1)
        frames = [random_frame(rng) for _ in range(300)]
        buffer = b"".join(serialize_frame(frame) for frame in frames)
        parsed, remainder = parse_frames(buffer)
        assert remainder == b""
        assert len(parsed) == len(frames)
        assert b"".join(serialize_frame(frame) for frame in parsed) == buffer

    def test_arbitrary_cuts_leave_clean_remainders(self):
        rng = random.Random(FRAME_SEED + 2)
        frames = [random_frame(rng) for _ in range(40)]
        buffer = b"".join(serialize_frame(frame) for frame in frames)
        for _ in range(200):
            cut = rng.randrange(0, len(buffer) + 1)
            parsed, remainder = parse_frames(buffer[:cut])
            reassembled = b"".join(
                serialize_frame(frame) for frame in parsed
            ) + remainder
            assert reassembled == buffer[:cut]

    def test_max_frame_size_is_enforced(self):
        frame = DataFrame(stream_id=1, data=b"x" * 100)
        wire = serialize_frame(frame)
        with pytest.raises(FrameSizeError):
            parse_frames_view(memoryview(wire), 99)

    def test_weight_out_of_range_refused_at_serialize(self):
        with pytest.raises(ProtocolError):
            PriorityData(weight=0).serialize()
        with pytest.raises(ProtocolError):
            PriorityData(weight=257).serialize()


# -- random header-block generation ------------------------------------------

_NAME_POOL = [
    ":status", "content-type", "content-length", "server", "set-cookie",
    "cache-control", "X-Request-Id", "x-frame-options", "ETag", "via",
    "accept-ranges", "date", "link", "x-powered-by", "vary",
]


def random_headers(rng):
    headers = []
    for _ in range(rng.randrange(1, 10)):
        if rng.random() < 0.7:
            name = rng.choice(_NAME_POOL)
        else:
            name = "x-" + "".join(
                rng.choice("abcdefghijklmnop") for _ in range(rng.randrange(1, 12))
            )
        value = bytes(rng.randrange(0x20, 0x7F) for _ in range(rng.randrange(0, 24)))
        headers.append((name, value))
    return headers


class TestHpackRoundTrip:
    def test_shared_dynamic_state_sequences_roundtrip(self):
        """~800 blocks through paired encoder/decoder contexts whose
        dynamic tables evolve together, across all indexing policies."""
        rng = random.Random(HPACK_SEED)
        policies = list(IndexingPolicy)
        blocks_done = 0
        while blocks_done < N_HEADER_BLOCKS:
            encoder = Encoder(
                use_huffman=rng.random() < 0.7,
                default_policy=rng.choice(policies),
            )
            decoder = Decoder()
            for _ in range(100):
                if rng.random() < 0.1:  # exercise size-update emission
                    encoder.header_table_size = rng.choice([0, 512, 2048, 4096])
                headers = random_headers(rng)
                block = encoder.encode(headers)
                assert decoder.decode(block) == normalize_headers(headers)
                blocks_done += 1

    def test_fresh_context_replay_is_byte_identical(self):
        """Encoding is deterministic: replaying the same header
        sequence through a fresh encoder gives the same wire bytes."""
        rng = random.Random(HPACK_SEED + 1)
        sequence = [random_headers(rng) for _ in range(120)]

        def encode_all():
            encoder = Encoder()
            return [encoder.encode(headers) for headers in sequence]

        assert encode_all() == encode_all()


class TestHpackRejection:
    def encoded_corpus(self, seed, count=60):
        rng = random.Random(seed)
        encoder = Encoder()
        return rng, [encoder.encode(random_headers(rng)) for _ in range(count)]

    def test_truncations_raise_only_hpack_errors(self):
        rng, corpus = self.encoded_corpus(HPACK_SEED + 2)
        for block in corpus:
            for _ in range(10):
                cut = rng.randrange(0, len(block))
                try:
                    Decoder().decode(block[:cut])
                except HpackDecodingError:
                    pass  # the contract: reject, don't crash

    def test_random_garbage_raises_only_hpack_errors(self):
        rng = random.Random(HPACK_SEED + 3)
        for _ in range(400):
            blob = rng.randbytes(rng.randrange(1, 64))
            try:
                Decoder().decode(blob)
            except HpackDecodingError:
                pass

    def test_integer_overflow_rejected(self):
        # 0xFF prefix + endless continuations: must hit the 2**62 cap.
        blob = bytes([0xFF]) + b"\xff" * 16
        with pytest.raises(HpackDecodingError, match="overflow"):
            decode_integer(blob, 0, 7)

    def test_index_zero_and_out_of_range_rejected(self):
        with pytest.raises(HpackDecodingError, match="index 0"):
            Decoder().decode(b"\x80")  # indexed field, index 0
        huge = encode_integer(10_000, 7)
        huge[0] |= 0x80
        with pytest.raises(HpackDecodingError, match="beyond"):
            Decoder().decode(bytes(huge))

    def test_oversized_header_list_rejected(self):
        encoder = Encoder()
        block = encoder.encode([("x-large", "v" * 200)])
        with pytest.raises(HpackDecodingError, match="header list exceeds"):
            Decoder(max_header_list_size=64).decode(block)

    def test_table_size_update_above_advertised_rejected(self):
        update = encode_integer(8192, 5)
        update[0] |= 0x20
        with pytest.raises(HpackDecodingError, match="exceeds allowed"):
            Decoder(max_header_table_size=4096).decode(bytes(update))

    def test_table_size_update_after_field_rejected(self):
        encoder = Encoder()
        block = encoder.encode([("x-a", "b")])
        update = encode_integer(0, 5)
        update[0] |= 0x20
        with pytest.raises(HpackDecodingError, match="after header field"):
            Decoder().decode(block + bytes(update))

    def test_truncated_string_rejected(self):
        # Literal, new name, length says 10 octets but only 2 follow.
        blob = b"\x00" + bytes([10]) + b"ab"
        with pytest.raises(HpackDecodingError, match="truncated string"):
            Decoder().decode(blob)
