"""HPACK encoder/decoder (RFC 7541 §6, Appendix C sequences)."""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.h2.errors import HpackDecodingError
from repro.h2.hpack import decoder as decoder_module
from repro.h2.hpack import encoder as encoder_module
from repro.h2.hpack import huffman
from repro.h2.hpack.decoder import Decoder
from repro.h2.hpack.encoder import Encoder, IndexingPolicy

REQ1 = [
    (b":method", b"GET"),
    (b":scheme", b"http"),
    (b":path", b"/"),
    (b":authority", b"www.example.com"),
]
REQ2 = REQ1 + [(b"cache-control", b"no-cache")]
REQ3 = [
    (b":method", b"GET"),
    (b":scheme", b"https"),
    (b":path", b"/index.html"),
    (b":authority", b"www.example.com"),
    (b"custom-key", b"custom-value"),
]


class TestRfcAppendixC:
    """The three-request sequences of RFC 7541 C.3 (plain) and C.4 (Huffman)."""

    def test_c3_requests_without_huffman(self):
        enc = Encoder(use_huffman=False)
        assert enc.encode(REQ1).hex() == (
            "828684410f7777772e6578616d706c652e636f6d"
        )
        assert enc.encode(REQ2).hex() == "828684be58086e6f2d6361636865"
        assert enc.encode(REQ3).hex() == (
            "828785bf400a637573746f6d2d6b65790c637573746f6d2d76616c7565"
        )

    def test_c4_requests_with_huffman(self):
        enc = Encoder(use_huffman=True)
        assert enc.encode(REQ1).hex() == "828684418cf1e3c2e5f23a6ba0ab90f4ff"
        assert enc.encode(REQ2).hex() == "828684be5886a8eb10649cbf"
        assert enc.encode(REQ3).hex() == (
            "828785bf408825a849e95ba97d7f8925a849e95bb8e8b4bf"
        )

    def test_c3_decoding_sequence(self):
        dec = Decoder()
        assert dec.decode(bytes.fromhex("828684410f7777772e6578616d706c652e636f6d")) == REQ1
        assert dec.decode(bytes.fromhex("828684be58086e6f2d6361636865")) == REQ2
        assert dec.decode(
            bytes.fromhex("828785bf400a637573746f6d2d6b65790c637573746f6d2d76616c7565")
        ) == REQ3

    def test_dynamic_table_state_after_c4(self):
        dec = Decoder()
        dec.decode(bytes.fromhex("828684418cf1e3c2e5f23a6ba0ab90f4ff"))
        assert len(dec.table) == 1
        assert dec.table.get(0).name == b":authority"
        dec.decode(bytes.fromhex("828684be5886a8eb10649cbf"))
        assert len(dec.table) == 2
        assert dec.table.get(0).name == b"cache-control"


class TestEncoderPolicies:
    def test_no_index_policy_leaves_table_empty(self):
        enc = Encoder(default_policy=IndexingPolicy.NO_INDEX)
        enc.encode([(b"x-custom", b"abc"), (b"server", b"nginx")])
        assert len(enc.table) == 0

    def test_no_index_blocks_have_constant_size(self):
        # The Nginx behaviour of §V-G: repeated responses never shrink.
        enc = Encoder(default_policy=IndexingPolicy.NO_INDEX)
        headers = [(b":status", b"200"), (b"server", b"nginx/1.9.15")]
        sizes = [len(enc.encode(headers)) for _ in range(5)]
        assert len(set(sizes)) == 1

    def test_index_policy_shrinks_repeats(self):
        enc = Encoder(default_policy=IndexingPolicy.INDEX)
        headers = [(b":status", b"200"), (b"server", b"h2o/1.6.2"), (b"x-a", b"b" * 30)]
        first = len(enc.encode(headers))
        second = len(enc.encode(headers))
        assert second < first
        # Everything indexed: one octet per field.
        assert second == len(headers)

    def test_sensitive_headers_never_indexed(self):
        enc = Encoder()
        enc.encode([(b"authorization", b"Bearer s3cr3t")])
        assert len(enc.table) == 0

    def test_never_index_representation_prefix(self):
        enc = Encoder(default_policy=IndexingPolicy.NEVER_INDEX)
        block = enc.encode([(b"x-secret", b"v")])
        assert block[0] & 0xF0 == 0x10

    def test_static_full_match_is_single_octet(self):
        enc = Encoder()
        assert enc.encode([(b":method", b"GET")]) == bytes([0x82])

    def test_header_names_are_lowercased(self):
        enc = Encoder()
        dec = Decoder()
        decoded = dec.decode(enc.encode([("X-Custom", "Value")]))
        assert decoded == [(b"x-custom", b"Value")]

    def test_table_size_update_emitted_on_resize(self):
        enc = Encoder()
        enc.header_table_size = 256
        block = enc.encode([(b":method", b"GET")])
        assert block[0] & 0xE0 == 0x20  # size update prefix first
        dec = Decoder()
        assert dec.decode(block) == [(b":method", b"GET")]
        assert dec.table.max_size == 256


class TestDecoderErrors:
    def test_index_zero_rejected(self):
        with pytest.raises(HpackDecodingError):
            Decoder().decode(bytes([0x80]))

    def test_index_beyond_tables_rejected(self):
        with pytest.raises(HpackDecodingError):
            Decoder().decode(bytes([0x80 | 0x7F, 0x20]))  # way past 61

    def test_truncated_string_rejected(self):
        with pytest.raises(HpackDecodingError):
            Decoder().decode(bytes([0x40, 0x05, 0x61, 0x62]))  # len 5, 2 bytes

    def test_missing_value_rejected(self):
        with pytest.raises(HpackDecodingError):
            Decoder().decode(bytes([0x40, 0x01, 0x61]))  # name only

    def test_size_update_above_settings_limit_rejected(self):
        dec = Decoder(max_header_table_size=4096)
        update = bytes([0x3F, 0xE2, 0x7F])  # 16415 > 4096
        with pytest.raises(HpackDecodingError):
            dec.decode(update)

    def test_size_update_after_field_rejected(self):
        enc = Encoder()
        field = enc.encode([(b":method", b"GET")])
        with pytest.raises(HpackDecodingError):
            Decoder().decode(field + bytes([0x20]))

    def test_header_list_size_limit_enforced(self):
        dec = Decoder(max_header_list_size=40)
        enc = Encoder()
        block = enc.encode([(b"a" * 30, b"b" * 30)])
        with pytest.raises(HpackDecodingError):
            dec.decode(block)

    def test_shrinking_own_limit_shrinks_table(self):
        dec = Decoder()
        enc = Encoder()
        dec.decode(enc.encode([(b"x-large", b"v" * 100)]))
        assert len(dec.table) == 1
        dec.set_max_allowed_table_size(10)
        assert len(dec.table) == 0


_header_name = st.binary(min_size=1, max_size=24).map(lambda b: b.lower())
_header = st.tuples(_header_name, st.binary(max_size=48))


class TestRoundTrip:
    @settings(max_examples=60)
    @given(st.lists(_header, max_size=16), st.booleans())
    def test_roundtrip_single_block(self, headers, use_huffman):
        enc = Encoder(use_huffman=use_huffman)
        dec = Decoder()
        assert dec.decode(enc.encode(headers)) == headers

    @settings(max_examples=30)
    @given(st.lists(st.lists(_header, max_size=8), min_size=1, max_size=6))
    def test_roundtrip_block_sequence_keeps_contexts_in_sync(self, blocks):
        enc = Encoder()
        dec = Decoder()
        for headers in blocks:
            assert dec.decode(enc.encode(headers)) == headers
            assert dec.table.size == enc.table.size

    @settings(max_examples=30)
    @given(st.lists(_header, max_size=10))
    def test_policies_do_not_change_decoded_headers(self, headers):
        for policy in IndexingPolicy:
            enc = Encoder(default_policy=policy)
            dec = Decoder()
            assert dec.decode(enc.encode(headers)) == headers


class TestStringLiteralFallback:
    """`_encode_string` picks Huffman only when strictly smaller (§5.2)."""

    def test_compressible_string_uses_huffman(self):
        # All-lowercase text compresses well below its raw length.
        enc = Encoder(use_huffman=True)
        encoded = enc._encode_string(b"www.example.com")
        assert encoded[0] & 0x80  # H bit set
        assert encoded[0] & 0x7F == huffman.encoded_length(b"www.example.com")

    def test_incompressible_string_falls_back_to_raw(self):
        # \xf8..\xfb need 26-28 bits each: Huffman would inflate, so the
        # literal must go raw even with use_huffman enabled.
        data = b"\xf8\xf9\xfa\xfb"
        assert huffman.encoded_length(data) > len(data)
        enc = Encoder(use_huffman=True)
        encoded = enc._encode_string(data)
        assert not encoded[0] & 0x80
        assert encoded == bytes([len(data)]) + data

    def test_equal_length_tie_falls_back_to_raw(self):
        # Strictly-smaller rule: a tie keeps the raw form (same wire
        # size, cheaper for every decoder downstream).
        data = b"//|//|//"  # '/' is 6 bits, '|' 15 → exactly 8 octets
        assert huffman.encoded_length(data) == len(data)
        enc = Encoder(use_huffman=True)
        encoded = enc._encode_string(data)
        assert not encoded[0] & 0x80
        assert encoded == bytes([len(data)]) + data

    def test_huffman_disabled_is_always_raw(self):
        enc = Encoder(use_huffman=False)
        encoded = enc._encode_string(b"www.example.com")
        assert not encoded[0] & 0x80

    def test_cache_returns_identical_bytes_across_encoders(self):
        from repro.h2.hpack import encoder as encoder_module

        encoder_module._STRING_CACHE.clear()
        first = Encoder(use_huffman=True)._encode_string(b"text/html")
        assert (b"text/html", True) in encoder_module._STRING_CACHE
        second = Encoder(use_huffman=True)._encode_string(b"text/html")
        assert first == second
        # Huffman on/off are distinct cache entries.
        raw = Encoder(use_huffman=False)._encode_string(b"text/html")
        assert raw != first

    def test_cache_clears_when_full(self):
        from repro.h2.hpack import encoder as encoder_module

        encoder_module._STRING_CACHE.clear()
        enc = Encoder(use_huffman=False)
        for i in range(encoder_module._STRING_CACHE_MAX + 10):
            enc._encode_string(b"x-%d" % i)
        assert len(encoder_module._STRING_CACHE) <= encoder_module._STRING_CACHE_MAX


class TestDecoderErrorMessages:
    """Every malformed shape raises the same class and message it always
    has: the one-pass loop changed how a block is walked, not what a
    broken block is called."""

    @pytest.mark.parametrize(
        "block,message",
        [
            (bytes([0x80]), "index 0 is not a valid header field index"),
            (bytes([0xFF, 0x20]), "index 159 beyond dynamic table"),
            (bytes([0x7F, 0x01, 0x01, 0x61]), "index 64 beyond dynamic table"),
            (bytes([0x0F, 0x30, 0x01, 0x61]), "index 63 beyond dynamic table"),
            (bytes([0xFF, 0x80]), "truncated integer: missing continuation"),
            (bytes([0x00, 0x7F]), "truncated integer: missing continuation"),
            (bytes([0x40]), "truncated string: missing length"),
            (bytes([0x40, 0x01, 0x61]), "truncated string: missing length"),
            (
                bytes([0x40, 0x05, 0x61, 0x62]),
                "truncated string: body shorter than length",
            ),
            (bytes([0x82, 0x20]), "dynamic table size update after header field"),
            (
                bytes([0x3F, 0xE2, 0x7F]),
                "table size update 16385 exceeds allowed 4096",
            ),
            (
                bytes([0x00, 0x01, 0x61, 0x84, 0xFF, 0xFF, 0xFF, 0xFF]),
                "EOS symbol decoded in Huffman string",
            ),
            (
                bytes([0x00, 0x01, 0x61, 0x81, 0x18]),
                "Huffman padding is not EOS prefix",
            ),
            (
                bytes([0x00, 0x01, 0x61, 0x82, 0x1F, 0xFF]),
                "Huffman padding longer than 7 bits",
            ),
        ],
        ids=[
            "index-zero",
            "multi-octet-index-past-table",
            "literal-name-index-past-table-6bit",
            "literal-name-index-past-table-4bit",
            "truncated-index-continuation",
            "truncated-length-continuation",
            "truncated-name-length",
            "truncated-value-length",
            "truncated-string-body",
            "size-update-after-field",
            "size-update-above-allowed",
            "huffman-eos",
            "huffman-zero-padding",
            "huffman-long-padding",
        ],
    )
    def test_class_and_message(self, block, message):
        with pytest.raises(HpackDecodingError) as caught:
            Decoder().decode(block)
        assert type(caught.value) is HpackDecodingError
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "encoded", [b"\xff\xff\xff\xff", b"\x18", b"\x1f\xff"]
    )
    def test_failed_huffman_string_is_never_memoised(self, encoded):
        block = bytes([0x00, 0x01, 0x61, 0x80 | len(encoded)]) + encoded
        for _ in range(2):
            with pytest.raises(HpackDecodingError):
                Decoder().decode(block)
            assert encoded not in decoder_module._HUFFMAN_CACHE

    def test_list_size_limit_is_inclusive(self):
        def block(value_length):
            return (
                bytes([0x00, 30]) + b"a" * 30 + bytes([value_length])
                + b"b" * value_length
            )

        # 30 + 30 + 32 = 92 octets: at the limit passes, one more fails.
        decoded = Decoder(max_header_list_size=92).decode(block(30))
        assert decoded == [(b"a" * 30, b"b" * 30)]
        with pytest.raises(HpackDecodingError) as caught:
            Decoder(max_header_list_size=92).decode(block(31))
        assert str(caught.value) == "header list exceeds limit of 92"


def _on_six_threads(work, per_thread):
    """Run ``work(slot, i)`` for ``i < per_thread`` on six real threads
    released together, switching every microsecond; return each
    thread's list of answers."""
    results = [None] * 6
    barrier = threading.Barrier(len(results))

    def run(slot):
        barrier.wait()
        results[slot] = [work(slot, i) for i in range(per_thread)]

    threads = [
        threading.Thread(target=run, args=(slot,)) for slot in range(len(results))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "hammer thread hung"
    assert all(got is not None for got in results), "hammer thread died"
    return results


@pytest.fixture
def empty_memos():
    """Start from empty module-wide memos and put them back afterwards."""
    memos = [
        encoder_module._STRING_CACHE,
        encoder_module._NAME_CACHE,
        decoder_module._HUFFMAN_CACHE,
    ]
    saved = [dict(memo) for memo in memos]
    for memo in memos:
        memo.clear()
    yield memos
    for memo, contents in zip(memos, saved):
        memo.clear()
        memo.update(contents)


class TestSharedMemos:
    """Every encoder and decoder shares the module-wide memos, and live
    sessions and the loopback bridge drive them from several threads."""

    def test_encoder_string_cache_is_value_pure_under_threads(self, empty_memos):
        """Hammer each memo from six real threads across its eviction
        boundary, interleaving shared hot keys with per-thread cold
        ones: every answer must equal a fresh single-threaded one (a
        value-pure memo lets a race waste work, never corrupt output)."""

        def string(slot, i):
            data = b"text/html" if i % 7 == 0 else b"s%d-%d" % (slot, i)
            return data, Encoder()._encode_string(data)

        def name(slot, i):
            field = ("Content-Type" if i % 7 == 0 else "X-S%d-%d" % (slot, i), "v")
            return field, Encoder(default_policy=IndexingPolicy.NO_INDEX).encode(
                [field]
            )

        blocks = {}
        for slot in range(6):
            for i in range(decoder_module._HUFFMAN_CACHE_MAX // 2):
                value = b"text/html" if i % 7 == 0 else b"s%d-%d-value" % (slot, i)
                blocks[value] = Encoder(default_policy=IndexingPolicy.NO_INDEX).encode(
                    [(b"x-k", value)]
                )

        # The values go out Huffman-coded, so decoding them uses the memo.
        hot = huffman.encode(b"text/html")
        assert blocks[b"text/html"].endswith(bytes([0x80 | len(hot)]) + hot)

        def huffman_value(slot, i):
            value = b"text/html" if i % 7 == 0 else b"s%d-%d-value" % (slot, i)
            return value, Decoder().decode(blocks[value])

        string_got = _on_six_threads(string, encoder_module._STRING_CACHE_MAX // 2)
        name_got = _on_six_threads(name, encoder_module._NAME_CACHE_MAX // 2)
        huffman_got = _on_six_threads(
            huffman_value, decoder_module._HUFFMAN_CACHE_MAX // 2
        )

        for memo in empty_memos:
            memo.clear()
        for got in string_got:
            for data, encoded in got:
                assert encoded == Encoder()._encode_string(data)
        for got in name_got:
            for field, block in got:
                fresh = Encoder(default_policy=IndexingPolicy.NO_INDEX)
                assert block == fresh.encode([field])
        for got in huffman_got:
            for value, headers in got:
                assert headers == [(b"x-k", value)]
