"""Differential tests: the Huffman and HPACK codecs against libnghttp2.

The paper's H2Scope did its HPACK with nghttp2, so nghttp2 is the
reference here, on every build the host carries
(:func:`~tests.support.nghttp2.libraries`; each test runs once per build
and the module skips when none loads):

* **Huffman decode.**  Each string of the corpus (the RFC 7541
  Appendix C vectors, valid encodings, every truncation, bit flips, raw
  garbage, 0xFF padding tails and all 256 single octets) is wrapped in
  a one-field literal block and inflated by nghttp2.  Both codecs must
  accept or reject alike, and agree on the decoded octets.
* **Huffman encode.**  nghttp2 deflates text and binary values as
  never-indexed literals.  It picks Huffman exactly when
  ``huffman.encoded_length(v) < len(v)``, and then its string is
  ``huffman.encode(v)``.
* **HPACK both ways, under hypothesis.**  Our ``Encoder`` feeds
  nghttp2's inflater and nghttp2's deflater feeds our ``Decoder``, over
  sequences of blocks with table-size changes between them.  After
  every block the header lists and the dynamic table sizes agree.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.h2.errors import HpackDecodingError
from repro.h2.hpack import huffman
from repro.h2.hpack.decoder import Decoder
from repro.h2.hpack.encoder import Encoder, IndexingPolicy
from repro.h2.hpack.integer import decode_integer, encode_integer

from tests.h2.test_huffman import RFC_VECTORS
from tests.support.nghttp2 import Deflater, Inflater, Nghttp2Error, libraries
from tests.support.readers import normalize_headers

pytestmark = pytest.mark.skipif(not libraries(), reason="no libnghttp2 loads")

SEED = 0x48554646  # "HUFF"

#: Every ``(class, message)`` the decode corpus draws from our codec.
#: A new message, or one that stops occurring, shows up here.
DECODE_ERRORS = {
    ("HpackDecodingError", "EOS symbol decoded in Huffman string"),
    ("HpackDecodingError", "Huffman padding longer than 7 bits"),
    ("HpackDecodingError", "Huffman padding is not EOS prefix"),
}


def valid_encodings() -> list[bytes]:
    rng = random.Random(SEED)
    return [huffman.encode(rng.randbytes(rng.randrange(0, 80))) for _ in range(1000)]


def truncations() -> list[bytes]:
    rng = random.Random(SEED + 1)
    out = []
    for _ in range(150):
        wire = huffman.encode(rng.randbytes(rng.randrange(1, 40)))
        out += [wire[:cut] for cut in range(len(wire))]
    return out


def bit_flips() -> list[bytes]:
    rng = random.Random(SEED + 2)
    out = []
    for _ in range(500):
        wire = bytearray(huffman.encode(rng.randbytes(rng.randrange(1, 40))))
        wire[rng.randrange(len(wire))] ^= 1 << rng.randrange(8)
        out.append(bytes(wire))
    return out


def raw_garbage() -> list[bytes]:
    rng = random.Random(SEED + 3)
    return [rng.randbytes(rng.randrange(0, 48)) for _ in range(500)]


def padding_tails() -> list[bytes]:
    """0xFF tails exercise the exact 7-bit padding boundary."""
    return [
        huffman.encode(b"a" * base) + b"\xff" * extra
        for base in range(6)
        for extra in range(5)
    ]


def single_octets() -> list[bytes]:
    return [bytes([value]) for value in range(256)]


def rfc_vectors() -> list[bytes]:
    return [bytes.fromhex(hex_encoded) for _, hex_encoded in RFC_VECTORS]


def literal_block(huffman_string: bytes) -> bytes:
    """One literal-without-indexing field ``x: <huffman_string>``."""
    length = encode_integer(len(huffman_string), 7)
    length[0] |= 0x80
    return b"\x00\x01x" + bytes(length) + huffman_string


def ours(data: bytes):
    try:
        return True, huffman.decode(data)
    except HpackDecodingError:
        return False, None


def theirs(ng, data: bytes):
    try:
        headers = Inflater(ng).inflate(literal_block(data))
    except Nghttp2Error:
        return False, None
    assert len(headers) == 1 and headers[0][0] == b"x"
    return True, headers[0][1]


def assert_decodes_alike(corpus: list[bytes]) -> None:
    """Same acceptance and same octets from both codecs, on every build."""
    for ng in libraries():
        disagreements = [data.hex() for data in corpus if ours(data) != theirs(ng, data)]
        assert disagreements == [], ng


def read_string(block: bytes, offset: int) -> tuple[bool, bytes, int]:
    """One HPACK string literal: (Huffman bit, body, next offset)."""
    is_huffman = bool(block[offset] & 0x80)
    length, offset = decode_integer(block, offset, 7)
    return is_huffman, block[offset : offset + length], offset + length


def nghttp2_string(ng, value: bytes) -> tuple[bool, bytes]:
    """How nghttp2 writes ``value`` as a never-indexed literal's value."""
    block = Deflater(ng).deflate([(b"x-oracle", value)], never_index=True)
    assert block[0] == 0x10  # never indexed, new name (RFC 7541 §6.2.3)
    _, _, offset = read_string(block, 1)
    is_huffman, body, end = read_string(block, offset)
    assert end == len(block)
    return is_huffman, body


class TestAppendixCVectors:
    def test_encode_matches_reference_and_rfc(self):
        """nghttp2 writes the RFC's Huffman string wherever it is shorter
        (``"307"`` ties, so nghttp2 sends it raw)."""
        for ng in libraries():
            for plain, hex_encoded in RFC_VECTORS:
                expected = bytes.fromhex(hex_encoded)
                assert huffman.encode(plain) == expected
                shorter = len(expected) < len(plain)
                written = (True, expected) if shorter else (False, plain)
                assert nghttp2_string(ng, plain) == written, ng

    def test_decode_matches_reference(self):
        for ng in libraries():
            for plain, hex_encoded in RFC_VECTORS:
                wire = bytes.fromhex(hex_encoded)
                assert ours(wire) == theirs(ng, wire) == (True, plain), ng

    def test_encoded_length_matches_reference(self):
        for ng in libraries():
            for plain, hex_encoded in RFC_VECTORS:
                assert huffman.encoded_length(plain) == len(bytes.fromhex(hex_encoded))
                is_huffman, body = nghttp2_string(ng, plain)
                if is_huffman:
                    assert huffman.encoded_length(plain) == len(body), ng
                else:
                    assert huffman.encoded_length(plain) >= len(plain), ng


class TestFuzzCorpus:
    def test_valid_encodings_are_byte_identical(self):
        """nghttp2 picks Huffman for a text or binary value exactly when
        ``encoded_length`` is shorter, and then writes ``encode``'s bytes;
        it decodes our encodings to what we do."""
        rng = random.Random(SEED + 4)
        printable = range(0x20, 0x7F)
        text = [bytes(rng.choices(printable, k=rng.randrange(60))) for _ in range(500)]
        binary = [rng.randbytes(rng.randrange(60)) for _ in range(500)]
        for ng in libraries():
            for value in text + binary:
                is_huffman, body = nghttp2_string(ng, value)
                assert is_huffman == (huffman.encoded_length(value) < len(value)), ng
                assert body == (huffman.encode(value) if is_huffman else value), ng
        assert_decodes_alike(valid_encodings())

    def test_truncations_match_reference_outcomes(self):
        assert_decodes_alike(truncations())

    def test_bit_flips_match_reference_outcomes(self):
        assert_decodes_alike(bit_flips())

    def test_raw_garbage_matches_reference_outcomes(self):
        assert_decodes_alike(raw_garbage())

    def test_all_ones_padding_lengths(self):
        assert_decodes_alike(padding_tails())

    def test_every_single_octet_input(self):
        assert_decodes_alike(single_octets())

    def test_decode_error_messages(self):
        raised = set()
        corpus = rfc_vectors() + valid_encodings() + truncations() + bit_flips()
        for data in corpus + raw_garbage() + padding_tails() + single_octets():
            try:
                huffman.decode(data)
            except HpackDecodingError as exc:
                raised.add((type(exc).__name__, str(exc)))
        assert raised == DECODE_ERRORS


# -- HPACK both ways -----------------------------------------------------------

_NAMES = [
    b":status", b"content-type", b"server", b"set-cookie", b"cache-control",
    b"x-request-id", b"etag", b"authorization", b"date", b"vary",
]
_token = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12)
_names = st.one_of(st.sampled_from(_NAMES), _token.map(str.encode))
_printable = st.characters(min_codepoint=0x20, max_codepoint=0x7E)
_values = st.one_of(st.text(_printable, max_size=40).map(str.encode), st.binary(max_size=40))
#: Blocks of ``(new table size or None, header list, indexing policy)``.
_blocks = st.lists(
    st.tuples(
        st.one_of(st.none(), st.sampled_from([0, 64, 256, 1024, 4096])),
        st.lists(st.tuples(_names, _values), min_size=1, max_size=8),
        st.sampled_from(list(IndexingPolicy)),
    ),
    min_size=1,
    max_size=12,
)


class TestHpackBothWays:
    @settings(max_examples=30, deadline=None)
    @given(blocks=_blocks, use_huffman=st.booleans())
    def test_our_encoder_into_their_inflater(self, blocks, use_huffman):
        """Every policy, never-indexed literals among them, and
        ``header_table_size`` changed between blocks with the inflater's
        SETTINGS_HEADER_TABLE_SIZE set to match."""
        for ng in libraries():
            encoder = Encoder(use_huffman=use_huffman)
            inflater = Inflater(ng)
            for table_size, headers, policy in blocks:
                if table_size is not None:
                    encoder.header_table_size = table_size
                    inflater.change_table_size(table_size)
                encoder.default_policy = policy
                block = encoder.encode(headers)
                assert inflater.inflate(block) == normalize_headers(headers), ng
                assert inflater.dynamic_table_size == encoder.table.size, ng

    @settings(max_examples=30, deadline=None)
    @given(blocks=_blocks)
    def test_their_deflater_into_our_decoder(self, blocks):
        """nghttp2's deflater with its table size changed between blocks,
        so size updates open the next block."""
        for ng in libraries():
            deflater = Deflater(ng)
            decoder = Decoder()
            for table_size, headers, policy in blocks:
                if table_size is not None:
                    deflater.change_table_size(table_size)
                    decoder.set_max_allowed_table_size(table_size)
                never_index = policy is IndexingPolicy.NEVER_INDEX
                block = deflater.deflate(headers, never_index=never_index)
                assert decoder.decode(block) == headers, ng
                assert decoder.table.size == deflater.dynamic_table_size, ng
