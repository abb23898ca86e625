"""Reference HPACK Huffman codec (RFC 7541 §5.2, Appendix B).

This is the original per-bit tree-walk implementation, kept verbatim as
the *reference codec* for the table-driven hot-path implementation in
:mod:`repro.h2.hpack.huffman`.  The differential tests
(``tests/h2/test_huffman_differential.py``) run both codecs over the
RFC Appendix C vectors and the fuzz corpus and require byte-identical
outputs and identical error classes — so this module must stay a
faithful, slow, obviously-correct executable specification.  Do not
optimize it.

The encoder packs per-symbol codes most-significant-bit first and pads
the final partial octet with the most-significant bits of the EOS code
(i.e. all ones).  The decoder walks a binary tree built once from the
code table and enforces the two RFC padding rules: padding must be at
most seven bits and must be all ones, and the EOS symbol itself must
never be decoded.
"""

from __future__ import annotations

from repro.h2.errors import HpackDecodingError
from repro.h2.hpack.huffman_table import HUFFMAN_CODES, HUFFMAN_EOS


def encoded_length(data: bytes) -> int:
    """Number of octets ``data`` occupies once Huffman-encoded."""
    bits = sum(HUFFMAN_CODES[b][1] for b in data)
    return (bits + 7) // 8


def encode(data: bytes) -> bytes:
    """Huffman-encode ``data``; the result is padded with EOS bits."""
    acc = 0
    acc_bits = 0
    out = bytearray()
    for byte in data:
        code, length = HUFFMAN_CODES[byte]
        acc = (acc << length) | code
        acc_bits += length
        while acc_bits >= 8:
            acc_bits -= 8
            out.append((acc >> acc_bits) & 0xFF)
    if acc_bits:
        # Pad with the MSBs of EOS, which are all ones.
        pad = 8 - acc_bits
        out.append(((acc << pad) | ((1 << pad) - 1)) & 0xFF)
    return bytes(out)


class _Node:
    """One node of the decoding tree; leaves carry a symbol."""

    __slots__ = ("children", "symbol")

    def __init__(self) -> None:
        self.children: list[_Node | None] = [None, None]
        self.symbol: int | None = None


def _build_tree() -> _Node:
    root = _Node()
    for symbol, (code, length) in enumerate(HUFFMAN_CODES):
        node = root
        for shift in range(length - 1, -1, -1):
            bit = (code >> shift) & 1
            nxt = node.children[bit]
            if nxt is None:
                nxt = _Node()
                node.children[bit] = nxt
            node = nxt
        node.symbol = symbol
    return root


_TREE = _build_tree()


def decode(data: bytes) -> bytes:
    """Decode a Huffman-encoded string.

    Raises :class:`~repro.h2.errors.HpackDecodingError` on any of the
    conditions RFC 7541 §5.2 declares a decoding error: a decoded EOS
    symbol, padding longer than seven bits, or padding that is not the
    EOS prefix (all ones).
    """
    out = bytearray()
    node = _TREE
    padding_bits = 0
    padding_ones = True
    for byte in data:
        for shift in range(7, -1, -1):
            bit = (byte >> shift) & 1
            nxt = node.children[bit]
            if nxt is None:
                raise HpackDecodingError("invalid Huffman code")
            node = nxt
            if node.symbol is not None:
                if node.symbol == HUFFMAN_EOS:
                    raise HpackDecodingError("EOS symbol decoded in Huffman string")
                out.append(node.symbol)
                node = _TREE
                padding_bits = 0
                padding_ones = True
            else:
                padding_bits += 1
                if not bit:
                    padding_ones = False
    if padding_bits > 7:
        raise HpackDecodingError("Huffman padding longer than 7 bits")
    if padding_bits and not padding_ones:
        raise HpackDecodingError("Huffman padding is not EOS prefix")
    return bytes(out)
