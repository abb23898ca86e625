"""HPACK Huffman string codec (RFC 7541 §5.2, Appendix B) — hot path.

Table-driven implementation, nghttp2-style.  The decoder is a flat
byte-at-a-time DFA: each state is one partial-symbol position in the
canonical code tree, and each state owns a 256-entry transition row
mapping one input octet to ``(next_state, emitted symbols)``.  The rows
are precomputed at import from :data:`HUFFMAN_CODES` by first walking a
4-bit nibble automaton (16 entries per state, cheap to build bit by
bit) and then composing pairs of nibble transitions into the byte rows,
which keeps the one-time build around 50 ms instead of the ~170 ms a
naive per-bit walk of all 65 536 entries costs.

RFC 7541 validity is carried in the tables themselves:

* a transition into the EOS symbol or off the tree maps to a negative
  sentinel state (:data:`_FAIL_EOS` / :data:`_FAIL_INVALID`);
* every state knows its padding bit count and whether its partial path
  is all ones, so the end-of-input padding rules (at most seven bits,
  EOS prefix only) are two list lookups.

The encoder accumulates the whole bit string in a single Python int
behind a sentinel bit (so leading zero bits survive) and materializes
it with one ``int.to_bytes`` — no per-octet flush loop.

libnghttp2 is the reference: ``tests/h2/test_huffman_differential.py``
has its inflater decode every string of a fuzz corpus as this module
does, and checks that its deflater writes :func:`encode`'s bytes
wherever :func:`encoded_length` says Huffman is shorter.
"""

from __future__ import annotations

from repro.h2.errors import HpackDecodingError
from repro.h2.hpack.huffman_table import HUFFMAN_CODES, HUFFMAN_EOS

#: Sentinel "states" for transitions RFC 7541 declares decoding errors.
_FAIL_INVALID = -1
_FAIL_EOS = -2


def _build_dfa() -> tuple[list[int], list[bytes], list[int], list[bool]]:
    """Precompute the byte-at-a-time decoding automaton.

    Returns ``(next_row, emit_row, pad_bits, pad_ones)`` where the
    first two are flat ``state * 256 + octet`` tables and the last two
    are per-state padding metadata (bits since the last whole symbol,
    and whether those bits are all ones).
    """
    # The code tree, as [left, right, symbol, depth, all_ones] lists.
    root = [None, None, None, 0, True]
    for symbol, (code, length) in enumerate(HUFFMAN_CODES):
        node = root
        for shift in range(length - 1, -1, -1):
            bit = (code >> shift) & 1
            nxt = node[bit]
            if nxt is None:
                nxt = [None, None, None, node[3] + 1, node[4] and bit == 1]
                node[bit] = nxt
            node = nxt
        node[2] = symbol

    # Assign dense ids to internal nodes; the root must be state 0 so
    # that "state == 0" means "between symbols" (no pending padding).
    states: list[list] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node[2] is not None:
            continue
        node.append(len(states))
        states.append(node)
        if node[1] is not None:
            stack.append(node[1])
        if node[0] is not None:
            stack.append(node[0])

    # Pass 1: the 4-bit nibble automaton, built by literal bit walking.
    n_states = len(states)
    nibble_next = [0] * (n_states * 16)
    nibble_emit: list[bytes] = [b""] * (n_states * 16)
    for node in states:
        base = node[5] * 16
        for value in range(16):
            cur = node
            emitted = bytearray()
            fail = 0
            for shift in (3, 2, 1, 0):
                nxt = cur[(value >> shift) & 1]
                if nxt is None:
                    fail = _FAIL_INVALID
                    break
                symbol = nxt[2]
                if symbol is None:
                    cur = nxt
                elif symbol == HUFFMAN_EOS:
                    fail = _FAIL_EOS
                    break
                else:
                    emitted.append(symbol)
                    cur = root
            if fail:
                nibble_next[base + value] = fail
            else:
                nibble_next[base + value] = cur[5]
                nibble_emit[base + value] = bytes(emitted)

    # Pass 2: compose high+low nibble transitions into the byte rows.
    # A failure in the high nibble wins over anything in the low nibble,
    # which preserves the reference codec's first-bad-bit semantics.
    byte_next = [0] * (n_states * 256)
    byte_emit: list[bytes] = [b""] * (n_states * 256)
    for state in range(n_states):
        hi_base = state * 16
        out_base = state * 256
        for hi in range(16):
            mid = nibble_next[hi_base + hi]
            if mid < 0:
                for lo in range(16):
                    byte_next[out_base + (hi << 4) + lo] = mid
                continue
            hi_emit = nibble_emit[hi_base + hi]
            lo_base = mid * 16
            for lo in range(16):
                index = out_base + (hi << 4) + lo
                end = nibble_next[lo_base + lo]
                byte_next[index] = end
                if end >= 0:
                    lo_emit = nibble_emit[lo_base + lo]
                    if hi_emit or lo_emit:
                        byte_emit[index] = hi_emit + lo_emit

    pad_bits = [node[3] for node in states]
    pad_ones = [node[4] for node in states]
    return byte_next, byte_emit, pad_bits, pad_ones


_NEXT, _EMIT, _PAD_BITS, _PAD_ONES = _build_dfa()

#: Per-octet code bit lengths as a 256-byte translation table, so
#: :func:`encoded_length` is one C-speed ``bytes.translate`` plus a sum.
_LENGTH_TABLE = bytes(length for _, length in HUFFMAN_CODES[:256])


def encoded_length(data: bytes) -> int:
    """Number of octets ``data`` occupies once Huffman-encoded."""
    return (sum(data.translate(_LENGTH_TABLE)) + 7) // 8


def encode(data: bytes) -> bytes:
    """Huffman-encode ``data``; the result is padded with EOS bits."""
    if not data:
        return b""
    codes = HUFFMAN_CODES
    acc = 1  # sentinel bit: keeps leading zero bits of the first code
    for byte in data:
        code, length = codes[byte]
        acc = (acc << length) | code
    bits = acc.bit_length() - 1
    pad = -bits & 7
    if pad:
        # Pad with the MSBs of EOS, which are all ones.
        acc = (acc << pad) | ((1 << pad) - 1)
        bits += pad
    acc -= 1 << bits  # drop the sentinel
    return acc.to_bytes(bits >> 3, "big")


def decode(data: bytes) -> bytes:
    """Decode a Huffman-encoded string.

    Raises :class:`~repro.h2.errors.HpackDecodingError` on any of the
    conditions RFC 7541 §5.2 declares a decoding error: a decoded EOS
    symbol, padding longer than seven bits, or padding that is not the
    EOS prefix (all ones).
    """
    nxt = _NEXT
    emit = _EMIT
    state = 0
    out = []
    for byte in data:
        index = (state << 8) | byte
        state = nxt[index]
        if state < 0:
            if state == _FAIL_EOS:
                raise HpackDecodingError("EOS symbol decoded in Huffman string")
            raise HpackDecodingError("invalid Huffman code")
        emitted = emit[index]
        if emitted:
            out.append(emitted)
    if state:  # mid-symbol: the leftover bits are padding
        if _PAD_BITS[state] > 7:
            raise HpackDecodingError("Huffman padding longer than 7 bits")
        if not _PAD_ONES[state]:
            raise HpackDecodingError("Huffman padding is not EOS prefix")
    return b"".join(out)
