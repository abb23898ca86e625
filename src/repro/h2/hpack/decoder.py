"""HPACK header-block decoder (RFC 7541 §3, §6).

:meth:`Decoder.decode` walks a block in one loop.  The common shapes
cost no helper call: a one-octet index (7-, 6- or 4-bit prefix) is read
in place, a static entry comes from a module tuple of ``(name, value,
size)``, and a dynamic one straight from the table's entry dict.  A
multi-octet integer falls back to :func:`decode_integer`, and every
index outside the static table goes through :meth:`Decoder._entry`,
which raises the out-of-range errors.

Huffman string literals are memoised module-wide (:data:`_HUFFMAN_CACHE`),
the mirror of the encoder's ``_STRING_CACHE``: the memo maps encoded
octets to decoded ones, so it is value-pure and safe to share between
threads, and it is bounded and cleared when full.  A string that fails
to decode raises before it is stored.

Decoding errors are always connection-fatal
(:class:`~repro.h2.errors.HpackDecodingError` → COMPRESSION_ERROR)
because a failed decode desynchronizes the two endpoints' dynamic
tables.
"""

from __future__ import annotations

from repro.h2.errors import HpackDecodingError
from repro.h2.hpack import huffman
from repro.h2.hpack.integer import decode_integer
from repro.h2.hpack.static_table import STATIC_TABLE, STATIC_TABLE_LENGTH
from repro.h2.hpack.table import ENTRY_OVERHEAD, DynamicTable

#: The static table as ``(name, value, size)``, the dynamic table's shape.
_STATIC = tuple((field.name, field.value, field.size) for field in STATIC_TABLE)

#: Shared memo of Huffman string literals: encoded octets -> decoded.
_HUFFMAN_CACHE: dict[bytes, bytes] = {}
_HUFFMAN_CACHE_MAX = 512


class Decoder:
    """One endpoint's HPACK decoding context."""

    def __init__(
        self,
        max_header_table_size: int = 4096,
        max_header_list_size: int | None = None,
    ):
        self.table = DynamicTable(max_header_table_size)
        #: The ceiling the *decoder* allows for table-size updates; this
        #: is the value this endpoint advertised in
        #: SETTINGS_HEADER_TABLE_SIZE.
        self.max_allowed_table_size = max_header_table_size
        self.max_header_list_size = max_header_list_size

    def decode(self, data: bytes) -> list[tuple[bytes, bytes]]:
        """Decode one complete header block into (name, value) pairs."""
        headers: list[tuple[bytes, bytes]] = []
        limit = self.max_header_list_size
        list_size = 0
        offset = 0
        end = len(data)
        seen_field = False
        while offset < end:
            octet = data[offset]
            if octet & 0x80:
                # Indexed Header Field (§6.1).
                index = octet & 0x7F
                if index == 0x7F:
                    index, offset = decode_integer(data, offset, 7)
                else:
                    offset += 1
                if 0 < index <= STATIC_TABLE_LENGTH:
                    name, value, size = _STATIC[index - 1]
                else:
                    name, value, size = self._entry(index)
            elif (octet & 0xE0) == 0x20:
                # Dynamic Table Size Update (§6.3).
                if seen_field:
                    raise HpackDecodingError(
                        "dynamic table size update after header field"
                    )
                new_size, offset = decode_integer(data, offset, 5)
                if new_size > self.max_allowed_table_size:
                    raise HpackDecodingError(
                        f"table size update {new_size} exceeds allowed "
                        f"{self.max_allowed_table_size}"
                    )
                self.table.resize(new_size)
                continue
            else:
                # Literals (§6.2): 0x40 with incremental indexing on a
                # 6-bit prefix; 0x10 (never indexed) and 0x00 (without
                # indexing) share the 4-bit layout.
                indexing = octet & 0x40
                mask = 0x3F if indexing else 0x0F
                index = octet & mask
                if index == mask:
                    index, offset = decode_integer(
                        data, offset, 6 if indexing else 4
                    )
                else:
                    offset += 1
                if not index:
                    name, offset = _decode_string(data, offset, end)
                elif index <= STATIC_TABLE_LENGTH:
                    name = _STATIC[index - 1][0]
                else:
                    name = self._entry(index)[0]
                value, offset = _decode_string(data, offset, end)
                size = len(name) + len(value) + ENTRY_OVERHEAD
                if indexing:
                    self.table.insert(name, value, size)
            seen_field = True
            list_size += size
            if limit is not None and list_size > limit:
                raise HpackDecodingError(f"header list exceeds limit of {limit}")
            headers.append((name, value))
        return headers

    def _entry(self, index: int) -> tuple[bytes, bytes, int]:
        """Resolve a wire index outside the static table to ``(name,
        value, size)``; the loop reads static entries itself."""
        if index <= 0:
            raise HpackDecodingError("index 0 is not a valid header field index")
        entries = self.table._entries
        dyn_index = index - STATIC_TABLE_LENGTH - 1
        if dyn_index >= len(entries):
            raise HpackDecodingError(f"index {index} beyond dynamic table")
        return entries[self.table._serial - dyn_index]

    # -- settings hooks ---------------------------------------------------

    def set_max_allowed_table_size(self, size: int) -> None:
        """Apply a new SETTINGS_HEADER_TABLE_SIZE advertised by us.

        Shrinking takes effect immediately (the peer must also emit a
        size update, but we must never exceed our own advertisement).
        """
        self.max_allowed_table_size = size
        if self.table.max_size > size:
            self.table.resize(size)


def _decode_string(data: bytes, offset: int, end: int) -> tuple[bytes, int]:
    """Read one string literal (§5.2) at ``offset`` of a block ``end`` long."""
    if offset >= end:
        raise HpackDecodingError("truncated string: missing length")
    octet = data[offset]
    length = octet & 0x7F
    if length == 0x7F:
        length, offset = decode_integer(data, offset, 7)
    else:
        offset += 1
    stop = offset + length
    if stop > end:
        raise HpackDecodingError("truncated string: body shorter than length")
    raw = data[offset:stop]
    if octet & 0x80:
        decoded = _HUFFMAN_CACHE.get(raw)
        if decoded is None:
            decoded = huffman.decode(raw)
            if len(_HUFFMAN_CACHE) >= _HUFFMAN_CACHE_MAX:
                _HUFFMAN_CACHE.clear()
            _HUFFMAN_CACHE[raw] = decoded
        raw = decoded
    return raw, stop
