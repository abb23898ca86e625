"""HPACK header-block encoder (RFC 7541 §6).

The encoder supports the three literal representations plus indexed
fields and dynamic-table size updates.  Its *indexing policy* is
configurable because the paper's measurements hinge on exactly this
degree of freedom: Nginx and Tengine do not insert **response** header
fields into the dynamic table (Section V-G), so every response header
block has the same size and their compression ratio ``r`` is ~1, while
GSE/LiteSpeed index aggressively and reach ``r`` < 0.3.

:meth:`Encoder.encode` serializes a block in one loop.  A field that
fully matches the static table or the dynamic table's ``(name, value)``
index is one index octet; a literal takes its name index from
``STATIC_NAME_INDEX`` or the table's name index, and its strings from
:meth:`Encoder._encode_string`.  Two module-wide memos are shared by
every encoder, and so by every thread that drives one: lowercased header
names (:data:`_NAME_CACHE`) and encoded string literals
(:data:`_STRING_CACHE`).  Each maps a key to one answer only, so a race
can cost a recomputation but never a wrong byte, and each is bounded and
cleared when full.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

from repro.h2.errors import HpackEncodingError
from repro.h2.hpack import huffman
from repro.h2.hpack.integer import encode_integer
from repro.h2.hpack.static_table import (
    STATIC_FIELD_INDEX,
    STATIC_NAME_INDEX,
    STATIC_TABLE_LENGTH,
)
from repro.h2.hpack.table import ENTRY_OVERHEAD, DynamicTable

HeaderLike = tuple[bytes | str, bytes | str]

#: Shared cache of encoded string literals keyed by (octets, huffman?).
#: String-literal encoding is stateless, so the cache is safe to share
#: across encoders; it is bounded and simply cleared when full (scan
#: workloads re-encode the same few hundred header strings constantly).
_STRING_CACHE: dict[tuple[bytes, bool], bytes] = {}
_STRING_CACHE_MAX = 4096


class IndexingPolicy(enum.Enum):
    """How literal header fields are represented on the wire."""

    #: Literal with incremental indexing (§6.2.1): grows the dynamic table.
    INDEX = "index"
    #: Literal without indexing (§6.2.2): dynamic table untouched.
    NO_INDEX = "no-index"
    #: Literal never indexed (§6.2.3): also forbids downstream re-indexing.
    NEVER_INDEX = "never-index"


#: Header names that a careful encoder refuses to index (§7.1.3 advice).
SENSITIVE_NAMES = frozenset({b"authorization", b"proxy-authorization", b"set-cookie"})

#: Wire index of the newest dynamic-table entry.
_DYNAMIC_BASE = STATIC_TABLE_LENGTH + 1

#: Shared memo of lowercased header names, keyed by the caller's name
#: object (str or bytes).  Names come from a fixed vocabulary — values
#: such as ``:authority`` and ``:path`` differ per site and are not
#: memoised — and a key maps to one answer only, so the memo is
#: value-pure and safe across threads; it is cleared when full.
_NAME_CACHE: dict[bytes | str, bytes] = {}
_NAME_CACHE_MAX = 512


def _to_bytes(value: bytes | str) -> bytes:
    if isinstance(value, str):
        return value.encode("utf-8")
    return value


class Encoder:
    """One endpoint's HPACK encoding context."""

    def __init__(
        self,
        header_table_size: int = 4096,
        use_huffman: bool = True,
        default_policy: IndexingPolicy = IndexingPolicy.INDEX,
    ):
        self.table = DynamicTable(header_table_size)
        self.use_huffman = use_huffman
        self.default_policy = default_policy
        #: Pending dynamic-table size updates to emit at the start of
        #: the next header block (RFC 7541 §4.2).
        self._pending_size_updates: list[int] = []

    @property
    def header_table_size(self) -> int:
        return self.table.max_size

    @header_table_size.setter
    def header_table_size(self, new_size: int) -> None:
        if new_size != self.table.max_size:
            self.table.resize(new_size)
            self._pending_size_updates.append(new_size)

    def encode(
        self,
        headers: Sequence[HeaderLike],
    ) -> bytes:
        """Serialize ``headers`` into one header block fragment."""
        policy = self.default_policy
        # Literal layout (§6.2): name-index prefix bits and pattern.
        if policy is IndexingPolicy.INDEX:
            policy_bits, policy_pattern = 6, 0x40
        elif policy is IndexingPolicy.NO_INDEX:
            policy_bits, policy_pattern = 4, 0x00
        elif policy is IndexingPolicy.NEVER_INDEX:
            policy_bits, policy_pattern = 4, 0x10
        else:
            raise HpackEncodingError(f"unknown indexing policy {policy!r}")
        out = bytearray()
        for new_size in self._pending_size_updates:
            encoded = encode_integer(new_size, 5)
            encoded[0] |= 0x20
            out += encoded
        self._pending_size_updates.clear()

        table = self.table
        fields = table._fields
        names = table._names
        encode_string = self._encode_string
        for name, value in headers:
            lowered = _NAME_CACHE.get(name)
            if lowered is None:
                lowered = _to_bytes(name).lower()
                if len(_NAME_CACHE) >= _NAME_CACHE_MAX:
                    _NAME_CACHE.clear()
                _NAME_CACHE[name] = lowered
            name = lowered
            if isinstance(value, str):
                value = value.encode()

            # Indexed Header Field (§6.1): a full match is one integer.
            key = (name, value)
            index = STATIC_FIELD_INDEX.get(key)
            if index is None:
                serial = fields.get(key)
                if serial is not None:
                    index = _DYNAMIC_BASE + table._serial - serial
            if index is not None:
                if index < 0x7F:
                    out.append(0x80 | index)
                else:
                    encoded = encode_integer(index, 7)
                    encoded[0] |= 0x80
                    out += encoded
                continue

            # Literal (§6.2), its name indexed if either table has it.
            prefix_bits, pattern = policy_bits, policy_pattern
            if pattern == 0x40 and name in SENSITIVE_NAMES:
                prefix_bits, pattern = 4, 0x10  # never indexed
            index = STATIC_NAME_INDEX.get(name)
            if index is None:
                serial = names.get(name)
                if serial is not None:
                    index = _DYNAMIC_BASE + table._serial - serial
            if index is None:
                out.append(pattern)
                out += encode_string(name)
            elif index < (1 << prefix_bits) - 1:
                out.append(pattern | index)
            else:
                encoded = encode_integer(index, prefix_bits)
                encoded[0] |= pattern
                out += encoded
            out += encode_string(value)
            if pattern == 0x40:
                table.insert(name, value, len(name) + len(value) + ENTRY_OVERHEAD)
        return bytes(out)  # copy ok: the block leaves as immutable bytes

    def _encode_string(self, data: bytes) -> bytes:
        """Encode one string literal (§5.2), Huffman only when it wins.

        A Huffman body is used only when ``encoded_length`` is
        *strictly* smaller than the raw octet count; ties fall back to
        the raw form (same wire size, none of the decode cost).

        String literals are context-free — unlike field encoding they
        don't depend on the dynamic table — so hot strings (header
        names, repeated values like ``text/html``) are cached in a
        module-wide table shared by all encoder instances.
        """
        key = (data, self.use_huffman)
        cached = _STRING_CACHE.get(key)
        if cached is not None:
            return cached
        if self.use_huffman and huffman.encoded_length(data) < len(data):
            encoded = huffman.encode(data)
            header = encode_integer(len(encoded), 7)
            header[0] |= 0x80
            header.extend(encoded)
        else:
            header = encode_integer(len(data), 7)
            header.extend(data)
        result = bytes(header)
        if len(_STRING_CACHE) >= _STRING_CACHE_MAX:
            _STRING_CACHE.clear()
        _STRING_CACHE[key] = result
        return result
