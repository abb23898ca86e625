"""HPACK dynamic table (RFC 7541 §2.3.2, §4), indexed like nghttp2's.

The dynamic table is a FIFO of header fields addressed — on the wire —
after the static table: index ``STATIC_TABLE_LENGTH + 1`` is the most
recently inserted entry.  Each entry costs ``len(name) + len(value) +
32`` octets against the table's maximum size; insertions evict from the
oldest end until the new entry fits (an entry larger than the whole
table empties it).

Every insertion takes the next *serial*.  Entries are stored as
``(name, value, size)`` tuples, the size computed once, in a dict keyed
by serial, and two more dicts map ``(name, value)`` and ``name`` to the
serial of the newest such entry.  So :meth:`DynamicTable.find`,
:meth:`DynamicTable.get`, insertion and eviction are each a few dict
operations however full the table is: the 0-based index of serial
``s`` is ``newest - s``, and the oldest entry has serial ``newest -
len + 1``.  Eviction deletes an index key only while it still points
at the evicted serial.  The table is FIFO, so a newer duplicate always
outlives an older one, and a key that points elsewhere names a live,
newer entry.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Per-entry overhead charged by RFC 7541 §4.1.
ENTRY_OVERHEAD = 32


@dataclass(frozen=True)
class HeaderField:
    """An immutable (name, value) pair as stored in HPACK tables."""

    name: bytes
    value: bytes

    @property
    def size(self) -> int:
        """The entry's size as defined by RFC 7541 §4.1."""
        return len(self.name) + len(self.value) + ENTRY_OVERHEAD


class DynamicTable:
    """One endpoint's HPACK dynamic table.

    ``max_size`` is the *current* limit (set via dynamic table size
    updates or SETTINGS_HEADER_TABLE_SIZE).  ``_serial`` is the serial
    of the most recently added field.  The codecs in this package read
    ``_entries``, ``_fields``, ``_names`` and ``_serial`` directly on
    their per-field path.
    """

    def __init__(self, max_size: int = 4096):
        if max_size < 0:
            raise ValueError("dynamic table size must be non-negative")
        #: serial -> (name, value, size), oldest first.
        self._entries: dict[int, tuple[bytes, bytes, int]] = {}
        #: (name, value) -> serial of the newest entry with that pair.
        self._fields: dict[tuple[bytes, bytes], int] = {}
        #: name -> serial of the newest entry with that name.
        self._names: dict[bytes, int] = {}
        self._serial = 0
        self._size = 0
        self._max_size = max_size

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        for name, value, _ in reversed(self._entries.values()):
            yield HeaderField(name, value)

    @property
    def size(self) -> int:
        """Current occupancy in RFC-7541 octets."""
        return self._size

    @property
    def max_size(self) -> int:
        return self._max_size

    def resize(self, new_max_size: int) -> None:
        """Change the size limit, evicting entries if it shrank."""
        if new_max_size < 0:
            raise ValueError("dynamic table size must be non-negative")
        self._max_size = new_max_size
        self._evict_to_fit(0)

    def add(self, field: HeaderField) -> None:
        """Insert ``field`` at the front, evicting as needed.

        Per RFC 7541 §4.4, a field larger than the table's maximum size
        simply empties the table and is not inserted.
        """
        self.insert(field.name, field.value, field.size)

    def insert(self, name: bytes, value: bytes, size: int) -> None:
        """:meth:`add` for a field already split into its parts."""
        if self._size + size > self._max_size:
            self._evict_to_fit(size)
            if size > self._max_size:
                return
        serial = self._serial = self._serial + 1
        self._entries[serial] = (name, value, size)
        self._fields[(name, value)] = serial
        self._names[name] = serial
        self._size += size

    def get(self, index: int) -> HeaderField:
        """Fetch by 0-based dynamic index (0 == most recent)."""
        if not 0 <= index < len(self._entries):
            raise IndexError(f"dynamic table index {index} out of range")
        name, value, _ = self._entries[self._serial - index]
        return HeaderField(name, value)

    def _evict_to_fit(self, incoming: int) -> None:
        entries = self._entries
        fields = self._fields
        names = self._names
        while entries and self._size + incoming > self._max_size:
            serial = self._serial - len(entries) + 1
            name, value, size = entries.pop(serial)
            self._size -= size
            if fields[(name, value)] == serial:
                del fields[(name, value)]
            if names[name] == serial:
                del names[name]
