"""HPACK static and dynamic tables (RFC 7541 §2.3, §4, Appendix A)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.h2.hpack.static_table import (
    STATIC_FIELD_INDEX,
    STATIC_NAME_INDEX,
    STATIC_TABLE,
    STATIC_TABLE_LENGTH,
)
from repro.h2.hpack.table import ENTRY_OVERHEAD, DynamicTable, HeaderField
from tests.support.readers import table_find


class TestStaticTable:
    def test_has_61_entries(self):
        assert STATIC_TABLE_LENGTH == 61

    @pytest.mark.parametrize(
        "index,name,value",
        [
            (1, b":authority", b""),
            (2, b":method", b"GET"),
            (3, b":method", b"POST"),
            (4, b":path", b"/"),
            (7, b":scheme", b"https"),
            (8, b":status", b"200"),
            (14, b":status", b"500"),
            (16, b"accept-encoding", b"gzip, deflate"),
            (32, b"cookie", b""),
            (54, b"server", b""),
            (61, b"www-authenticate", b""),
        ],
    )
    def test_known_entries(self, index, name, value):
        assert STATIC_TABLE[index - 1] == HeaderField(name, value)

    def test_name_index_points_to_first_occurrence(self):
        assert STATIC_NAME_INDEX[b":method"] == 2
        assert STATIC_NAME_INDEX[b":status"] == 8

    def test_field_index_exact_match(self):
        assert STATIC_FIELD_INDEX[(b":method", b"POST")] == 3

    def test_all_names_lowercase(self):
        for field in STATIC_TABLE:
            assert field.name == field.name.lower()


class TestHeaderFieldSize:
    def test_size_is_name_value_plus_32(self):
        field = HeaderField(b"abc", b"defg")
        assert field.size == 3 + 4 + ENTRY_OVERHEAD

    def test_rfc_example_custom_key(self):
        # RFC 7541 C.3.1 inserts custom-key: custom-header at size 55.
        assert HeaderField(b"custom-key", b"custom-header").size == 55


class TestDynamicTable:
    def test_starts_empty(self):
        table = DynamicTable(4096)
        assert len(table) == 0
        assert table.size == 0

    def test_add_and_get_most_recent_first(self):
        table = DynamicTable(4096)
        table.add(HeaderField(b"a", b"1"))
        table.add(HeaderField(b"b", b"2"))
        assert table.get(0) == HeaderField(b"b", b"2")
        assert table.get(1) == HeaderField(b"a", b"1")

    def test_size_accumulates(self):
        table = DynamicTable(4096)
        f1, f2 = HeaderField(b"a", b"1"), HeaderField(b"bb", b"22")
        table.add(f1)
        table.add(f2)
        assert table.size == f1.size + f2.size

    def test_eviction_is_fifo(self):
        field = HeaderField(b"aaaa", b"bbbb")  # size 40
        table = DynamicTable(field.size * 2)
        table.add(HeaderField(b"old1", b"xxxx"))
        table.add(HeaderField(b"old2", b"yyyy"))
        table.add(HeaderField(b"new1", b"zzzz"))
        names = [f.name for f in table]
        assert names == [b"new1", b"old2"]

    def test_oversized_entry_empties_table(self):
        table = DynamicTable(50)
        table.add(HeaderField(b"a", b"1"))
        table.add(HeaderField(b"x" * 100, b"y" * 100))
        assert len(table) == 0
        assert table.size == 0

    def test_resize_shrink_evicts(self):
        table = DynamicTable(4096)
        for i in range(10):
            table.add(HeaderField(b"name%d" % i, b"value"))
        table.resize(100)
        assert table.size <= 100
        assert table.max_size == 100

    def test_resize_to_zero_empties(self):
        table = DynamicTable(4096)
        table.add(HeaderField(b"a", b"1"))
        table.resize(0)
        assert len(table) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DynamicTable(-1)
        with pytest.raises(ValueError):
            DynamicTable(10).resize(-5)

    def test_find_full_and_name_match(self):
        table = DynamicTable(4096)
        table.add(HeaderField(b"x-a", b"1"))
        table.add(HeaderField(b"x-a", b"2"))
        full, name = table_find(table, b"x-a", b"1")
        assert full == 1  # older entry
        assert name == 0  # most recent name match wins for name-only

    def test_find_absent(self):
        table = DynamicTable(4096)
        assert table_find(table, b"nope", b"") == (None, None)

    @given(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=20), st.binary(max_size=20)),
            max_size=60,
        ),
        st.integers(0, 500),
    )
    def test_size_never_exceeds_max(self, fields, max_size):
        table = DynamicTable(max_size)
        for name, value in fields:
            table.add(HeaderField(name, value))
            assert table.size <= max_size
            assert table.size == sum(f.size for f in table)


class _ScanTable:
    """The linear-scan table the index replaced, as the reference."""

    def __init__(self, max_size):
        self.entries, self.size, self.max_size = [], 0, max_size

    def evict_to_fit(self, incoming):
        while self.entries and self.size + incoming > self.max_size:
            self.size -= self.entries.pop().size

    def add(self, field):
        self.evict_to_fit(field.size)
        if field.size <= self.max_size:
            self.entries.insert(0, field)
            self.size += field.size

    def resize(self, max_size):
        self.max_size = max_size
        self.evict_to_fit(0)

    def find(self, name, value):
        name_match = None
        for i, field in enumerate(self.entries):
            if field.name == name:
                if name_match is None:
                    name_match = i
                if field.value == value:
                    return i, name_match
        return None, name_match


_NAMES = [b"a", b"b", b"cc"]
_VALUES = [b"", b"1", b"22", b"x" * 90]
_table_op = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(_NAMES), st.sampled_from(_VALUES)),
    st.tuples(st.just("resize"), st.sampled_from([0, 40, 70, 110, 200, 4096])),
    st.tuples(st.just("find"), st.sampled_from(_NAMES), st.sampled_from(_VALUES)),
    st.tuples(st.just("get"), st.integers(0, 6)),
)


class TestIndexAgreesWithScan:
    """The dict index answers every question the old linear scan did.

    The small alphabet makes duplicate (name, value) pairs common, an
    ``x * 90`` value makes entries larger than the small sizes, and a
    resize to 0 and back empties the table mid-sequence.  A stale index
    key (eviction without the serial guard) diverges here."""

    @settings(max_examples=300)
    @given(st.integers(0, 300), st.lists(_table_op, max_size=40))
    def test_every_step_matches_the_reference(self, max_size, ops):
        table, reference = DynamicTable(max_size), _ScanTable(max_size)
        for op in ops:
            if op[0] == "add":
                table.add(HeaderField(op[1], op[2]))
                reference.add(HeaderField(op[1], op[2]))
            elif op[0] == "resize":
                table.resize(op[1])
                reference.resize(op[1])
            elif op[0] == "find":
                assert table_find(table, op[1], op[2]) == reference.find(op[1], op[2])
            elif op[1] < len(reference.entries):
                assert table.get(op[1]) == reference.entries[op[1]]
            else:
                with pytest.raises(IndexError):
                    table.get(op[1])
            assert len(table) == len(reference.entries)
            assert table.size == reference.size
            assert list(table) == reference.entries
            for name in _NAMES:
                for value in _VALUES:
                    assert table_find(table, name, value) == reference.find(name, value)
