"""Readers only tests need.

Each reads, from outside, a fact the program keeps but never asks for:
the program has no user for these, so they live here and not in
``src/`` (``tests/test_program_users.py`` keeps it that way).
"""

from __future__ import annotations

from typing import Iterable

from repro.h2 import events as ev
from repro.h2.connection import H2Connection, Side
from repro.h2.constants import (
    DEFAULT_INITIAL_WINDOW_SIZE,
    FRAME_HEADER_LENGTH,
    MAX_STREAM_ID,
    FrameFlag,
    SettingCode,
)
from repro.h2.errors import FrameSizeError
from repro.h2.hpack.table import DynamicTable
from repro.h2.priority import PriorityTree
from repro.h2.settings import SettingsMap

# -- h2 --------------------------------------------------------------------


def parse_frame_header(data) -> tuple[int, int, FrameFlag, int]:
    """A 9-octet frame header as ``(length, type, flags, stream_id)``."""
    if len(data) < FRAME_HEADER_LENGTH:
        raise FrameSizeError("frame header truncated")
    return (
        int.from_bytes(data[0:3], "big"),
        data[3],
        FrameFlag(data[4]),
        int.from_bytes(data[5:9], "big") & MAX_STREAM_ID,
    )


def normalize_headers(headers: Iterable) -> list[tuple[bytes, bytes]]:
    """str/bytes header pairs as the decoder returns them: byte pairs
    with lower-case names."""

    def to_bytes(value):
        return value.encode("utf-8") if isinstance(value, str) else value

    return [(to_bytes(name).lower(), to_bytes(value)) for name, value in headers]


def table_find(
    table: DynamicTable, name: bytes, value: bytes
) -> tuple[int | None, int | None]:
    """``(full_match, name_match)`` as 0-based dynamic indices (either
    may be ``None``); the most recent match wins."""
    full = table._fields.get((name, value))
    named = table._names.get(name)
    return (
        None if full is None else table._serial - full,
        None if named is None else table._serial - named,
    )


def initial_window_size(settings: SettingsMap) -> int:
    value = settings.get(SettingCode.INITIAL_WINDOW_SIZE)
    return DEFAULT_INITIAL_WINDOW_SIZE if value is None else value


def open_peer_initiated_streams(conn: H2Connection) -> int:
    """How many peer-initiated streams are not closed."""
    peer_parity = 1 if conn.side is Side.SERVER else 0
    return sum(
        1
        for stream in conn.streams.values()
        if stream.stream_id % 2 == peer_parity and not stream.closed
    )


def local_flow_available(conn: H2Connection, stream_id: int) -> int:
    """Octets of DATA ``conn`` may send on ``stream_id`` right now."""
    stream = conn.streams.get(stream_id)
    if stream is None:
        return conn.outbound_window.available
    return min(stream.outbound_window.available, conn.outbound_window.available)


def parent_of(tree: PriorityTree, stream_id: int) -> int:
    node = tree._node(stream_id)
    assert node.parent is not None
    return node.parent.stream_id


def children_of(tree: PriorityTree, stream_id: int) -> list[int]:
    return [child.stream_id for child in tree._node(stream_id).children]


def weight_of(tree: PriorityTree, stream_id: int) -> int:
    return tree._node(stream_id).weight


def ancestors_of(tree: PriorityTree, stream_id: int) -> list[int]:
    """Proper ancestors, nearest first, ending with the root (0)."""
    node = tree._node(stream_id)
    out = []
    while node.parent is not None:
        node = node.parent
        out.append(node.stream_id)
    return out


def unshadowed(tree: PriorityTree, ready: set[int]) -> list[int]:
    """Ready streams whose allocation is positive, sorted by share desc."""
    shares = tree.allocation(ready)
    positive = [(share, -sid) for sid, share in shares.items() if share > 0]
    return [-negsid for _, negsid in sorted(positive, reverse=True)]


# -- net ---------------------------------------------------------------------


def pending_events(sim) -> int:
    """Live (not cancelled) events in a ``Simulation``'s queue: its heap
    entries whose timer was not cancelled (the clock keeps no count)."""
    return sum(1 for _, _, timer in sim._queue if not timer.cancelled)


# -- scope -------------------------------------------------------------------


def data_for(client, stream_id: int) -> bytes:
    """Every DATA octet a ``ScopeClient`` received on ``stream_id``."""
    return b"".join(
        te.event.data
        for te in client.events_of(ev.DataReceived)
        if te.event.stream_id == stream_id
    )


def eta_virtual_seconds(progress) -> float:
    """A ``ScanProgress``'s remaining virtual time, extrapolated from
    the per-site mean."""
    if progress.done <= 0:
        return 0.0
    return progress.virtual_seconds / progress.done * progress.remaining


def timeline_labels(store, campaign: str) -> dict[str | None, int]:
    """Stored timelines per label (``None`` = benign)."""
    rows = store.connection.execute(
        "SELECT label, COUNT(*) FROM traces WHERE campaign = ? "
        "GROUP BY label ORDER BY label",
        (campaign,),
    ).fetchall()
    return {label: count for label, count in rows}


def timelines_of(store, campaign: str, domain: str) -> list:
    """One domain's stored connection timelines (probe traces skipped)."""
    import json

    from repro.scope.trace import decode_timeline

    documents = [
        json.loads(document)
        for (document,) in store.connection.execute(
            "SELECT document FROM traces WHERE campaign = ? AND domain = ? "
            "ORDER BY probe",
            (campaign, domain),
        )
    ]
    return [
        decode_timeline(document)
        for document in documents
        if isinstance(document, dict) and "frames" in document
    ]


def clear_scan_cache() -> None:
    """Empty the experiments' population-scan cache."""
    from repro.experiments import common

    common._SCAN_CACHE.clear()


# -- servers -----------------------------------------------------------------


def open_connections(server) -> int:
    """An ``H2Server``'s connections still holding an endpoint open."""
    return sum(1 for conn in server.connections if not conn.endpoint.closed)


def domains_with(fleet, kind: str) -> list[str]:
    """A ``LoopbackFleet``'s domains planted with fault ``kind``."""
    return [domain for domain in fleet.domains if fleet.faults[domain] == kind]


def healthy_sites(fleet) -> list:
    """The sites of a ``LoopbackFleet`` planted with no fault."""
    from repro.servers.fleet import HEALTHY

    return [site for site in fleet.sites if fleet.faults[site.domain] == HEALTHY]
