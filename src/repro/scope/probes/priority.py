"""Priority-mechanism probes: Algorithm 1 and self-dependency (§III-C).

Algorithm 1 infers remotely whether a server honours stream priorities.
Naively sending prioritised requests does not work: response order is
disturbed by flow control and by FCFS request processing.  The paper's
three-step method removes both disturbances:

1. **Prepare the context** — announce a huge
   SETTINGS_INITIAL_WINDOW_SIZE (so no *stream* window ever blocks) and
   deplete the 65,535-octet *connection* window by downloading objects,
   then RST those streams.  The server now cannot send any DATA.
2. **Plant the tree** — send M prioritised requests building Table I's
   dependency tree, then PRIORITY frames that reshape it into the
   §5.3.3 example (D → A → {B, C, F}, C → E) to exercise
   re-prioritisation, exclusive flags included.
3. **Release and observe** — one connection-level WINDOW_UPDATE opens
   the floodgates; the order of DATA frames reveals the scheduler.

No other context shows the scheduler's own order, so Algorithm 1 also
records whether the planted streams' DATA interleaved: Table III's
Request Multiplexing row (§III-A1).  Default 65,535-octet stream windows
would not do: a server that serves one stream at a time still switches
streams whenever a window runs out.

Expected orderings for a priority-respecting server (§V-E1):
D's DATA before everything; A's before everything except D; C's before
E's.  The paper evaluates the rules against first DATA frames, last
DATA frames, and both.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.h2 import events as ev
from repro.h2.constants import MAX_WINDOW_SIZE
from repro.h2.frames import PriorityData
from repro.scope.client import BULK_TIMEOUT, IWS, ScopeClient
from repro.scope.probes.flow_control import (
    SharedConnection,
    await_reaction,
    blocked_stream,
)
from repro.scope.report import LABELS, ErrorReaction, PriorityResult
from repro.scope.session import ProbeSession

#: The initial connection-level window of RFC 7540 §6.9.1.
INITIAL_CONNECTION_WINDOW = 65_535


@dataclass
class _PlantedStream:
    label: str
    stream_id: int
    path: str


def probe_priority(
    session: ProbeSession,
    domain: str,
    test_paths: Sequence[str],
    depletion_paths: Sequence[str],
) -> PriorityResult:
    """Run Algorithm 1 against ``domain``.

    ``test_paths`` supplies ≥ 6 object paths for the labelled streams;
    ``depletion_paths`` supplies objects used to drain the connection
    window in step 1.
    """
    result = PriorityResult()
    if len(test_paths) < len(LABELS):
        raise ValueError(f"need {len(LABELS)} test paths, got {len(test_paths)}")

    # Step 1a: huge stream windows so only the connection window matters.
    client = session.client(
        domain,
        settings={IWS: MAX_WINDOW_SIZE},
        auto_window_update=False,
    )
    try:
        # Step 1b: drain the 65,535-octet connection window.
        if not client.establish_h2() or not _deplete_connection_window(
            client, depletion_paths
        ):
            return result

        # Step 2, in one write: plant Table I's tree with prioritised
        # requests...
        with client.batch():
            planted = _plant_tree(client, test_paths)
            sid = {p.label: p.stream_id for p in planted}

            # ...and reshape it with PRIORITY frames: A becomes the exclusive
            # child of D (the §5.3.3 "moving a dependency" case — D,
            # previously A's child, is first hoisted to A's old parent), then
            # E moves under C.  Final tree: D -> A -> {B, C, F}, C -> E.
            client.send_priority(
                sid["A"], depends_on=sid["D"], weight=16, exclusive=True
            )
            client.send_priority(
                sid["E"], depends_on=sid["C"], weight=16, exclusive=False
            )

        # Give the server a moment to build the tree; record whether it
        # leaks HEADERS while the connection window is still zero.
        client.sleep(1.0)
        planted_ids = set(sid.values())
        result.headers_while_blocked = any(
            te.event.stream_id in planted_ids
            for te in client.events_of(ev.HeadersReceived)
        )

        # Step 3: release the connection window and let everything drain:
        # the wait ends when every planted stream has ended or been reset.
        client.send_window_update(0, MAX_WINDOW_SIZE - INITIAL_CONNECTION_WINDOW)

        def settled() -> bool:
            done = {
                te.event.stream_id
                for kind in (ev.StreamEnded, ev.StreamReset)
                for te in client.events_of(kind)
            }
            return planted_ids <= done

        client.wait_for(settled, timeout=BULK_TIMEOUT)

        # Analyse DATA-frame order.
        id_to_label = {p.stream_id: p.label for p in planted}
        first_order: list[str] = []
        last_seen: dict[str, int] = {}
        pattern: list[int] = []
        for index, te in enumerate(client.events_of(ev.DataReceived)):
            label = id_to_label.get(te.event.stream_id)
            if label is None or not te.event.data:
                continue
            if label not in first_order:
                first_order.append(label)
            last_seen[label] = index
            pattern.append(te.event.stream_id)
        last_order = sorted(last_seen, key=last_seen.get)  # type: ignore[arg-type]

        result.first_frame_order = first_order
        result.last_frame_order = last_order
        result.interleaved = _is_interleaved(pattern)
        return result
    finally:
        client.close()


def _deplete_connection_window(
    client: ScopeClient, depletion_paths: Sequence[str]
) -> bool:
    """§III-C step 1: download until 65,535 octets have been received.

    The callback-driven original computes how many streams it needs; we
    request objects one at a time until the received flow-controlled
    byte count reaches the initial connection window, then RST the
    depletion streams so they cannot interfere.
    """
    received = 0
    depletion_ids: list[int] = []
    for path in depletion_paths:
        stream_id = client.request(path)
        depletion_ids.append(stream_id)

        def consumed() -> int:
            return sum(
                te.event.flow_controlled_length
                for te in client.events_of(ev.DataReceived)
                if te.event.stream_id in depletion_ids
            )

        client.wait_for(
            lambda: consumed() >= INITIAL_CONNECTION_WINDOW
            or _stalled(client, depletion_ids),
            timeout=BULK_TIMEOUT / 4,
        )
        received = consumed()
        if received >= INITIAL_CONNECTION_WINDOW:
            break
    with client.batch():
        for stream_id in depletion_ids:
            client.send_rst_stream(stream_id)
    return received >= INITIAL_CONNECTION_WINDOW


def _stalled(client: ScopeClient, depletion_ids: list[int]) -> bool:
    """All requested depletion streams finished without filling the window."""
    ended = {te.event.stream_id for te in client.events_of(ev.StreamEnded)}
    return set(depletion_ids) <= ended


def _plant_tree(
    client: ScopeClient, test_paths: Sequence[str]
) -> list[_PlantedStream]:
    """Send the six prioritised requests of Table I.

    A depends on the root; B, C, D on A; E on B; F on D (all weight 1,
    none exclusive).  Dependencies reference sibling streams, so ids
    are pre-assigned in label order.
    """
    assert client.conn is not None
    planted: list[_PlantedStream] = []
    ids: dict[str, int] = {}
    dependency = {"A": None, "B": "A", "C": "A", "D": "A", "E": "B", "F": "D"}
    for label, path in zip(LABELS, test_paths):
        parent = dependency[label]
        depends_on = ids[parent] if parent else 0
        stream_id = client.request(
            path,
            priority=PriorityData(depends_on=depends_on, weight=1, exclusive=False),
        )
        ids[label] = stream_id
        planted.append(_PlantedStream(label=label, stream_id=stream_id, path=path))
    return planted


def _is_interleaved(pattern: list[int]) -> bool:
    """True if any two streams' DATA spans overlap in arrival order."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for index, sid in enumerate(pattern):
        first.setdefault(sid, index)
        last[sid] = index
    sids = list(first)
    for i, a in enumerate(sids):
        for b in sids[i + 1 :]:
            if first[a] < last[b] and first[b] < last[a]:
                return True
    return False


def probe_self_dependency(
    session: ProbeSession,
    domain: str,
    path: str,
) -> ErrorReaction | None:
    """§III-C2: PRIORITY frame making a stream for ``path`` depend on
    itself.

    RFC 7540 prescribes a stream error (RST_STREAM); Table III shows
    servers also answer GOAWAY or ignore it.
    """
    with SharedConnection(session, domain) as link:
        turn = blocked_stream(link, path)
        if turn is None:
            return None
        client, since, stream_id = turn
        client.send_priority(stream_id, depends_on=stream_id, weight=16)
        return await_reaction(client, stream_id, since)
