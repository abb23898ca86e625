"""Connection endpoint integration (RFC 7540 §3, §5, §6).

Each test wires a client H2Connection to a server H2Connection through
an in-memory pump — no network simulation — and asserts on the events
each side produces.
"""

import pytest

from repro.h2 import events as ev
from repro.h2.connection import ConnectionConfig, H2Connection, Reaction, Side
from repro.h2.constants import ErrorCode, SettingCode
from repro.h2.errors import FlowControlError, ProtocolError
from repro.h2.frames import (
    DataFrame,
    PingFrame,
    PriorityData,
    RstStreamFrame,
    WindowUpdateFrame,
)

from tests.support.frames import FrameTap
from tests.support.readers import (
    local_flow_available,
    open_peer_initiated_streams,
    parent_of,
    weight_of,
)

IWS = int(SettingCode.INITIAL_WINDOW_SIZE)
MCS = int(SettingCode.MAX_CONCURRENT_STREAMS)


def pump(a: H2Connection, b: H2Connection, rounds: int = 12) -> list[ev.Event]:
    """Exchange pending bytes until both sides go quiet."""
    events: list[ev.Event] = []
    for _ in range(rounds):
        moved = False
        data = a.data_to_send()
        if data:
            events.extend(b.receive_bytes(data))
            moved = True
        data = b.data_to_send()
        if data:
            events.extend(a.receive_bytes(data))
            moved = True
        if not moved:
            break
    return events


def pump_one_way(sender: H2Connection, receiver: H2Connection) -> list[ev.Event]:
    """Deliver what ``sender`` has queued; ``receiver``'s answers stay queued."""
    return receiver.receive_bytes(sender.data_to_send())


@pytest.fixture
def pair():
    client = H2Connection(ConnectionConfig(side=Side.CLIENT))
    server = H2Connection(ConnectionConfig(side=Side.SERVER))
    client.initiate()
    server.initiate()
    pump(client, server)
    return client, server


REQUEST = [
    (":method", "GET"),
    (":scheme", "https"),
    (":path", "/"),
    (":authority", "example.com"),
]


class TestHandshake:
    def test_preface_and_settings_exchange(self):
        client = H2Connection(ConnectionConfig(side=Side.CLIENT))
        server = H2Connection(ConnectionConfig(side=Side.SERVER))
        client.initiate()
        server.initiate()
        events = pump(client, server)
        names = [type(e).__name__ for e in events]
        assert "PrefaceReceived" in names
        assert names.count("SettingsReceived") == 2
        assert names.count("SettingsAcked") == 2

    def test_bad_preface_rejected(self):
        server = H2Connection(ConnectionConfig(side=Side.SERVER))
        with pytest.raises(ProtocolError):
            server.receive_bytes(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n" + b"\x00" * 10)

    def test_initial_settings_announced(self):
        client = H2Connection(
            ConnectionConfig(side=Side.CLIENT, initial_settings={MCS: 42})
        )
        server = H2Connection(ConnectionConfig(side=Side.SERVER))
        client.initiate()
        server.initiate()
        pump(client, server)
        assert server.remote_settings.max_concurrent_streams == 42

    def test_client_stream_ids_are_odd(self, pair):
        client, _ = pair
        assert client.next_stream_id() == 1
        assert client.next_stream_id() == 3

    def test_server_stream_ids_are_even(self, pair):
        _, server = pair
        assert server.next_stream_id() == 2


class TestRequestResponse:
    def test_get_roundtrip(self, pair):
        client, server = pair
        sid = client.next_stream_id()
        client.send_headers(sid, REQUEST, end_stream=True)
        events = pump(client, server)
        headers = next(e for e in events if isinstance(e, ev.HeadersReceived))
        assert headers.stream_id == sid
        assert (b":path", b"/") in headers.headers
        assert headers.end_stream

        server.send_headers(sid, [(":status", "200")])
        server.send_data(sid, b"hello", end_stream=True)
        events = pump(client, server)
        data = next(e for e in events if isinstance(e, ev.DataReceived))
        assert data.data == b"hello"
        assert any(isinstance(e, ev.StreamEnded) for e in events)

    def test_trailers_end_a_request_stream_without_a_second_request(self, pair):
        client, server = pair
        sid = client.next_stream_id()
        client.send_headers(sid, REQUEST)
        client.send_headers(sid, [("x-checksum", "abc")], end_stream=True)
        events = pump_one_way(client, server)
        assert [type(e) for e in events] == [ev.HeadersReceived, ev.StreamEnded]
        assert not server.streams[sid].can_receive

    def test_trailers_without_end_stream_reset_the_stream(self, pair):
        client, server = pair
        sid = client.next_stream_id()
        client.send_headers(sid, REQUEST)
        client.send_headers(sid, [("x-checksum", "abc")])
        events = pump_one_way(client, server)
        assert [type(e) for e in events] == [ev.HeadersReceived]
        resets = [e for e in pump(client, server) if isinstance(e, ev.StreamReset)]
        assert [(e.stream_id, e.error_code) for e in resets] == [
            (sid, ErrorCode.PROTOCOL_ERROR)
        ]

    def test_response_stream_accepts_informational_then_final_headers(self, pair):
        client, server = pair
        sid = client.next_stream_id()
        client.send_headers(sid, REQUEST, end_stream=True)
        pump(client, server)
        server.send_headers(sid, [(":status", "100")])
        server.send_headers(sid, [(":status", "200")], end_stream=True)
        events = pump_one_way(server, client)
        statuses = [
            dict(e.headers)[b":status"]
            for e in events
            if isinstance(e, ev.HeadersReceived)
        ]
        assert statuses == [b"100", b"200"]

    def test_large_header_block_fragments_into_continuation(self, pair):
        client, server = pair
        sid = client.next_stream_id()
        big = [(f"x-h{i}", "v" * 500) for i in range(60)]
        tap = FrameTap(client)
        client.send_headers(sid, REQUEST + big, end_stream=True)
        from repro.h2.frames import ContinuationFrame, HeadersFrame

        sent_types = [type(f) for f in tap.sent]
        assert ContinuationFrame in sent_types
        events = pump(client, server)
        headers = next(e for e in events if isinstance(e, ev.HeadersReceived))
        assert (b"x-h59", b"v" * 500) in headers.headers

    def test_interleaved_frame_during_continuation_rejected(self, pair):
        client, server = pair
        # Hand-craft: HEADERS without END_HEADERS, then a PING.
        from repro.h2.frames import HeadersFrame

        block = client.encoder.encode(REQUEST)
        client.send_raw_frame(HeadersFrame(stream_id=1, header_block=block))
        client.send_raw_frame(PingFrame())
        with pytest.raises(ProtocolError):
            server.receive_bytes(client.data_to_send())

    def test_request_body_flow(self, pair):
        client, server = pair
        sid = client.next_stream_id()
        client.send_headers(sid, REQUEST + [("content-length", "4")])
        client.send_data(sid, b"body", end_stream=True)
        events = pump(client, server)
        data = next(e for e in events if isinstance(e, ev.DataReceived))
        assert data.data == b"body"

    def test_encoded_size_reported(self, pair):
        client, server = pair
        sid = client.next_stream_id()
        client.send_headers(sid, REQUEST, end_stream=True)
        events = pump(client, server)
        headers = next(e for e in events if isinstance(e, ev.HeadersReceived))
        assert headers.encoded_size > 0


class TestFlowControlEnforcement:
    def test_send_data_respects_stream_window(self, pair):
        client, server = pair
        sid = client.next_stream_id()
        client.send_headers(sid, REQUEST)
        pump(client, server)
        chunk = b"x" * 16_384
        for _ in range(3):
            client.send_data(sid, chunk)  # 49,152 of the 65,535 window
        with pytest.raises(FlowControlError):
            client.send_data(sid, chunk)  # would cross 65,535

    def test_connection_window_shared_across_streams(self, pair):
        client, server = pair
        pump(client, server)
        sids = [client.next_stream_id() for _ in range(2)]
        for sid in sids:
            client.send_headers(sid, REQUEST)
        chunk = b"x" * 16_384
        for _ in range(3):
            client.send_data(sids[0], chunk)
        # Stream 2's window is fresh, but only ~16k of the shared
        # connection window remains.
        with pytest.raises(FlowControlError):
            client.send_data(sids[1], chunk)

    def test_window_update_replenishes(self, pair):
        client, server = pair
        server_tap = FrameTap(server)
        sid = client.next_stream_id()
        client.send_headers(sid, REQUEST)
        chunk = b"x" * 16_384
        for _ in range(3):
            client.send_data(sid, chunk)
        pump(client, server)
        # auto_window_update returns credit per half window (nghttp2's
        # rule), not per DATA frame: after 49,152 octets the sender may
        # always send at least half a window again, and that took at
        # most one update for the connection and one for the stream.
        assert local_flow_available(client, sid) > 65_535 // 2
        updates = [
            frame
            for frame in server_tap.sent
            if isinstance(frame, WindowUpdateFrame)
        ]
        scopes = [frame.stream_id for frame in updates]
        assert scopes.count(0) <= 1
        assert scopes.count(sid) <= 1
        assert all(frame.window_increment > 0 for frame in updates)

    def test_peer_initial_window_applies_to_new_streams(self):
        client = H2Connection(ConnectionConfig(side=Side.CLIENT))
        server = H2Connection(
            ConnectionConfig(side=Side.SERVER, initial_settings={IWS: 10})
        )
        client.initiate()
        server.initiate()
        pump(client, server)
        sid = client.next_stream_id()
        client.send_headers(sid, REQUEST)
        with pytest.raises(FlowControlError):
            client.send_data(sid, b"x" * 11)

    def test_initial_window_change_adjusts_open_streams(self, pair):
        client, server = pair
        sid = client.next_stream_id()
        client.send_headers(sid, REQUEST, end_stream=True)
        pump(client, server)
        server_stream = server.streams[sid]
        before = server_stream.outbound_window.value
        client.send_settings({IWS: 100_000})
        pump(client, server)
        assert server_stream.outbound_window.value == before + (100_000 - 65_535)

    def test_receiving_overlimit_data_is_flow_control_error(self):
        client = H2Connection(ConnectionConfig(side=Side.CLIENT, strict=False))
        server = H2Connection(
            ConnectionConfig(side=Side.SERVER, auto_window_update=False)
        )
        client.initiate()
        server.initiate()
        pump(client, server)
        sid = client.next_stream_id()
        client.send_headers(sid, REQUEST)
        pump(client, server)
        # Bypass send-side accounting with raw frames, each within
        # MAX_FRAME_SIZE but jointly exceeding the 65,535 window.
        for _ in range(5):
            client.send_raw_frame(DataFrame(stream_id=sid, data=b"x" * 16_000))
        with pytest.raises(FlowControlError):
            server.receive_bytes(client.data_to_send())
        # The server must have initiated teardown (GOAWAY queued).
        assert server.terminated


class TestFramesOnClosedStreams:
    """RFC 7540 §5.1 / §5.4.2: frames in flight when we reset a stream
    are ignored; a stream error costs one stream, not the buffer."""

    def answered_request(self, pair, body=b"y" * 1000):
        """Stream 1 requested; its response is still in the server's
        outbound buffer (in flight) when this returns."""
        client, server = pair
        first = client.next_stream_id()
        client.send_headers(first, REQUEST, end_stream=True)
        pump_one_way(client, server)
        server.send_headers(first, [(":status", "200"), ("x-first", "1")])
        server.send_data(first, body, end_stream=True)
        return first

    def test_late_frames_after_our_reset_do_not_swallow_the_next_stream(self, pair):
        client, server = pair
        first = self.answered_request(pair)
        client.send_rst_stream(first)
        second = client.next_stream_id()
        client.send_headers(second, REQUEST, end_stream=True)
        events = pump_one_way(client, server)
        assert any(isinstance(e, ev.StreamReset) for e in events)
        server.send_headers(second, [(":status", "200"), ("x-first", "1")])

        # Late HEADERS + DATA of the reset stream and the next stream's
        # HEADERS arrive coalesced, as TCP delivers them.
        window_before = client.inbound_window.value
        tap = FrameTap(client)
        events = client.receive_bytes(server.data_to_send())
        assert [type(e) for e in events] == [ev.HeadersReceived]
        assert events[0].stream_id == second
        # The ignored block still went through the HPACK decoder: the
        # second response indexes what the first one inserted.
        assert (b"x-first", b"1") in events[0].headers
        # ... and the ignored DATA still used the connection window.
        assert client.inbound_window.value == window_before - 1000
        assert tap.sent == []  # no error, no answer

    def test_ignored_data_is_credited_to_the_connection_only(self, pair):
        client, server = pair
        first = self.answered_request(pair, body=b"y" * 16_384)
        pump(client, server)
        second = client.next_stream_id()
        client.send_headers(second, REQUEST, end_stream=True)
        pump(client, server)
        server.send_headers(second, [(":status", "200")])
        server.send_data(second, b"z" * 16_384)
        client.send_rst_stream(second)
        tap = FrameTap(client)
        assert client.receive_bytes(server.data_to_send()) == []
        updates = tap.sent
        # Half the connection window is used (one body heard, one
        # ignored); the reset stream itself gets nothing back.
        assert [(f.stream_id, f.window_increment) for f in updates] == [
            (0, 2 * 16_384)
        ]
        assert client.inbound_window.value == 65_535

    def test_stream_error_keeps_earlier_events_and_later_frames(self, pair):
        client, server = pair
        tap = FrameTap(client)
        first = self.answered_request(pair)
        pump(client, server)  # stream 1 ended normally on both sides
        second = client.next_stream_id()
        client.send_headers(second, REQUEST, end_stream=True)
        pump_one_way(client, server)
        server.send_ping(b"before!!")
        server.send_raw_frame(DataFrame(stream_id=first, data=b"late"))
        server.send_headers(second, [(":status", "200")], end_stream=True)
        events = client.receive_bytes(server.data_to_send())
        kinds = [type(e) for e in events]
        assert kinds == [ev.PingReceived, ev.HeadersReceived, ev.StreamEnded]
        resets = [
            f for f in tap.sent if isinstance(f, RstStreamFrame)
        ]
        assert [(f.stream_id, f.error_code) for f in resets] == [
            (first, int(ErrorCode.STREAM_CLOSED))
        ]


class TestWindowUpdateReactions:
    def make_pair(self, **server_cfg):
        client = H2Connection(ConnectionConfig(side=Side.CLIENT, strict=False))
        server = H2Connection(ConnectionConfig(side=Side.SERVER, **server_cfg))
        client.initiate()
        server.initiate()
        pump(client, server)
        sid = client.next_stream_id()
        client.send_headers(sid, REQUEST, end_stream=True)
        pump(client, server)
        return client, server, sid

    def test_zero_increment_default_rst_on_stream(self):
        client, server, sid = self.make_pair()
        client.send_window_update(sid, 0)
        events = pump(client, server)
        zero = next(e for e in events if isinstance(e, ev.ZeroWindowUpdateReceived))
        assert zero.reaction == "rst_stream"
        assert any(
            isinstance(e, ev.StreamReset) and e.stream_id == sid for e in events
        )

    def test_zero_increment_ignore_policy(self):
        client, server, sid = self.make_pair(
            on_zero_window_update_stream=Reaction.IGNORE
        )
        client.send_window_update(sid, 0)
        events = pump(client, server)
        assert not any(isinstance(e, ev.StreamReset) for e in events)
        assert not any(isinstance(e, ev.GoAwayReceived) for e in events)

    def test_zero_increment_connection_goaway_with_debug(self):
        client, server, _ = self.make_pair(
            zero_window_update_debug=b"increment must be nonzero"
        )
        client.send_window_update(0, 0)
        events = pump(client, server)
        goaway = next(e for e in events if isinstance(e, ev.GoAwayReceived))
        assert goaway.debug_data == b"increment must be nonzero"

    def test_overflow_on_stream_rst(self):
        client, server, sid = self.make_pair()
        half = 2**30 + 1
        client.conn_send = client.send_window_update
        client.send_window_update(sid, half)
        client.send_window_update(sid, half)
        events = pump(client, server)
        overflow = [e for e in events if isinstance(e, ev.WindowOverflowDetected)]
        assert overflow and overflow[0].reaction == "rst_stream"

    def test_overflow_on_connection_goaway(self):
        client, server, _ = self.make_pair()
        half = 2**30 + 1
        client.send_window_update(0, half)
        client.send_window_update(0, half)
        events = pump(client, server)
        assert any(isinstance(e, ev.GoAwayReceived) for e in events)

    def test_normal_window_update_emits_event(self):
        client, server, sid = self.make_pair()
        client.send_window_update(0, 1000)
        events = pump(client, server)
        update = next(e for e in events if isinstance(e, ev.WindowUpdateReceived))
        assert update.increment == 1000


class TestPriorityHandling:
    def test_headers_priority_builds_tree(self, pair):
        client, server = pair
        sid = client.next_stream_id()
        client.send_headers(
            sid,
            REQUEST,
            end_stream=True,
            priority=PriorityData(depends_on=0, weight=99),
        )
        pump(client, server)
        assert weight_of(server.priority_tree, sid) == 99

    def test_priority_frame_reprioritizes(self, pair):
        client, server = pair
        a = client.next_stream_id()
        b = client.next_stream_id()
        client.send_headers(a, REQUEST)
        client.send_headers(b, REQUEST)
        client.send_priority(b, depends_on=a, weight=10)
        pump(client, server)
        assert parent_of(server.priority_tree, b) == a

    def test_self_dependency_default_rst(self):
        client = H2Connection(ConnectionConfig(side=Side.CLIENT, strict=False))
        server = H2Connection(ConnectionConfig(side=Side.SERVER))
        client.initiate()
        server.initiate()
        pump(client, server)
        sid = client.next_stream_id()
        client.send_headers(sid, REQUEST)
        client.send_priority(sid, depends_on=sid)
        events = pump(client, server)
        detected = next(e for e in events if isinstance(e, ev.SelfDependencyDetected))
        assert detected.reaction == "rst_stream"

    def test_strict_client_cannot_send_self_dependency(self, pair):
        client, _ = pair
        from repro.h2.priority import SelfDependencyError

        with pytest.raises(SelfDependencyError):
            client.send_priority(5, depends_on=5)


class TestPingGoawayRst:
    def test_ping_auto_ack(self, pair):
        client, server = pair
        client.send_ping(b"abcdefgh")
        events = pump(client, server)
        assert any(
            isinstance(e, ev.PingAckReceived) and e.payload == b"abcdefgh"
            for e in events
        )

    def test_ping_manual_ack(self):
        client = H2Connection(ConnectionConfig(side=Side.CLIENT))
        server = H2Connection(
            ConnectionConfig(side=Side.SERVER, auto_ping_ack=False)
        )
        client.initiate()
        server.initiate()
        pump(client, server)
        client.send_ping(b"01234567")
        events = pump(client, server)
        assert any(isinstance(e, ev.PingReceived) for e in events)
        assert not any(isinstance(e, ev.PingAckReceived) for e in events)
        server.send_ping(b"01234567", ack=True)
        events = pump(client, server)
        assert any(isinstance(e, ev.PingAckReceived) for e in events)

    def test_rst_stream_roundtrip(self, pair):
        client, server = pair
        sid = client.next_stream_id()
        client.send_headers(sid, REQUEST)
        pump(client, server)
        client.send_rst_stream(sid, int(ErrorCode.CANCEL))
        events = pump(client, server)
        reset = next(e for e in events if isinstance(e, ev.StreamReset))
        assert reset.error_code == int(ErrorCode.CANCEL)
        assert server.streams[sid].closed

    def test_goaway_roundtrip(self, pair):
        client, server = pair
        server.send_goaway(int(ErrorCode.NO_ERROR), debug_data=b"bye")
        events = pump(client, server)
        goaway = next(e for e in events if isinstance(e, ev.GoAwayReceived))
        assert goaway.debug_data == b"bye"
        assert client.terminated

    def test_frames_on_stream_zero_rejected(self, pair):
        client, server = pair
        client.send_raw_frame(DataFrame(stream_id=0, data=b"x"))
        with pytest.raises(ProtocolError):
            server.receive_bytes(client.data_to_send())

    def test_ping_on_nonzero_stream_rejected(self, pair):
        client, server = pair
        client.send_raw_frame(PingFrame(stream_id=3))
        with pytest.raises(ProtocolError):
            server.receive_bytes(client.data_to_send())


class TestPush:
    def test_push_promise_roundtrip(self, pair):
        client, server = pair
        sid = client.next_stream_id()
        client.send_headers(sid, REQUEST, end_stream=True)
        pump(client, server)

        promised = server.send_push_promise(
            sid, [(":method", "GET"), (":scheme", "https"), (":path", "/style.css"),
                  (":authority", "example.com")]
        )
        assert promised % 2 == 0
        server.send_headers(promised, [(":status", "200")])
        server.send_data(promised, b"css", end_stream=True)
        events = pump(client, server)
        promise = next(e for e in events if isinstance(e, ev.PushPromiseReceived))
        assert promise.parent_stream_id == sid
        assert (b":path", b"/style.css") in promise.headers
        data = next(e for e in events if isinstance(e, ev.DataReceived))
        assert data.data == b"css"

    def test_push_blocked_when_client_disables(self):
        client = H2Connection(
            ConnectionConfig(
                side=Side.CLIENT,
                initial_settings={int(SettingCode.ENABLE_PUSH): 0},
            )
        )
        server = H2Connection(ConnectionConfig(side=Side.SERVER))
        client.initiate()
        server.initiate()
        pump(client, server)
        sid = client.next_stream_id()
        client.send_headers(sid, REQUEST, end_stream=True)
        pump(client, server)
        with pytest.raises(ProtocolError):
            server.send_push_promise(sid, REQUEST)

    def test_client_cannot_push(self, pair):
        client, _ = pair
        with pytest.raises(ProtocolError):
            client.send_push_promise(1, REQUEST)


class TestAccounting:
    def test_open_peer_initiated_streams(self, pair):
        client, server = pair
        for _ in range(3):
            sid = client.next_stream_id()
            client.send_headers(sid, REQUEST)
        pump(client, server)
        assert open_peer_initiated_streams(server) == 3

    def test_received_and_frames_sent_account_for_traffic(self, pair):
        client, server = pair
        before = client.frames_sent
        client.send_ping()
        assert client.frames_sent == before + 1
        server.receive_bytes(client.data_to_send())
        assert [type(f) for f in server.received] == [PingFrame]
        # Each call leaves its own frames; the connection keeps no history.
        server.receive_bytes(b"")
        assert server.received == []

    def test_received_keeps_the_frame_whose_dispatch_raised(self, pair):
        client, server = pair
        client.send_raw_frame(PingFrame(stream_id=1))  # PING must be on stream 0
        client.send_ping()
        with pytest.raises(ProtocolError):
            server.receive_bytes(client.data_to_send())
        assert [f.stream_id for f in server.received] == [1]


class TestUpgradeStream:
    def test_client_side_stream_one_half_closed_local(self):
        client = H2Connection(ConnectionConfig(side=Side.CLIENT))
        client.initiate()
        assert client.upgrade_stream() == 1
        from repro.h2.stream import StreamState

        assert client.streams[1].state is StreamState.HALF_CLOSED_LOCAL
        assert client.next_stream_id() == 3

    def test_server_side_stream_one_half_closed_remote(self):
        server = H2Connection(ConnectionConfig(side=Side.SERVER))
        server.initiate()
        assert server.upgrade_stream() == 1
        from repro.h2.stream import StreamState

        assert server.streams[1].state is StreamState.HALF_CLOSED_REMOTE

    def test_upgraded_pair_exchanges_response(self):
        client = H2Connection(ConnectionConfig(side=Side.CLIENT))
        server = H2Connection(ConnectionConfig(side=Side.SERVER))
        client.initiate()
        server.initiate()
        client.upgrade_stream()
        server.upgrade_stream()
        pump(client, server)
        server.send_headers(1, [(":status", "200")])
        server.send_data(1, b"upgraded", end_stream=True)
        events = pump(client, server)
        data = next(e for e in events if isinstance(e, ev.DataReceived))
        assert data.data == b"upgraded"
        assert any(
            isinstance(e, ev.StreamEnded) and e.stream_id == 1 for e in events
        )


class TestEncoderTableCap:
    def test_peer_table_size_adopted_without_cap(self, pair):
        client, server = pair
        client.send_settings({int(SettingCode.HEADER_TABLE_SIZE): 2**20})
        pump(client, server)
        assert server.encoder.header_table_size == 2**20

    def test_cap_clamps_peer_announcement(self):
        client = H2Connection(ConnectionConfig(side=Side.CLIENT))
        server = H2Connection(
            ConnectionConfig(side=Side.SERVER, max_peer_header_table_size=4096)
        )
        client.initiate()
        server.initiate()
        pump(client, server)
        client.send_settings({int(SettingCode.HEADER_TABLE_SIZE): 2**24})
        pump(client, server)
        assert server.encoder.header_table_size == 4096

    def test_cap_does_not_grow_small_announcements(self):
        client = H2Connection(ConnectionConfig(side=Side.CLIENT))
        server = H2Connection(
            ConnectionConfig(side=Side.SERVER, max_peer_header_table_size=4096)
        )
        client.initiate()
        server.initiate()
        pump(client, server)
        client.send_settings({int(SettingCode.HEADER_TABLE_SIZE): 512})
        pump(client, server)
        assert server.encoder.header_table_size == 512


class TestPriorityStateBound:
    def test_config_bounds_tracked_streams(self):
        server = H2Connection(
            ConnectionConfig(side=Side.SERVER, max_tracked_priority_streams=8)
        )
        for sid in range(1, 101, 2):
            server.priority_tree.reprioritize(sid, depends_on=max(0, sid - 2))
        assert len(server.priority_tree) <= 9


class TestSettingsValidationOnReceive:
    def test_oversized_initial_window_is_connection_error(self, pair):
        """§6.5.2: INITIAL_WINDOW_SIZE above 2^31-1 -> FLOW_CONTROL_ERROR
        connection error (found by the fuzzer, locked down here)."""
        from repro.h2.errors import H2ConnectionError
        from repro.h2.frames import SettingsFrame

        client, server = pair
        client.send_raw_frame(SettingsFrame(settings=[(IWS, 2**31)]))
        with pytest.raises(H2ConnectionError) as excinfo:
            server.receive_bytes(client.data_to_send())
        assert excinfo.value.error_code == ErrorCode.FLOW_CONTROL_ERROR

    def test_invalid_enable_push_is_connection_error(self, pair):
        from repro.h2.frames import SettingsFrame

        client, server = pair
        client.send_raw_frame(SettingsFrame(settings=[(2, 7)]))
        with pytest.raises(ProtocolError):
            server.receive_bytes(client.data_to_send())

    def test_undersized_max_frame_size_is_connection_error(self, pair):
        from repro.h2.frames import SettingsFrame

        client, server = pair
        client.send_raw_frame(SettingsFrame(settings=[(5, 100)]))
        with pytest.raises(ProtocolError):
            server.receive_bytes(client.data_to_send())
