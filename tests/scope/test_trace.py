"""Frame-trace rendering, recording and persistence."""

import pytest

from repro.h2.constants import FrameFlag
from repro.h2.frames import (
    ContinuationFrame,
    DataFrame,
    GoAwayFrame,
    HeadersFrame,
    PingFrame,
    PriorityData,
    PriorityFrame,
    PushPromiseFrame,
    RstStreamFrame,
    SettingsFrame,
    UnknownFrame,
    WindowUpdateFrame,
    serialize_frame,
)
from repro.scope.session import ProbeSession
from repro.scope.storage import ReportStore
from repro.scope.trace import (
    TracedFrame,
    TraceRecorder,
    decode_trace,
    describe_frame,
    encode_trace,
    render_trace,
)
from repro.net.backend import SimulatedBackend
from repro.net.clock import Simulation
from repro.net.transport import Network
from repro.servers.profiles import ServerProfile
from repro.servers.site import Site, deploy_site
from repro.servers.website import default_website
from tests.conftest import sim_session
from tests.support.frames import tap_connections
from tests.support.readers import timeline_labels, timelines_of

#: One of every frame type, exercising the odd corners: unknown frame
#: types, GOAWAY debug data, unregistered SETTINGS identifiers and
#: error codes.
ONE_OF_EACH = [
    DataFrame(stream_id=1, flags=FrameFlag.END_STREAM, data=b"abc"),
    HeadersFrame(
        stream_id=3,
        flags=FrameFlag.END_HEADERS,
        header_block=b"hb",
        priority=PriorityData(depends_on=1, weight=16, exclusive=True),
    ),
    PriorityFrame(stream_id=5, priority=PriorityData(3, 255, False)),
    RstStreamFrame(stream_id=7, error_code=0x5EED),  # unknown error code
    SettingsFrame(settings=[(3, 128), (0xF00F, 9)]),  # unknown identifier
    PushPromiseFrame(stream_id=1, promised_stream_id=2, header_block=b"p"),
    PingFrame(payload=b"12345678"),
    GoAwayFrame(last_stream_id=9, error_code=0xBEEF, debug_data=b"dbg\x00!"),
    WindowUpdateFrame(stream_id=0, window_increment=2**31 - 1),
    ContinuationFrame(stream_id=3, flags=FrameFlag.END_HEADERS, header_block=b"c"),
    UnknownFrame(stream_id=2, type_code=0xEE, payload=b"\x01\x02"),
]


class TestDescribeFrame:
    def test_data(self):
        line = describe_frame(
            DataFrame(stream_id=5, flags=FrameFlag.END_STREAM, data=b"abc")
        )
        assert "DATA" in line and "stream=5" in line
        assert "end_stream" in line and "len=3" in line

    def test_headers_with_priority(self):
        line = describe_frame(
            HeadersFrame(
                stream_id=3,
                flags=FrameFlag.END_HEADERS,
                header_block=b"xx",
                priority=PriorityData(depends_on=1, weight=12, exclusive=True),
            )
        )
        assert "dep=1" in line and "w=12" in line and "excl" in line

    def test_settings_names_resolved(self):
        line = describe_frame(SettingsFrame(settings=[(3, 100), (4, 65535)]))
        assert "MAX_CONCURRENT_STREAMS=100" in line
        assert "INITIAL_WINDOW_SIZE=65535" in line

    def test_settings_ack(self):
        assert "ack" in describe_frame(SettingsFrame(flags=FrameFlag.ACK))

    def test_unknown_setting_hex(self):
        assert "0x00f0=7" in describe_frame(SettingsFrame(settings=[(0xF0, 7)]))

    def test_rst_error_named(self):
        line = describe_frame(RstStreamFrame(stream_id=1, error_code=7))
        assert "REFUSED_STREAM" in line

    def test_goaway_with_debug(self):
        line = describe_frame(
            GoAwayFrame(last_stream_id=9, error_code=11, debug_data=b"calm down")
        )
        assert "ENHANCE_YOUR_CALM" in line and "calm down" in line

    def test_window_update(self):
        line = describe_frame(WindowUpdateFrame(stream_id=0, window_increment=0))
        assert "increment=0" in line

    def test_ping_payload_hex(self):
        assert "6162636465666768" in describe_frame(PingFrame(payload=b"abcdefgh"))

    def test_push_promise(self):
        line = describe_frame(
            PushPromiseFrame(stream_id=1, promised_stream_id=4, header_block=b"")
        )
        assert "promised=4" in line

    def test_priority_frame(self):
        line = describe_frame(
            PriorityFrame(stream_id=9, priority=PriorityData(3, 256, False))
        )
        assert "PRIORITY" in line and "w=256" in line

    def test_continuation_and_unknown(self):
        assert "CONTINUATION" in describe_frame(ContinuationFrame(stream_id=1))
        assert "UNKNOWN(0xee)" in describe_frame(
            UnknownFrame(stream_id=2, type_code=0xEE, payload=b"zz")
        )


class TestRenderTrace:
    def test_renders_timestamps_and_direction(self):
        frames = [
            TracedFrame(at=0.05, frame=PingFrame()),
            TracedFrame(at=1.25, frame=SettingsFrame()),
        ]
        out = render_trace(frames)
        lines = out.splitlines()
        assert lines[0].startswith("[   0.0500] <")
        assert "SETTINGS" in lines[1]

    def test_empty_trace(self):
        assert render_trace([]) == ""

    def test_real_probe_trace_is_renderable(self):
        sim = Simulation()
        network = Network(sim, seed=2)
        site = Site(domain="t.test", profile=ServerProfile(), website=default_website())
        deploy_site(network, site)
        recorder = TraceRecorder()
        recorder.begin("fetch")
        client = sim_session(network).client(
            "t.test", auto_window_update=True, trace=recorder
        )
        assert client.establish_h2()
        sid = client.request("/style.css")
        client.wait_for(lambda: client.headers_for(sid) is not None)
        out = render_trace(recorder.traces["fetch"])
        assert "SETTINGS" in out
        assert "HEADERS" in out

    def test_every_frame_type_renders_one_line(self):
        timeline = [
            TracedFrame(at=float(i), frame=frame)
            for i, frame in enumerate(ONE_OF_EACH)
        ]
        out = render_trace(timeline)
        lines = out.splitlines()
        assert len(lines) == len(ONE_OF_EACH)
        for keyword in (
            "DATA", "HEADERS", "PRIORITY", "RST_STREAM", "SETTINGS",
            "PUSH_PROMISE", "PING", "GOAWAY", "WINDOW_UPDATE",
            "CONTINUATION", "UNKNOWN(0xee)",
        ):
            assert keyword in out, keyword
        # Unregistered codes fall back to hex, never raise.
        assert "0x5eed" in out and "0xbeef" in out and "0xf00f=9" in out
        assert "debug=" in out  # GOAWAY debug data surfaced

    def test_rendering_is_stable(self):
        timeline = [
            TracedFrame(at=float(i), frame=frame)
            for i, frame in enumerate(ONE_OF_EACH)
        ]
        assert render_trace(timeline) == render_trace(timeline)


class TestEncodeDecode:
    def test_round_trip_every_frame_type(self):
        timeline = [
            TracedFrame(at=0.25 * i, frame=frame)
            for i, frame in enumerate(ONE_OF_EACH)
        ]
        document = encode_trace(timeline)
        restored = decode_trace(document)
        assert len(restored) == len(timeline)
        for original, back in zip(timeline, restored):
            assert back.at == original.at
            assert serialize_frame(back.frame) == serialize_frame(original.frame)
        # The decoded timeline renders identically: persistence is
        # invisible to a reader of the trace.
        assert render_trace(restored) == render_trace(timeline)

    def test_document_is_json_friendly(self):
        import json

        document = encode_trace([TracedFrame(at=1.5, frame=PingFrame())])
        assert json.loads(json.dumps(document)) == document

    def test_decode_rejects_corrupt_entries(self):
        good = encode_trace([TracedFrame(at=0.0, frame=PingFrame())])
        truncated = [{"at": 0.0, "frame": good[0]["frame"][:-4]}]
        with pytest.raises(ValueError):
            decode_trace(truncated)
        doubled = [{"at": 0.0, "frame": good[0]["frame"] * 2}]
        with pytest.raises(ValueError):
            decode_trace(doubled)


class TestTraceRecorder:
    def test_records_only_inside_named_probe(self):
        recorder = TraceRecorder()
        recorder.record(0.0, PingFrame())  # no probe begun: dropped
        recorder.begin("ping")
        recorder.record(1.0, PingFrame())
        recorder.end()
        recorder.record(2.0, PingFrame())  # after end: dropped
        assert list(recorder.traces) == ["ping"]
        assert [t.at for t in recorder.traces["ping"]] == [1.0]

    def test_begin_registers_empty_timeline(self):
        recorder = TraceRecorder()
        recorder.begin("silent")
        recorder.end()
        assert recorder.traces["silent"] == []

    def test_session_wires_recorder_into_clients(self):
        sim = Simulation()
        network = Network(sim, seed=2)
        site = Site(
            domain="t.test", profile=ServerProfile(), website=default_website()
        )
        deploy_site(network, site)
        recorder = TraceRecorder()
        session = ProbeSession(SimulatedBackend(network), trace=recorder)
        recorder.begin("handshake")
        with tap_connections() as taps:
            client = session.client("t.test")
            assert client.establish_h2()
        recorder.end()
        client.close()
        frames = recorder.traces["handshake"]
        assert frames, "received frames should have been recorded"
        assert render_trace(frames)  # and they render
        # Exactly the frames the connection dispatched, in order.
        assert [tf.frame for tf in frames] == taps[client.conn].received


class TestTraceStorage:
    def test_store_round_trip(self, tmp_path):
        timeline = [
            TracedFrame(at=0.5 * i, frame=frame)
            for i, frame in enumerate(ONE_OF_EACH)
        ]
        with ReportStore(tmp_path / "traces.db") as store:
            store.save_traces(
                "camp", "site.test", {"negotiation": timeline, "ping": []}
            )
            assert store.trace_probes("camp", "site.test") == [
                "negotiation",
                "ping",
            ]
            restored = store.load_trace("camp", "site.test", "negotiation")
            assert render_trace(restored) == render_trace(timeline)
            assert store.load_trace("camp", "site.test", "ping") == []
            assert store.load_trace("camp", "site.test", "nope") is None
            assert store.trace_probes("camp", "other.test") == []



class TestTimelineRoundTrip:
    """Connection timelines (ISSUE 7 corpora) survive JSON + SQLite."""

    def attack_shaped(self):
        from repro.scope.trace import ConnectionTimeline

        frames = [TracedFrame(at=0.0, frame=SettingsFrame(settings=[(4, 0)]))]
        # A CONTINUATION trickle: 1-byte fragments, none terminal.
        frames += [
            TracedFrame(
                at=0.5 + 0.25 * i,
                frame=ContinuationFrame(stream_id=1, header_block=b"x"),
            )
            for i in range(24)
        ]
        # A PING volley of identical frames (floods repeat exactly).
        frames += [
            TracedFrame(at=7.0 + 0.01 * i, frame=PingFrame(payload=b"\x00" * 8))
            for i in range(10)
        ]
        frames.append(
            TracedFrame(
                at=8.0,
                frame=GoAwayFrame(
                    last_stream_id=0,
                    error_code=11,  # ENHANCE_YOUR_CALM
                    debug_data=b"header-timeout",
                ),
            )
        )
        return ConnectionTimeline(
            opened_at=0.25,
            closed_at=8.05,
            protocol="h2",
            frames=frames,
            label="slow_headers",
        )

    def test_encode_decode_through_json(self):
        import json

        from repro.scope.trace import decode_timeline, encode_timeline

        timeline = self.attack_shaped()
        document = json.loads(json.dumps(encode_timeline(timeline)))
        restored = decode_timeline(document)
        assert restored.opened_at == timeline.opened_at
        assert restored.closed_at == timeline.closed_at
        assert restored.protocol == "h2"
        assert restored.label == "slow_headers"
        assert restored.frames == timeline.frames
        assert render_trace(restored.frames) == render_trace(timeline.frames)

    def test_unlabelled_open_timeline(self):
        from repro.scope.trace import (
            ConnectionTimeline,
            decode_timeline,
            encode_timeline,
        )

        timeline = ConnectionTimeline(opened_at=3.0, protocol="hello")
        restored = decode_timeline(encode_timeline(timeline))
        assert restored.closed_at is None and restored.label is None
        assert restored.end_at == 3.0

    def test_store_round_trip_with_labels(self, tmp_path):
        timeline = self.attack_shaped()
        with ReportStore(tmp_path / "timelines.db") as store:
            store.save_timelines("atk", "nginx.slow_headers", [timeline])
            store.save_traces("atk", "probe.site", {"negotiation": []})
            restored = store.load_timelines("atk")
            # Probe traces share the table but are not timelines.
            assert len(restored) == 1
            assert restored[0].label == "slow_headers"
            assert restored[0].frames == timeline.frames
            assert timelines_of(store, "atk", "nginx.slow_headers")
            assert timelines_of(store, "atk", "other") == []
            assert timeline_labels(store, "atk") == {
                None: 1,
                "slow_headers": 1,
            }
