"""Fuzz the server engine: malformed input must never crash it.

A measurement target has to survive whatever H2Scope throws at it —
and the engine doubles as the origin for every experiment, so any
uncaught exception here would poison population scans.  The server may
GOAWAY, RST or ignore; it must not raise.
"""


from hypothesis import example, given, settings, strategies as st

from repro.h2 import events as ev
from repro.h2.constants import CONNECTION_PREFACE, ErrorCode, FrameFlag
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
    WindowUpdateFrame,
    parse_frames,
    serialize_frame,
)
from repro.h2.hpack.encoder import Encoder
from repro.net.clock import Simulation
from repro.net.transport import LinkProfile, Network
from repro.servers.profiles import ServerProfile
from repro.servers.site import Site, deploy_site
from repro.servers.website import default_website
from tests.conftest import sim_session


def fresh_server_endpoint(seed=0):
    """A raw connection to a served site, TLS hello already done."""
    sim = Simulation()
    network = Network(sim, seed=seed)
    site = Site(
        domain="fuzz.test",
        profile=ServerProfile(),
        website=default_website(),
        link=LinkProfile(rtt=0.001, bandwidth=1e9),
    )
    deploy_site(network, site)
    from repro.net.tls import encode_client_hello

    attempt = network.connect("fuzz.test", 443)
    sim.run_until(lambda: attempt.established, timeout=5)
    endpoint = attempt.endpoint
    received = bytearray()
    endpoint.on_data = received.extend
    endpoint.send(encode_client_hello(["h2"], npn_offered=False))
    sim.run_until(lambda: b"\n" in received, timeout=5)
    received.clear()
    return sim, endpoint, received


class TestGarbageBytes:
    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=1, max_size=300))
    def test_random_bytes_after_preface_never_crash(self, junk):
        sim, endpoint, received = fresh_server_endpoint()
        endpoint.send(CONNECTION_PREFACE)
        endpoint.send(junk)
        sim.run(until=sim.now + 2.0)  # must not raise

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=1, max_size=100))
    def test_random_bytes_instead_of_preface(self, junk):
        sim, endpoint, received = fresh_server_endpoint()
        endpoint.send(junk.ljust(30, b"\x00"))
        sim.run(until=sim.now + 2.0)

    def test_truncated_preface_then_more(self):
        sim, endpoint, received = fresh_server_endpoint()
        endpoint.send(CONNECTION_PREFACE[:10])
        sim.run(until=sim.now + 0.5)
        endpoint.send(CONNECTION_PREFACE[10:])
        endpoint.send(serialize_frame(SettingsFrame()))
        sim.run(until=sim.now + 2.0)
        assert received  # server answered with its SETTINGS


_fuzz_frame = st.one_of(
    st.builds(
        DataFrame,
        stream_id=st.integers(0, 20),
        data=st.binary(max_size=40),
        flags=st.sampled_from([0, 1]),
    ),
    st.builds(
        HeadersFrame,
        stream_id=st.integers(0, 20),
        header_block=st.binary(max_size=30),
        flags=st.sampled_from([0, 1, 4, 5]),
    ),
    st.builds(
        PriorityFrame,
        stream_id=st.integers(0, 20),
        priority=st.builds(
            PriorityData,
            depends_on=st.integers(0, 20),
            weight=st.integers(1, 256),
            exclusive=st.booleans(),
        ),
    ),
    st.builds(RstStreamFrame, stream_id=st.integers(0, 20), error_code=st.integers(0, 20)),
    st.builds(
        SettingsFrame,
        settings=st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 2**32 - 1)), max_size=4
        ),
    ),
    st.builds(
        PushPromiseFrame,
        stream_id=st.integers(0, 20),
        promised_stream_id=st.integers(0, 20),
        header_block=st.binary(max_size=20),
        flags=st.just(4),
    ),
    st.builds(PingFrame, payload=st.binary(min_size=8, max_size=8), flags=st.sampled_from([0, 1])),
    st.builds(GoAwayFrame, last_stream_id=st.integers(0, 20), error_code=st.integers(0, 20)),
    st.builds(
        WindowUpdateFrame,
        stream_id=st.integers(0, 20),
        window_increment=st.integers(0, 2**31 - 1),
    ),
    st.builds(
        ContinuationFrame, stream_id=st.integers(0, 20), header_block=st.binary(max_size=20)
    ),
)


#: A second END_HEADERS block on a request stream, without and with
#: END_STREAM: the engine used to answer both blocks, and its second
#: response raised StreamClosedError out of the simulation.
_SECOND_BLOCK = FrameFlag.END_HEADERS
_TRAILERS = FrameFlag.END_HEADERS | FrameFlag.END_STREAM


class TestAdversarialFrameSequences:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_fuzz_frame, min_size=1, max_size=12))
    @example([HeadersFrame(stream_id=1, flags=_SECOND_BLOCK)] * 2)
    @example(
        [
            HeadersFrame(stream_id=1, flags=_SECOND_BLOCK),
            HeadersFrame(stream_id=1, flags=_TRAILERS),
        ]
    )
    def test_any_frame_sequence_survives(self, frames):
        sim, endpoint, received = fresh_server_endpoint()
        endpoint.send(CONNECTION_PREFACE)
        endpoint.send(serialize_frame(SettingsFrame()))
        for frame in frames:
            try:
                wire = serialize_frame(frame)
            except Exception:
                continue  # unserializable combos are not wire-reachable
            endpoint.send(wire)
        sim.run(until=sim.now + 2.0)  # must not raise

    def test_valid_request_after_surviving_garbage_rejection(self):
        """After a stream error the connection keeps serving."""
        sim = Simulation()
        network = Network(sim, seed=3)
        site = Site(
            domain="resilient.test",
            profile=ServerProfile(),
            website=default_website(),
        )
        deploy_site(network, site)
        client = sim_session(network).client("resilient.test", auto_window_update=True)
        assert client.establish_h2()
        # Provoke a stream error: zero window update on a live stream.
        first = client.request("/big.bin")
        client.send_window_update(first, 0)
        client.wait_for(
            lambda: any(isinstance(te.event, ev.StreamReset) for te in client.events)
        )
        # The connection still works for a fresh request.
        second = client.request("/style.css")
        client.wait_for(lambda: client.headers_for(second) is not None)
        assert client.headers_for(second) is not None


class TestSecondHeaderBlockOnARequestStream:
    """RFC 7540 §8.1: a second header block on a request stream is
    trailers.  With END_STREAM they end the stream and the request is
    answered once; without it the request is malformed (§8.1.2.6) and
    the stream is reset with PROTOCOL_ERROR instead of answered."""

    @staticmethod
    def stream_one_replies(second_flags) -> list:
        sim, endpoint, received = fresh_server_endpoint()
        endpoint.send(CONNECTION_PREFACE)
        endpoint.send(serialize_frame(SettingsFrame()))
        request = Encoder().encode(
            [(":method", "GET"), (":scheme", "https"), (":path", "/"),
             (":authority", "fuzz.test")]
        )
        for block, flags in ((request, _SECOND_BLOCK), (b"", second_flags)):
            endpoint.send(
                serialize_frame(
                    HeadersFrame(stream_id=1, header_block=block, flags=flags)
                )
            )
        sim.run(until=sim.now + 2.0)  # must not raise
        frames, _ = parse_frames(bytes(received))
        return [
            frame
            for frame in frames
            if frame.stream_id == 1
            and isinstance(frame, (HeadersFrame, RstStreamFrame))
        ]

    def test_trailers_end_the_stream_and_are_answered_once(self):
        replies = self.stream_one_replies(_TRAILERS)
        assert [type(frame) for frame in replies] == [HeadersFrame]

    def test_second_block_without_end_stream_resets_the_stream(self):
        replies = self.stream_one_replies(_SECOND_BLOCK)
        assert [type(frame) for frame in replies] == [RstStreamFrame]
        assert replies[0].error_code == ErrorCode.PROTOCOL_ERROR


class TestClientRobustness:
    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=1, max_size=200))
    def test_scope_client_survives_garbage(self, junk):
        sim = Simulation()
        network = Network(sim, seed=1)
        site = Site(domain="g.test", profile=ServerProfile(), website=default_website())
        deploy_site(network, site)
        client = sim_session(network).client("g.test")
        assert client.establish_h2()
        client._on_data(junk)  # never raised
        assert client.events_of(ev.SettingsReceived)  # and the log stands
