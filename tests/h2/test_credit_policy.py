"""The receiver's credit policy (DESIGN §8, "credit in bulk").

``auto_window_update`` copies nghttp2's
``nghttp2_should_send_window_update``: one WINDOW_UPDATE for everything
owed once half a window is used.  The property below drives a receiver
with DATA of every size, tiny and huge stream windows, a
SETTINGS_INITIAL_WINDOW_SIZE change in either direction and an update
sent by hand, from a sender that sends whenever it has credit, and
checks the books after every step.
"""

from hypothesis import example, given, settings, strategies as st

from repro.h2.connection import ConnectionConfig, H2Connection, Side
from repro.h2.constants import (
    DEFAULT_INITIAL_WINDOW_SIZE,
    MAX_WINDOW_SIZE,
    FrameFlag,
    SettingCode,
)
from repro.h2.frames import (
    DataFrame,
    HeadersFrame,
    SettingsFrame,
    WindowUpdateFrame,
    serialize_frame,
)
from repro.h2.hpack.encoder import Encoder

from tests.support.frames import FrameTap

IWS = int(SettingCode.INITIAL_WINDOW_SIZE)
WINDOWS = [0, 1, 2, 3, 65_535, MAX_WINDOW_SIZE]
STREAMS = (1, 3)
REQUEST = [
    (":method", "GET"),
    (":scheme", "https"),
    (":path", "/"),
    (":authority", "example.com"),
]


def half(size: int) -> int:
    return max(1, size // 2)


class Exchange:
    """A receiving client and a frame-writing peer that reads every
    frame the client sends the instant it is sent."""

    def __init__(self, initial: int):
        self.receiver = H2Connection(
            ConnectionConfig(side=Side.CLIENT, initial_settings={IWS: initial})
        )
        self.tap = FrameTap(self.receiver)
        self.receiver.initiate()
        for sid in STREAMS:
            assert self.receiver.next_stream_id() == sid
            self.receiver.send_headers(sid, REQUEST, end_stream=True)
        self.size = initial  # the stream window size in force
        #: Octets the peer may send: its view of our windows.
        self.credit = {0: DEFAULT_INITIAL_WINDOW_SIZE, **{s: initial for s in STREAMS}}
        #: What our windows must read: initial + increments - consumed.
        self.expected = dict(self.credit)
        self.read = 0  # frames of tap.sent the peer has seen
        self.peer_reads()
        encoder = Encoder()
        wire = serialize_frame(SettingsFrame())
        for sid in STREAMS:
            wire += serialize_frame(
                HeadersFrame(
                    stream_id=sid,
                    flags=FrameFlag.END_HEADERS,
                    header_block=encoder.encode([(":status", "200")]),
                )
            )
        self.receiver.receive_bytes(wire)
        self.peer_reads()

    def window(self, sid: int):
        if sid == 0:
            return self.receiver.inbound_window
        return self.receiver.streams[sid].inbound_window

    def peer_reads(self) -> None:
        for frame in self.tap.sent[self.read :]:
            if isinstance(frame, WindowUpdateFrame):
                assert 0 < frame.window_increment <= MAX_WINDOW_SIZE
                self.credit[frame.stream_id] += frame.window_increment
                self.expected[frame.stream_id] += frame.window_increment
                assert self.credit[frame.stream_id] <= MAX_WINDOW_SIZE
            elif isinstance(frame, SettingsFrame):
                for identifier, value in frame.settings:
                    if identifier == IWS:
                        for sid in STREAMS:
                            self.credit[sid] += value - self.size
                            self.expected[sid] += value - self.size
                        self.size = value
        self.read = len(self.tap.sent)

    def check_books(self) -> None:
        for sid in (0, *STREAMS):
            assert self.window(sid).value == self.expected[sid] == self.credit[sid]

    def check_granted(self) -> None:
        """Less than half a window is owed, so the peer is never stuck
        below half of what the window size promises."""
        size = DEFAULT_INITIAL_WINDOW_SIZE
        assert size - self.window(0).value < half(size)
        for sid in STREAMS:
            if self.receiver.streams[sid].can_receive:
                assert self.size - self.window(sid).value < half(self.size)

    def send_data(self, sid: int, wanted: int, pad: int | None) -> int:
        """The peer sends up to ``wanted`` flow-controlled octets."""
        length = min(wanted, self.credit[0], self.credit[sid])
        if wanted and length <= 0:
            # Blocked.  The connection always has credit; a stream only
            # lacks it when its window size is 0 and nobody raised it.
            assert self.credit[0] > 0 and self.size == 0
            return 0
        if pad is not None and length >= pad + 1:
            frame = DataFrame(
                stream_id=sid, data=b"x" * (length - pad - 1), pad_length=pad
            )
        else:
            frame = DataFrame(stream_id=sid, data=b"x" * length)
        assert frame.flow_controlled_length == length
        for scope in (0, sid):
            self.credit[scope] -= length
            self.expected[scope] -= length
        self.receiver.receive_bytes(serialize_frame(frame))
        self.peer_reads()
        return length


@settings(max_examples=150, deadline=None)
@given(
    initial=st.sampled_from(WINDOWS),
    frames=st.lists(
        st.tuples(
            st.sampled_from(STREAMS),
            st.integers(0, 16_384),
            st.one_of(st.none(), st.integers(0, 255)),
        ),
        min_size=8,
        max_size=40,
    ),
    change=st.one_of(
        st.none(), st.tuples(st.integers(0, 7), st.sampled_from(WINDOWS))
    ),
    by_hand=st.one_of(
        st.none(),
        st.tuples(
            st.integers(0, 7), st.sampled_from((0, *STREAMS)), st.integers(1, 100_000)
        ),
    ),
)
# A window lowered under a debt smaller than its old half: the debt is
# due at once, because the peer's view of the stream is now negative.
@example(initial=65_535, frames=[(1, 5_000, None)] * 8, change=(1, 1), by_hand=None)
@example(initial=MAX_WINDOW_SIZE, frames=[(3, 16_384, 7)] * 8, change=(4, 3), by_hand=None)
# Raised by hand above its size, then lowered, then drained.
@example(initial=3, frames=[(1, 16_384, None)] * 8, change=(2, 2), by_hand=(1, 1, 40_000))
@example(initial=0, frames=[(1, 9, 0)] * 8, change=(3, 65_535), by_hand=(1, 1, 20))
def test_the_books_balance_and_the_peer_is_never_starved(
    initial, frames, change, by_hand
):
    exchange = Exchange(initial)
    receiver = exchange.receiver
    exchange.check_books()
    for step, (sid, wanted, pad) in enumerate(frames):
        if change is not None and change[0] == step:
            # An application that raised a window by hand cannot also
            # push its size past 2^31-1; that is its error, not ours.
            if all(
                exchange.window(s).value + change[1] - exchange.size <= MAX_WINDOW_SIZE
                for s in STREAMS
            ):
                receiver.send_settings({IWS: change[1]})
                exchange.peer_reads()
                exchange.check_books()
                exchange.check_granted()
        if by_hand is not None and by_hand[0] == step:
            _, scope, increment = by_hand
            if exchange.window(scope).value + increment <= MAX_WINDOW_SIZE:
                receiver.send_window_update(scope, increment)
                exchange.peer_reads()
                exchange.check_books()
        exchange.send_data(sid, wanted, pad)
        exchange.check_books()
        exchange.check_granted()


@given(window=st.sampled_from([1, 2, 3, 65_535]), body=st.integers(1, 200_000))
@settings(max_examples=25, deadline=None)
def test_a_peer_that_sends_on_credit_delivers_the_whole_body(window, body):
    """No deadlock, down to a window of one octet."""
    exchange = Exchange(window)
    if window < 65_535:
        body = min(body, 600)  # one octet a frame is slow enough
    left = body
    while left:
        sent = exchange.send_data(1, min(left, 16_384), None)
        assert sent > 0
        left -= sent
    exchange.check_books()
    updates = [
        frame.stream_id
        for frame in exchange.tap.sent
        if isinstance(frame, WindowUpdateFrame)
    ]
    # Bulk, not per frame: a half window or more comes back each time.
    assert updates.count(0) <= body // half(DEFAULT_INITIAL_WINDOW_SIZE)
    assert updates.count(1) <= body // half(window)


def test_no_stream_credit_after_end_stream():
    exchange = Exchange(65_535)
    frame = DataFrame(stream_id=1, flags=FrameFlag.END_STREAM, data=b"x" * 40_000)
    exchange.receiver.local_settings.set(int(SettingCode.MAX_FRAME_SIZE), 65_536)
    sent = len(exchange.tap.sent)
    exchange.receiver.receive_bytes(serialize_frame(frame))
    updates = exchange.tap.sent[sent:]
    assert [(f.stream_id, f.window_increment) for f in updates] == [(0, 40_000)]
