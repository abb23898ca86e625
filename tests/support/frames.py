"""Record the frames an ``H2Connection`` sends and dispatches.

A connection keeps no frame history (DESIGN §8): it counts what it
sends and leaves each ``receive_bytes`` call's frames in
``conn.received`` until the next call.  A test that inspects traffic
taps the connection instead:

    tap = FrameTap(conn)            # one connection the test holds
    with tap_connections() as taps: # every connection made inside
        ...
    taps[conn].sent, taps[conn].received, taps[conn].errors
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.h2.connection import H2Connection
from repro.h2.frames import Frame


class FrameTap:
    """Every frame one connection sends (through ``_send_frame``),
    every frame it dispatches (``conn.received`` after each
    ``receive_bytes``, a frame whose dispatch raised included) and every
    error ``receive_bytes`` raised, in order, from the moment the tap is
    attached."""

    def __init__(self, conn: H2Connection):
        self.sent: list[Frame] = []
        self.received: list[Frame] = []
        self.errors: list[Exception] = []
        send_frame, receive_bytes = conn._send_frame, conn.receive_bytes

        def tapped_send_frame(frame: Frame) -> None:
            self.sent.append(frame)
            send_frame(frame)

        def tapped_receive_bytes(data: bytes):
            try:
                return receive_bytes(data)
            except Exception as exc:
                self.errors.append(exc)
                raise
            finally:
                self.received.extend(conn.received)

        conn._send_frame = tapped_send_frame
        conn.receive_bytes = tapped_receive_bytes


@contextmanager
def tap_connections():
    """Tap every ``H2Connection`` constructed inside the block; yields
    the taps, keyed by connection, in construction order."""
    taps: dict[H2Connection, FrameTap] = {}
    init = H2Connection.__init__

    def tapped_init(conn, *args, **kwargs):
        init(conn, *args, **kwargs)
        taps[conn] = FrameTap(conn)

    H2Connection.__init__ = tapped_init
    try:
        yield taps
    finally:
        H2Connection.__init__ = init
