"""Exception hierarchy for the HTTP/2 substrate.

RFC 7540 distinguishes *stream errors* (recoverable: the endpoint sends
RST_STREAM and continues) from *connection errors* (fatal: the endpoint
sends GOAWAY and tears down the connection).  The hierarchy mirrors that
split so callers can catch at the right granularity.
"""

from __future__ import annotations

from repro.h2.constants import ErrorCode


class H2Error(Exception):
    """Base class for every error raised by :mod:`repro.h2`."""

    #: RFC 7540 error code carried in RST_STREAM / GOAWAY.
    error_code: ErrorCode = ErrorCode.INTERNAL_ERROR

    def __init__(self, message: str = "", error_code: ErrorCode | None = None):
        super().__init__(message)
        if error_code is not None:
            self.error_code = error_code


class H2ConnectionError(H2Error):
    """A connection-level error: the whole connection must be torn down."""

    error_code = ErrorCode.PROTOCOL_ERROR


class H2StreamError(H2Error):
    """A stream-level error: only the offending stream is reset."""

    error_code = ErrorCode.PROTOCOL_ERROR

    def __init__(self, message: str = "", stream_id: int = 0):
        super().__init__(message)
        self.stream_id = stream_id


class ProtocolError(H2ConnectionError):
    """Generic violation of the framing or state rules (PROTOCOL_ERROR)."""

    error_code = ErrorCode.PROTOCOL_ERROR


class FrameSizeError(H2ConnectionError):
    """A frame length field violated size constraints (FRAME_SIZE_ERROR)."""

    error_code = ErrorCode.FRAME_SIZE_ERROR


class FlowControlError(H2Error):
    """A flow-control window was violated or overflowed (FLOW_CONTROL_ERROR)."""

    error_code = ErrorCode.FLOW_CONTROL_ERROR


class StreamClosedError(H2StreamError):
    """A frame arrived on a stream that is closed (STREAM_CLOSED)."""

    error_code = ErrorCode.STREAM_CLOSED


class HpackDecodingError(H2ConnectionError):
    """The HPACK decoder could not decode a header block (COMPRESSION_ERROR).

    RFC 7541 §2.4: decoding errors are always fatal to the connection
    because the compression contexts of the two endpoints diverge.
    """

    error_code = ErrorCode.COMPRESSION_ERROR


class HpackEncodingError(H2Error):
    """The HPACK encoder was asked to encode something unrepresentable."""

    error_code = ErrorCode.INTERNAL_ERROR
