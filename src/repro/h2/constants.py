"""Wire-level constants from RFC 7540.

Every numeric constant used by the frame codec, the connection state
machine and the settings book-keeping lives here so that the rest of
the package never hard-codes magic numbers.
"""

from __future__ import annotations

import enum

#: The 24-octet client connection preface (RFC 7540 §3.5).
CONNECTION_PREFACE = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"

#: Fixed size of the frame header in octets (RFC 7540 §4.1).
FRAME_HEADER_LENGTH = 9

#: Default and maximum flow-control window (RFC 7540 §6.9.1).
DEFAULT_INITIAL_WINDOW_SIZE = 65_535
MAX_WINDOW_SIZE = 2**31 - 1

#: Frame-size bounds (RFC 7540 §4.2 / §6.5.2).
DEFAULT_MAX_FRAME_SIZE = 16_384
MAX_ALLOWED_FRAME_SIZE = 2**24 - 1

#: Default HPACK dynamic-table size (RFC 7541 §6.5.2 via RFC 7540).
DEFAULT_HEADER_TABLE_SIZE = 4_096

#: PING frames carry exactly eight octets of opaque data (RFC 7540 §6.7).
PING_PAYLOAD_LENGTH = 8

#: Stream-dependency weights are transmitted as weight-1 (RFC 7540 §5.3.2).
MIN_WEIGHT = 1
MAX_WEIGHT = 256
DEFAULT_WEIGHT = 16

#: Largest legal stream identifier (31 bits).
MAX_STREAM_ID = 2**31 - 1


class FrameType(enum.IntEnum):
    """The ten frame types of RFC 7540 §6."""

    DATA = 0x0
    HEADERS = 0x1
    PRIORITY = 0x2
    RST_STREAM = 0x3
    SETTINGS = 0x4
    PUSH_PROMISE = 0x5
    PING = 0x6
    GOAWAY = 0x7
    WINDOW_UPDATE = 0x8
    CONTINUATION = 0x9


class FrameFlag(enum.IntFlag):
    """Frame flags; meaning depends on the frame type (RFC 7540 §6)."""

    NONE = 0x0
    END_STREAM = 0x1  # DATA, HEADERS
    ACK = 0x1  # SETTINGS, PING
    END_HEADERS = 0x4  # HEADERS, PUSH_PROMISE, CONTINUATION
    PADDED = 0x8  # DATA, HEADERS, PUSH_PROMISE
    PRIORITY = 0x20  # HEADERS


class ErrorCode(enum.IntEnum):
    """Error codes for RST_STREAM and GOAWAY (RFC 7540 §7)."""

    NO_ERROR = 0x0
    PROTOCOL_ERROR = 0x1
    INTERNAL_ERROR = 0x2
    FLOW_CONTROL_ERROR = 0x3
    SETTINGS_TIMEOUT = 0x4
    STREAM_CLOSED = 0x5
    FRAME_SIZE_ERROR = 0x6
    REFUSED_STREAM = 0x7
    CANCEL = 0x8
    COMPRESSION_ERROR = 0x9
    CONNECT_ERROR = 0xA
    ENHANCE_YOUR_CALM = 0xB
    INADEQUATE_SECURITY = 0xC
    HTTP_1_1_REQUIRED = 0xD


class SettingCode(enum.IntEnum):
    """SETTINGS parameter identifiers (RFC 7540 §6.5.2)."""

    HEADER_TABLE_SIZE = 0x1
    ENABLE_PUSH = 0x2
    MAX_CONCURRENT_STREAMS = 0x3
    INITIAL_WINDOW_SIZE = 0x4
    MAX_FRAME_SIZE = 0x5
    MAX_HEADER_LIST_SIZE = 0x6


#: Default values for every defined setting (RFC 7540 §6.5.2).
#: ``None`` means "initially unlimited".
SETTING_DEFAULTS: dict[SettingCode, int | None] = {
    SettingCode.HEADER_TABLE_SIZE: DEFAULT_HEADER_TABLE_SIZE,
    SettingCode.ENABLE_PUSH: 1,
    SettingCode.MAX_CONCURRENT_STREAMS: None,
    SettingCode.INITIAL_WINDOW_SIZE: DEFAULT_INITIAL_WINDOW_SIZE,
    SettingCode.MAX_FRAME_SIZE: DEFAULT_MAX_FRAME_SIZE,
    SettingCode.MAX_HEADER_LIST_SIZE: None,
}

#: Frame types permitted on stream 0 (the connection control stream).
CONNECTION_FRAME_TYPES = frozenset(
    {FrameType.SETTINGS, FrameType.PING, FrameType.GOAWAY, FrameType.WINDOW_UPDATE}
)
