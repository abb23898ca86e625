"""SETTINGS parameter book-keeping (RFC 7540 §6.5).

Each endpoint tracks two settings maps: the values *it* advertised
(``local``) and the values the *peer* advertised (``remote``).  The
paper's Section V-C measures exactly these advertised values across the
top-1M population (Tables V–VII, Fig. 2), so the bookkeeping preserves
which parameters were explicitly announced versus left at defaults —
the paper's "NULL" rows are sites whose SETTINGS omitted the item.
"""

from __future__ import annotations

from repro.h2.constants import (
    DEFAULT_MAX_FRAME_SIZE,
    MAX_ALLOWED_FRAME_SIZE,
    MAX_WINDOW_SIZE,
    SETTING_DEFAULTS,
    SettingCode,
)
from repro.h2.constants import ErrorCode
from repro.h2.errors import FlowControlError, ProtocolError


def validate_setting(identifier: int, value: int) -> None:
    """Enforce the per-parameter value constraints of §6.5.2.

    Unknown identifiers are always acceptable (they must be ignored).
    """
    # Compared as ints: ``SettingCode(identifier)`` is an enum metaclass
    # call, and this runs for every setting of every frame.
    if identifier == SettingCode.ENABLE_PUSH:
        if value not in (0, 1):
            raise ProtocolError(f"SETTINGS_ENABLE_PUSH must be 0 or 1, got {value}")
    elif identifier == SettingCode.INITIAL_WINDOW_SIZE:
        if value > MAX_WINDOW_SIZE:
            raise FlowControlError(
                f"SETTINGS_INITIAL_WINDOW_SIZE {value} exceeds 2^31-1",
                error_code=ErrorCode.FLOW_CONTROL_ERROR,
            )
    elif identifier == SettingCode.MAX_FRAME_SIZE:
        if not DEFAULT_MAX_FRAME_SIZE <= value <= MAX_ALLOWED_FRAME_SIZE:
            raise ProtocolError(
                f"SETTINGS_MAX_FRAME_SIZE {value} outside [2^14, 2^24-1]"
            )


class SettingsMap:
    """One direction's settings: explicit announcements over defaults."""

    def __init__(self, initial: dict[int, int] | None = None):
        self._explicit: dict[int, int] = {}
        if initial:
            for identifier, value in initial.items():
                self.set(identifier, value)

    def set(self, identifier: int, value: int, validate: bool = True) -> None:
        if validate:
            validate_setting(identifier, value)
        self._explicit[int(identifier)] = value

    def get(self, identifier: int) -> int | None:
        """Effective value: explicit if announced, else the RFC default."""
        explicit = self._explicit
        if identifier in explicit:
            return explicit[identifier]
        # SettingCode is an IntEnum: a plain int finds its key.
        return SETTING_DEFAULTS.get(identifier)

    def announced(self, identifier: int) -> int | None:
        """The explicitly announced value, or ``None`` (paper's "NULL")."""
        return self._explicit.get(int(identifier))

    def as_dict(self) -> dict[int, int]:
        return dict(self._explicit)

    # Convenience accessors for the six defined parameters -------------

    @property
    def header_table_size(self) -> int:
        return self.get(SettingCode.HEADER_TABLE_SIZE)  # type: ignore[return-value]

    @property
    def enable_push(self) -> bool:
        return bool(self.get(SettingCode.ENABLE_PUSH))

    @property
    def max_concurrent_streams(self) -> int | None:
        return self.get(SettingCode.MAX_CONCURRENT_STREAMS)

    @property
    def max_frame_size(self) -> int:
        # Read for every received buffer and every DATA frame sent.
        return self._explicit.get(SettingCode.MAX_FRAME_SIZE, DEFAULT_MAX_FRAME_SIZE)

    @property
    def max_header_list_size(self) -> int | None:
        return self.get(SettingCode.MAX_HEADER_LIST_SIZE)
