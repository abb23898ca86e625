"""Flow-control window arithmetic (RFC 7540 §5.2, §6.9).

A :class:`FlowControlWindow` tracks one direction of one scope (a
stream, or the whole connection).  The rules it encodes are the ones
H2Scope's flow-control probes exercise:

* only DATA frames consume window (§6.9);
* a window may become *negative* when SETTINGS_INITIAL_WINDOW_SIZE
  shrinks mid-stream (§6.9.2);
* an increment that pushes the window past 2^31-1 is an error (§6.9.1)
  — the "large window update" probe;
* a zero increment is a PROTOCOL_ERROR on receipt (§6.9) — the "zero
  window update" probe.  Detection is the caller's policy decision, so
  this class merely reports it.
"""

from __future__ import annotations

from repro.h2.constants import DEFAULT_INITIAL_WINDOW_SIZE, MAX_WINDOW_SIZE
from repro.h2.errors import FlowControlError


class FlowControlWindow:
    """One flow-control window with overflow and underflow detection."""

    def __init__(self, initial: int = DEFAULT_INITIAL_WINDOW_SIZE):
        if initial > MAX_WINDOW_SIZE:
            raise FlowControlError(f"initial window {initial} exceeds 2^31-1")
        self._value = initial

    def __repr__(self) -> str:
        return f"FlowControlWindow({self._value})"

    @property
    def value(self) -> int:
        """Current window; may legally be negative (§6.9.2)."""
        return self._value

    @property
    def available(self) -> int:
        """Octets that may be sent right now (never negative)."""
        return max(0, self._value)

    def consume(self, octets: int) -> None:
        """Account for a sent/received DATA frame of ``octets`` length.

        Raises :class:`FlowControlError` if the frame does not fit —
        which on the receive side means the *peer* violated our window.
        """
        if octets < 0:
            raise ValueError("cannot consume a negative number of octets")
        if octets > self._value:
            raise FlowControlError(
                f"flow-control window violated: {octets} > {self._value}"
            )
        self._value -= octets

    def expand(self, increment: int) -> None:
        """Apply a WINDOW_UPDATE increment.

        Raises :class:`FlowControlError` on overflow past 2^31-1; the
        caller maps that to RST_STREAM or GOAWAY per the affected scope.
        A zero increment is accepted here (it is representable); callers
        that want the RFC reaction check ``increment == 0`` themselves.
        """
        if increment < 0:
            raise ValueError("window increment cannot be negative")
        if self._value + increment > MAX_WINDOW_SIZE:
            raise FlowControlError(
                f"window overflow: {self._value} + {increment} > 2^31-1"
            )
        self._value += increment

    def adjust_initial(self, delta: int) -> None:
        """Retroactively apply a change to SETTINGS_INITIAL_WINDOW_SIZE.

        §6.9.2: all stream windows shift by the difference between the
        new and old setting; the result may be negative but must not
        exceed 2^31-1.
        """
        if self._value + delta > MAX_WINDOW_SIZE:
            raise FlowControlError("initial window adjustment overflows 2^31-1")
        self._value += delta
