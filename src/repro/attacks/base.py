"""The attack contract.

Every attack in :mod:`repro.attacks` is one :class:`AttackProfile` — a
named client ``behaviour`` plus the SETTINGS it announces — driven by
:func:`repro.attacks.battery.run_attack` against a vendor engine or a
prepared :class:`~repro.servers.site.Site` on either transport backend,
and produces one :class:`AttackResult`, so the battery runner, the CLI
and the corpus builder treat all of them alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass
class AttackResult:
    """Outcome of one attack run against one server."""

    profile: str
    vendor: str
    backend: str = "sim"
    guards_enabled: bool = False
    #: Attack length the runner aimed for (seconds).
    duration: float = 0.0
    #: Whether a connection (and, where applicable, h2) was established.
    connected: bool = False
    #: Connection still open when the attack window ended.
    survived: bool = False
    #: Seconds the connection was held open, from established to
    #: eviction (or to the end of the attack window).
    held_seconds: float = 0.0
    #: The server terminated us (guard breach or native defence).
    evicted: bool = False
    #: Seconds from connection established to observed eviction.
    eviction_at: float | None = None
    #: The guard deadline the eviction was expected within (None when
    #: guards were off or no knob covers this attack).
    eviction_deadline: float | None = None
    goaway_observed: bool = False
    goaway_error: int | None = None
    goaway_debug: bytes = b""
    #: Guard breaches the server logged (empty on guards-off runs).
    guard_reasons: list[str] = field(default_factory=list)
    frames_sent: int = 0
    # -- resource peaks sampled on the server --------------------------
    peak_pinned_bytes: int = 0
    peak_stream_states: int = 0
    #: Encoder + decoder dynamic tables; the two that follow split it
    #: (the peer sizes the encoder's limit, the server its decoder's).
    peak_hpack_bytes: int = 0
    peak_hpack_encoder_bytes: int = 0
    peak_hpack_decoder_bytes: int = 0
    peak_assembly_bytes: int = 0
    peak_priority_nodes: int = 0
    peak_priority_depth: int = 0
    #: Priority-tree mutations the server performed (monotone, so the
    #: peak is the total).
    peak_priority_operations: int = 0
    #: (elapsed_seconds, {metric: value}) for every beat of the run;
    #: the metrics are the ``peak_*`` fields' names without the prefix.
    samples: list[tuple[float, dict[str, int]]] = field(default_factory=list)
    #: Server-side :class:`~repro.scope.trace.ConnectionTimeline`s when
    #: the run recorded frames (corpus building); never serialized.
    timelines: list = field(default_factory=list)

    def row(self) -> dict:
        """JSON-able summary row (deterministic in the seed on sim)."""
        return {
            "profile": self.profile,
            "vendor": self.vendor,
            "backend": self.backend,
            "guards": self.guards_enabled,
            "connected": self.connected,
            "survived": self.survived,
            "held_seconds": round(self.held_seconds, 4),
            "evicted": self.evicted,
            "eviction_at": (
                None if self.eviction_at is None else round(self.eviction_at, 4)
            ),
            "eviction_deadline": self.eviction_deadline,
            "goaway": self.goaway_observed,
            "goaway_error": self.goaway_error,
            "goaway_debug": self.goaway_debug.decode("latin-1"),
            "guard_reasons": list(self.guard_reasons),
            "frames_sent": self.frames_sent,
            "peak_pinned_bytes": self.peak_pinned_bytes,
            "peak_stream_states": self.peak_stream_states,
            "peak_hpack_bytes": self.peak_hpack_bytes,
            "peak_assembly_bytes": self.peak_assembly_bytes,
            "peak_hpack_encoder_bytes": self.peak_hpack_encoder_bytes,
            "peak_hpack_decoder_bytes": self.peak_hpack_decoder_bytes,
            "peak_priority_nodes": self.peak_priority_nodes,
            "peak_priority_depth": self.peak_priority_depth,
            "peak_priority_operations": self.peak_priority_operations,
        }


@dataclass(frozen=True)
class AttackProfile:
    """One attack as a named, runnable client behaviour."""

    name: str
    summary: str
    #: ``"slow-rate"`` (hold a connection open), ``"flood"`` (rate
    #: abuse) or ``"resource"`` (the §VI memory/CPU surfaces).
    kind: str
    #: Drives an ``AttackRun`` (see the battery module).
    behaviour: Callable
    #: SETTINGS the attacking client announces.
    client_settings: dict[int, int] = field(default_factory=dict)
    auto_window_update: bool = False
    #: The engine guard knob expected to evict this attack, for the
    #: survival matrix's deadline column (None = no knob covers it).
    guard_knob: str | None = None
