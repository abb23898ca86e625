"""Server behaviour profiles.

A :class:`ServerProfile` is the complete behavioural parameterisation
of the generic engine in :mod:`repro.servers.engine`.  Every knob maps
to a row of the paper's Table III or an observation from Section V; the
defaults are the RFC-compliant behaviours.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace

from repro.h2.connection import Reaction
from repro.h2.constants import SettingCode
from repro.h2.hpack.encoder import IndexingPolicy


@dataclass(frozen=True, slots=True)
class AbuseGuards:
    """Connection-robustness countermeasures (the slow-HTTP/2 defences).

    Every knob is off (``None``) by default: the 2016 servers the paper
    measured held attack connections forever, and the battery's
    guards-off runs must reproduce that exposure byte-for-byte.  When a
    knob is enabled the engine enforces it and, on breach, sends one
    terminal GOAWAY(ENHANCE_YOUR_CALM) and closes the connection.  The
    preface, header and rate knobs are thresholds of
    :mod:`repro.h2.abuse`, the rule core the detector replays too; its
    rate limits count in a sliding window.

    Timers are only scheduled for enabled knobs, so an all-default
    guard config leaves the engine's event schedule — and therefore
    every pinned determinism hash — untouched.
    """

    #: Seconds from accept to a complete h2 preface (or, on a cleartext
    #: connection, a complete HTTP/1.1 request).  Defeats slow-preface.
    preface_timeout: float | None = None
    #: Seconds a HEADERS→CONTINUATION assembly may stay open.  Defeats
    #: the slow-HEADERS (CONTINUATION trickle) drip.
    header_timeout: float | None = None
    #: Seconds without any inbound bytes before the connection is
    #: evicted.  Defeats silent connection squatting.
    idle_timeout: float | None = None
    #: Seconds a queued response may sit without the peer's windows
    #: letting any byte out.  Defeats the zero-window read stall.
    stall_timeout: float | None = None
    #: Maximum non-ack PINGs in any sliding :attr:`rate_window`.
    ping_rate_limit: int | None = None
    #: Maximum non-ack SETTINGS in any sliding :attr:`rate_window`.
    settings_rate_limit: int | None = None
    #: Maximum RST_STREAMs (rapid-reset churn) in any sliding :attr:`rate_window`.
    rst_rate_limit: int | None = None
    #: Width of the sliding rate-limit windows, seconds.
    rate_window: float = 1.0

    @property
    def any_enabled(self) -> bool:
        return any(getattr(self, knob) is not None for knob in _GUARD_KNOBS)

    def clone(self, **overrides) -> "AbuseGuards":
        return replace(self, **overrides)

    def scaled(self, factor: float) -> "AbuseGuards":
        """Shrink every deadline, the rate window and the rate limits
        (to no fewer than 3) by ``factor``.

        Loopback battery runs pay wall-clock seconds per deadline; the
        scaled copy keeps the per-vendor *shape* while the test stays
        fast.
        """

        def _scale(name: str, value: float | None) -> float | None:
            if value is None:
                return None
            if name.endswith("_limit"):
                return max(3, int(value * factor))
            return value * factor

        return replace(
            self,
            **{k.name: _scale(k.name, getattr(self, k.name)) for k in fields(self)},
        )


#: Every :class:`AbuseGuards` knob that switches a guard on (all fields but
#: the window width), read once here rather than on every connection.
_GUARD_KNOBS = tuple(
    knob.name for knob in fields(AbuseGuards) if knob.name != "rate_window"
)


class TinyWindowBehavior(enum.Enum):
    """What the server does when a stream's send window is very small.

    §V-D1: with SETTINGS_INITIAL_WINDOW_SIZE = 1, most sites returned
    1-byte DATA frames (RFC-compliant), some returned zero-length DATA
    frames, and some (mostly LiteSpeed) sent nothing at all.
    """

    #: RFC behaviour: send DATA frames exactly as large as the window.
    SEND_WINDOW_SIZED = "send-window-sized"
    #: Send a zero-length DATA frame, then wait for window updates.
    SEND_EMPTY = "send-empty"
    #: Send nothing until a reasonable window is available.
    SILENT = "silent"


@dataclass(slots=True)
class ServerProfile:
    """Behavioural configuration of one simulated HTTP/2 server."""

    name: str = "generic"
    #: The Server response-header value (Table IV's classification key —
    #: the paper notes it is self-reported and spoofable).
    server_header: str = "generic/1.0"

    # -- TLS negotiation (§IV-A, Table III rows ALPN/NPN) -----------------
    supports_alpn: bool = True
    supports_npn: bool = True
    #: Cleartext HTTP/1.1 "Upgrade: h2c" support (§IV-A's unencrypted
    #: path; RFC 7540 §3.2).  Off by default — the paper scans over TLS.
    supports_h2c: bool = False

    # -- announced SETTINGS (§V-C, Tables V-VII, Fig. 2) ------------------
    #: Explicitly announced SETTINGS; parameters omitted here are not
    #: sent (the paper's "NULL" rows).
    settings: dict[int, int] = field(
        default_factory=lambda: {
            int(SettingCode.MAX_CONCURRENT_STREAMS): 128,
            int(SettingCode.INITIAL_WINDOW_SIZE): 65_536,
            int(SettingCode.MAX_FRAME_SIZE): 16_384,
        }
    )
    #: Nginx-style quirk (§V-C): announce INITIAL_WINDOW_SIZE = 0 in
    #: SETTINGS and immediately grant windows via WINDOW_UPDATE frames.
    announce_zero_then_window_update: bool = False
    #: §V-C NULL rows: ~1,000 sites never send a SETTINGS frame at all
    #: (identical NULL counts across Tables V-VII).
    send_settings_frame: bool = True
    #: §V-B: thousands of sites negotiate h2 via ALPN/NPN but never
    #: return HEADERS (the gap between negotiation and HEADERS counts).
    h2_unresponsive: bool = False

    # -- flow control (Table III, §V-D) ------------------------------------
    #: LiteSpeed quirk: apply flow control to HEADERS frames too, i.e.
    #: hold response HEADERS while the stream/connection window is zero.
    flow_control_on_headers: bool = False
    #: Window below which such a server withholds HEADERS.  1 holds
    #: HEADERS only at a zero window (the common misbehaviour §V-D2
    #: measures); LiteSpeed's stronger variant (16) refuses to respond
    #: even at Sframe=1, producing §V-D1's "no response" bucket.
    headers_hold_threshold: int = 1
    #: Reaction to WINDOW_UPDATE with zero increment.
    on_zero_window_update_stream: Reaction = Reaction.RST_STREAM
    on_zero_window_update_connection: Reaction = Reaction.GOAWAY
    #: Debug data attached to the GOAWAY for zero window updates (a few
    #: dozen sites return explanatory text, §V-D3).
    zero_window_update_debug: bytes = b""
    #: Reaction to a window-overflowing WINDOW_UPDATE.
    on_window_overflow_stream: Reaction = Reaction.RST_STREAM
    on_window_overflow_connection: Reaction = Reaction.GOAWAY
    #: Behaviour when the stream window is tiny (§V-D1).
    tiny_window_behavior: TinyWindowBehavior = TinyWindowBehavior.SEND_WINDOW_SIZED
    #: Defence proposed in the paper's Discussion: refuse clients whose
    #: SETTINGS_INITIAL_WINDOW_SIZE is below this bound (0 = accept
    #: anything, the behaviour of every server the paper measured).
    #: Mitigates the slow-read DoS of §V-D1 / §VI.
    min_accepted_initial_window: int = 0
    #: Defence for the HPACK table-flooding DoS (§VI): cap the encoder
    #: table size adopted from the peer's SETTINGS_HEADER_TABLE_SIZE.
    max_peer_header_table_size: int | None = None

    # -- priority (Table III, §V-E) -----------------------------------------
    #: DATA scheduler flavour:
    #:
    #: * ``"strict"`` — weighted fair sharing with ancestor shadowing
    #:   (H2O/nghttpd/Apache); passes Algorithm 1 by both the first- and
    #:   last-DATA-frame rules;
    #: * ``"wfq"``   — weighted sharing *without* shadowing (parent-
    #:   biased); completion order follows the tree but every stream
    #:   starts immediately, so only the last-frame rule passes — the
    #:   §V-E1 population where 1,147 sites pass by last frame but only
    #:   46 by first frame;
    #: * ``"fcfs"``  — round-robin in request order, priorities ignored
    #:   (Nginx/LiteSpeed/Tengine); fails Algorithm 1.
    scheduler_mode: str = "strict"
    #: Reaction to a self-dependent stream (RFC: RST_STREAM).
    on_self_dependency: Reaction = Reaction.RST_STREAM
    #: Bound on tracked priority-tree nodes (anti-churn defence, §VI).
    max_tracked_priority_streams: int = 1000

    # -- push (Table III, §V-F) ----------------------------------------------
    supports_push: bool = True
    #: Push-manifest policy.  ``"static"`` pushes each resource's
    #: configured list — the only mode real 2016 servers offered (§VI:
    #: "existing HTTP/2 servers only allow users to statically list
    #: which resources will be pushed").  ``"learned"`` implements the
    #: paper's suggested extension: the server observes which resources
    #: clients request after each page and pushes the most likely
    #: followers on later visits.
    push_policy: str = "static"

    # -- HPACK (Table III, §V-G) ----------------------------------------------
    #: Nginx/Tengine quirk: response header fields are not added to the
    #: dynamic table, so repeated responses never shrink (ratio r ~ 1).
    hpack_index_responses: bool = True
    #: §V-G: a few sites insert a fresh cookie into every response,
    #: making later header blocks *larger* than the first (r > 1); the
    #: paper filters those out of Figs. 4-5.
    new_cookie_each_response: bool = False
    #: Probability that a response carries a unique (unindexable)
    #: header value (request ids, rotating tokens).  Spreads the HPACK
    #: ratio CDF between the perfect ~1/H and the ratio-1 extremes, as
    #: the population in Figs. 4-5 spreads.
    response_header_noise: float = 0.0

    # -- robustness countermeasures (ISSUE 7) -----------------------------------
    #: Abuse-guard configuration.  All-off by default: the measured
    #: 2016 deployments had none of these, and the guards-off engine
    #: must stay byte-identical to the pre-guard behaviour.  Per-vendor
    #: hardened defaults live in :data:`repro.servers.vendors.DEFAULT_GUARDS`.
    #: The default is one shared all-off value; guards are immutable.
    guards: AbuseGuards = AbuseGuards()

    # -- timing -------------------------------------------------------------------
    #: Mean per-request application processing delay in seconds.  This
    #: is what makes HTTP/1.1-request RTT estimates exceed PING/TCP/ICMP
    #: estimates in Fig. 6.
    processing_delay: float = 0.012
    processing_jitter: float = 0.006

    def clone(self, **overrides) -> "ServerProfile":
        """A copy with some fields replaced (used by the population)."""
        return replace(self, **overrides)

    @property
    def indexing_policy(self) -> IndexingPolicy:
        return (
            IndexingPolicy.INDEX
            if self.hpack_index_responses
            else IndexingPolicy.NO_INDEX
        )
