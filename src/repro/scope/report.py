"""Typed probe results and the per-site report.

Verdict vocabularies match the paper's result categories so the
analysis layer can build Tables III–VII and the Section V-D/E counters
directly from these objects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ErrorClass(enum.Enum):
    """Failure taxonomy for scan errors (§IV-B scan bookkeeping).

    ``TRANSIENT`` failures (refused/reset connections) are worth
    retrying; ``TIMEOUT`` means the per-probe virtual-time budget ran
    out (stalled or blackholed peer); ``DNS`` means the target never
    resolved to an address (dead domain, NXDOMAIN, empty answer) — the
    live campaign quarantines these up front instead of spending
    connect/retry budget on them; ``FATAL`` covers everything a retry
    cannot fix (TLS corruption, protocol violations, bugs).
    """

    TRANSIENT = "transient"
    TIMEOUT = "timeout"
    DNS = "dns"
    FATAL = "fatal"


@dataclass
class ScanError:
    """One probe's final failure record, after any retries."""

    probe: str = ""
    error_class: ErrorClass = ErrorClass.FATAL
    exception: str = ""
    message: str = ""
    attempts: int = 1

    def __str__(self) -> str:
        return (
            f"{self.probe}: {self.exception}: {self.message} "
            f"[{self.error_class.value}, attempts={self.attempts}]"
        )


class ErrorReaction(enum.Enum):
    """How a server reacted to a provoked anomaly (Table III cells)."""

    RST_STREAM = "RST_STREAM"
    GOAWAY = "GOAWAY"
    IGNORE = "ignore"
    NO_RESPONSE = "no response"


class TinyWindowResult(enum.Enum):
    """§V-D1 categories for the Sframe=1 probe."""

    WINDOW_SIZED_DATA = "window-sized DATA"
    ZERO_LENGTH_DATA = "zero-length DATA"
    NO_RESPONSE = "no response"


@dataclass
class NegotiationResult:
    """§IV-A / §V-B: how (and whether) HTTP/2 was negotiated."""

    tcp_connected: bool = False
    alpn_h2: bool = False
    npn_h2: bool = False
    headers_received: bool = False
    server_header: str | None = None
    tcp_handshake_rtt: float | None = None


@dataclass
class SettingsResult:
    """§V-C: the server's announced SETTINGS.

    ``announced`` preserves exactly what was in the SETTINGS frame;
    parameters missing there are the paper's "unlimited"/default rows,
    and ``settings_frame_received=False`` is the paper's NULL row.
    """

    settings_frame_received: bool = False
    announced: dict[int, int] = field(default_factory=dict)


@dataclass
class FlowControlResult:
    """§III-B / §V-D: the four flow-control probes."""

    #: Sframe probe: category plus the observed first-DATA size.
    tiny_window: TinyWindowResult | None = None
    first_data_size: int | None = None
    #: Zero-initial-window probe: HEADERS with no DATA is compliant.
    headers_with_zero_window: bool | None = None
    #: Zero WINDOW_UPDATE reactions.
    zero_update_stream: ErrorReaction | None = None
    zero_update_connection: ErrorReaction | None = None
    zero_update_debug_data: bytes = b""
    #: Overflowing WINDOW_UPDATE reactions.
    large_update_stream: ErrorReaction | None = None
    large_update_connection: ErrorReaction | None = None


#: Algorithm 1's stream labels, as in the paper's example (Table I /
#: Fig. 1).
LABELS = ["A", "B", "C", "D", "E", "F"]


def _follows_rules(order: list[str]) -> bool:
    """§V-E1's expected-order rules for Algorithm 1's final tree.

    D before every other stream; A before everything except D; C before
    E.  Streams that never produced DATA fail the check.
    """
    position = {label: index for index, label in enumerate(order)}
    if set(position) != set(LABELS):
        return False
    if any(position["D"] > position[x] for x in LABELS if x != "D"):
        return False
    if any(position["A"] > position[x] for x in LABELS if x not in ("A", "D")):
        return False
    return position["C"] < position["E"]


@dataclass
class PriorityResult:
    """§III-C / §V-E: Algorithm 1 outcome and self-dependency.

    The rule checks are properties of the stored orders, not stored."""

    #: Orderings observed (stream label order by first/last DATA frame).
    first_frame_order: list[str] = field(default_factory=list)
    last_frame_order: list[str] = field(default_factory=list)
    #: Whether two streams' DATA interleaved after the release (Table
    #: III's Request Multiplexing row, §III-A1).
    interleaved: bool = False
    #: Whether HEADERS arrived while the connection window was zero
    #: (§III-C1 notes some servers withhold even HEADERS).
    headers_while_blocked: bool | None = None
    self_dependency: ErrorReaction | None = None

    @property
    def follows_rules_by_first(self) -> bool:
        return _follows_rules(self.first_frame_order)

    @property
    def follows_rules_by_last(self) -> bool:
        return _follows_rules(self.last_frame_order)

    @property
    def follows_rules_by_both(self) -> bool:
        return self.follows_rules_by_first and self.follows_rules_by_last

    @property
    def passes_algorithm1(self) -> bool:
        """Table III's row: the rules hold by last DATA frame."""
        return self.follows_rules_by_last


@dataclass
class PushResult:
    """§III-D / §V-F."""

    push_received: bool = False
    promised_paths: list[str] = field(default_factory=list)


#: Requests whose header blocks Eq. 1 compares (H).
REPETITIONS = 8


@dataclass
class HpackResult:
    """§III-E / §V-G: the header-block sizes of H responses."""

    header_sizes: list[int] = field(default_factory=list)

    @property
    def ratio(self) -> float | None:
        """Eq. 1, r = sum(S_i) / (S_1 * H); None unless all H sizes were
        read and S_1 is positive."""
        sizes = self.header_sizes
        if len(sizes) != REPETITIONS or sizes[0] <= 0:
            return None
        return sum(sizes) / (sizes[0] * REPETITIONS)


@dataclass
class PingResult:
    """§III-F / §V-H: RTT by the four estimators."""

    h2_ping_rtt: float | None = None
    tcp_rtt: float | None = None
    icmp_rtt: float | None = None
    http1_rtt: float | None = None
    ping_supported: bool = False


@dataclass
class SiteReport:
    """Everything H2Scope learned about one site."""

    domain: str = ""
    negotiation: NegotiationResult = field(default_factory=NegotiationResult)
    settings: SettingsResult = field(default_factory=SettingsResult)
    flow_control: FlowControlResult = field(default_factory=FlowControlResult)
    priority: PriorityResult = field(default_factory=PriorityResult)
    push: PushResult = field(default_factory=PushResult)
    hpack: HpackResult = field(default_factory=HpackResult)
    ping: PingResult = field(default_factory=PingResult)
    errors: list[ScanError] = field(default_factory=list)
    #: Attempts each probe needed (only recorded by resilient scans);
    #: a value above 1 means transient failures were retried away.
    probe_attempts: dict[str, int] = field(default_factory=dict)
    #: Virtual seconds this site's scan consumed in its simulation
    #: universe (deterministic; feeds the campaign progress ETA).
    scan_virtual_time: float = 0.0

    @property
    def speaks_h2(self) -> bool:
        return self.negotiation.alpn_h2 or self.negotiation.npn_h2

    def fresh(self, section: str):
        """Put an empty result in ``section`` and return it (DESIGN §8)."""
        result = type(getattr(self, section))()
        setattr(self, section, result)
        return result

    @property
    def failed(self) -> bool:
        return bool(self.errors)

    @property
    def retried(self) -> bool:
        return any(count > 1 for count in self.probe_attempts.values())


@dataclass
class ErrorTaxonomy:
    """Scan-wide failure accounting (the paper's Table II-style
    'sites scanned vs sites answering' fractions, refined by class)."""

    total_sites: int = 0
    failed_sites: int = 0
    retried_sites: int = 0
    total_errors: int = 0
    by_class: dict[str, int] = field(default_factory=dict)
    by_exception: dict[str, int] = field(default_factory=dict)
    by_probe: dict[str, int] = field(default_factory=dict)

    @property
    def failure_fraction(self) -> float:
        if not self.total_sites:
            return 0.0
        return self.failed_sites / self.total_sites

    @property
    def retry_fraction(self) -> float:
        if not self.total_sites:
            return 0.0
        return self.retried_sites / self.total_sites


def summarize_errors(reports: list["SiteReport"]) -> ErrorTaxonomy:
    """Aggregate the error taxonomy across one scan's reports."""
    taxonomy = ErrorTaxonomy(total_sites=len(reports))
    for report in reports:
        if report.failed:
            taxonomy.failed_sites += 1
        if report.retried:
            taxonomy.retried_sites += 1
        for error in report.errors:
            taxonomy.total_errors += 1
            class_key = error.error_class.value
            exception_key = error.exception or "unknown"
            probe_key = error.probe or "unknown"
            taxonomy.by_class[class_key] = taxonomy.by_class.get(class_key, 0) + 1
            taxonomy.by_exception[exception_key] = (
                taxonomy.by_exception.get(exception_key, 0) + 1
            )
            taxonomy.by_probe[probe_key] = taxonomy.by_probe.get(probe_key, 0) + 1
    return taxonomy


def format_error_taxonomy(taxonomy: ErrorTaxonomy) -> str:
    """Render the taxonomy as the EXPERIMENTS-style text block."""
    lines = [
        "Scan resilience summary",
        f"  sites scanned           {taxonomy.total_sites}",
        f"  sites with errors       {taxonomy.failed_sites}"
        f"  ({taxonomy.failure_fraction:.1%})",
        f"  sites needing retries   {taxonomy.retried_sites}"
        f"  ({taxonomy.retry_fraction:.1%})",
        f"  error records           {taxonomy.total_errors}",
    ]
    for title, counts in (
        ("by class", taxonomy.by_class),
        ("by exception", taxonomy.by_exception),
        ("by probe", taxonomy.by_probe),
    ):
        if not counts:
            continue
        lines.append(f"  errors {title}:")
        for key, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"    {key:<22} {count}")
    return "\n".join(lines)
