"""Table III — characterizing the six servers in the testbed.

Installs each vendor profile on a testbed host with large objects
(§III-A1's requirement) and runs the full probe suite, then renders the
resulting feature matrix next to the paper's published cells.  The
``mismatches`` entry in the result data lists any cell where the
reproduction deviates from the paper; it should be empty.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.scope.probes import (
    probe_hpack,
    probe_large_window_update,
    probe_multiplexing,
    probe_negotiation,
    probe_ping,
    probe_priority,
    probe_push,
    probe_self_dependency,
    probe_tiny_window,
    probe_zero_window_headers,
    probe_zero_window_update,
)
from repro.scope.report import ErrorReaction, TinyWindowResult
from repro.scope.session import ProbeSession
from repro.servers.site import Site, deploy_testbed
from repro.servers.vendors import VENDOR_FACTORIES
from repro.servers.website import testbed_website
from repro.experiments.common import ExperimentResult

VENDORS = ["nginx", "litespeed", "h2o", "nghttpd", "tengine", "apache"]

ROWS = [
    "ALPN",
    "NPN",
    "Request Multiplexing",
    "Flow Control on DATA Frames",
    "Flow Control on HEADERS Frames",
    "Zero Window Update on stream",
    "Zero Window Update on connection",
    "Large Window Update (Connection)",
    "Large Window Update (Stream)",
    "Server Push",
    "Priority Mechanism Testing (Algorithm 1)",
    "Self-dependent Stream",
    "Header Compression",
    "HTTP/2 PING",
]

#: Table III as published (cells transcribed verbatim).
PAPER_TABLE3: dict[str, dict[str, str]] = {
    "ALPN": dict.fromkeys(VENDORS, "support"),
    "NPN": {**dict.fromkeys(VENDORS, "support"), "apache": "no support"},
    "Request Multiplexing": dict.fromkeys(VENDORS, "support"),
    "Flow Control on DATA Frames": dict.fromkeys(VENDORS, "yes"),
    "Flow Control on HEADERS Frames": {
        **dict.fromkeys(VENDORS, "no"),
        "litespeed": "yes",
    },
    "Zero Window Update on stream": {
        "nginx": "ignore",
        "litespeed": "RST_STREAM",
        "h2o": "RST_STREAM",
        "nghttpd": "GOAWAY",
        "tengine": "ignore",
        "apache": "GOAWAY",
    },
    "Zero Window Update on connection": {
        "nginx": "ignore",
        "litespeed": "GOAWAY",
        "h2o": "GOAWAY",
        "nghttpd": "GOAWAY",
        "tengine": "ignore",
        "apache": "GOAWAY",
    },
    "Large Window Update (Connection)": dict.fromkeys(VENDORS, "GOAWAY"),
    "Large Window Update (Stream)": dict.fromkeys(VENDORS, "RST_STREAM"),
    "Server Push": {
        "nginx": "no",
        "litespeed": "no",
        "h2o": "yes",
        "nghttpd": "yes",
        "tengine": "no",
        "apache": "yes",
    },
    "Priority Mechanism Testing (Algorithm 1)": {
        "nginx": "fail",
        "litespeed": "fail",
        "h2o": "pass",
        "nghttpd": "pass",
        "tengine": "fail",
        "apache": "pass",
    },
    "Self-dependent Stream": {
        "nginx": "RST_STREAM",
        "litespeed": "ignore",
        "h2o": "GOAWAY",
        "nghttpd": "GOAWAY",
        "tengine": "RST_STREAM",
        "apache": "GOAWAY",
    },
    "Header Compression": {
        "nginx": "support*",
        "litespeed": "support",
        "h2o": "support",
        "nghttpd": "support",
        "tengine": "support*",
        "apache": "support",
    },
    "HTTP/2 PING": dict.fromkeys(VENDORS, "support"),
}

#: Table III's final column: what RFC 7540 itself specifies per row.
RFC_COLUMN: dict[str, str] = {
    "ALPN": "support",
    "NPN": "does not require",
    "Request Multiplexing": "support",
    "Flow Control on DATA Frames": "yes",
    "Flow Control on HEADERS Frames": "no",
    "Zero Window Update on stream": "RST_STREAM",
    "Zero Window Update on connection": "GOAWAY",
    "Large Window Update (Connection)": "GOAWAY",
    "Large Window Update (Stream)": "RST_STREAM",
    "Server Push": "yes",
    "Priority Mechanism Testing (Algorithm 1)": "pass",
    "Self-dependent Stream": "RST_STREAM",
    "Header Compression": "support",
    "HTTP/2 PING": "support",
}

#: Rows where the RFC mandates a behaviour (used for conformance
#: scoring; "does not require" rows are excluded).
RFC_SCORED_ROWS = [row for row, spec in RFC_COLUMN.items() if spec != "does not require"]


def conformance_score(cells: dict[str, str]) -> tuple[int, int]:
    """(compliant rows, scored rows) against the RFC column.

    ``support*`` (partial header compression) counts as non-compliant:
    the implementation works but defeats the feature's purpose, which
    is the paper's reading too.
    """
    compliant = sum(
        1 for row in RFC_SCORED_ROWS if cells.get(row) == RFC_COLUMN[row]
    )
    return compliant, len(RFC_SCORED_ROWS)


#: Sframe used for the DATA-frame flow-control check.  Larger than
#: LiteSpeed's HEADERS-hold threshold so every vendor responds (the
#: population experiment separately probes Sframe=1, §V-D1).
TESTBED_SFRAME = 64


def characterize_vendor(vendor: str, seed: int = 0) -> dict[str, str]:
    """Run every Table III probe against one vendor's testbed deployment."""
    with deploy_testbed(vendor, seed) as (backend, site):
        return matrix_cells(ProbeSession(backend), site.domain)


def matrix_cells(session: ProbeSession, domain: str) -> dict[str, str]:
    """The Table III feature-matrix column for one target.

    Backend-agnostic: the session's backend decides whether the cells
    come from the simulated testbed or from a real server — the socket-
    backend differential test compares the two verdict-for-verdict.
    The target must serve the testbed object layout (``/large/*.bin``,
    ``/medium/*.bin``); cells degrade to "no response" otherwise.
    """
    cells: dict[str, str] = {}

    negotiation = probe_negotiation(session, domain)
    cells["ALPN"] = "support" if negotiation.alpn_h2 else "no support"
    cells["NPN"] = "support" if negotiation.npn_h2 else "no support"

    multiplexing = probe_multiplexing(
        session, domain, [f"/large/{i}.bin" for i in range(4)]
    )
    cells["Request Multiplexing"] = (
        "support" if multiplexing.interleaved else "no support"
    )

    tiny, first_size, _ = probe_tiny_window(
        session, domain, sframe=TESTBED_SFRAME, path="/large/1.bin"
    )
    cells["Flow Control on DATA Frames"] = (
        "yes"
        if tiny is TinyWindowResult.WINDOW_SIZED_DATA and first_size == TESTBED_SFRAME
        else "no"
    )

    headers_ok = probe_zero_window_headers(session, domain, path="/large/2.bin")
    cells["Flow Control on HEADERS Frames"] = "no" if headers_ok else "yes"

    reaction, _ = probe_zero_window_update(
        session, domain, level="stream", path="/large/3.bin"
    )
    cells["Zero Window Update on stream"] = _reaction_cell(reaction)
    reaction, _ = probe_zero_window_update(
        session, domain, level="connection", path="/large/3.bin"
    )
    cells["Zero Window Update on connection"] = _reaction_cell(reaction)

    reaction = probe_large_window_update(
        session, domain, level="connection", path="/large/4.bin"
    )
    cells["Large Window Update (Connection)"] = _reaction_cell(reaction)
    reaction = probe_large_window_update(
        session, domain, level="stream", path="/large/4.bin"
    )
    cells["Large Window Update (Stream)"] = _reaction_cell(reaction)

    push = probe_push(session, domain)
    cells["Server Push"] = "yes" if push.push_received else "no"

    priority = probe_priority(
        session,
        domain,
        test_paths=[f"/large/{i}.bin" for i in range(6)],
        depletion_paths=[f"/medium/{i}.bin" for i in range(4)],
    )
    cells["Priority Mechanism Testing (Algorithm 1)"] = (
        "pass" if priority.passes_algorithm1 else "fail"
    )

    selfdep = probe_self_dependency(session, domain, path="/large/5.bin")
    cells["Self-dependent Stream"] = _reaction_cell(selfdep)

    hpack = probe_hpack(session, domain, path="/")
    if hpack.ratio is None:
        cells["Header Compression"] = "no support"
    elif hpack.ratio >= 0.95:
        cells["Header Compression"] = "support*"
    else:
        cells["Header Compression"] = "support"

    ping = probe_ping(session, domain, samples=1)
    cells["HTTP/2 PING"] = "support" if ping.ping_supported else "no support"
    return cells


def _reaction_cell(reaction: ErrorReaction | None) -> str:
    if reaction is None:
        return "no response"
    return {
        ErrorReaction.RST_STREAM: "RST_STREAM",
        ErrorReaction.GOAWAY: "GOAWAY",
        ErrorReaction.IGNORE: "ignore",
        ErrorReaction.NO_RESPONSE: "no response",
    }[reaction]


def characterize_vendor_socket(
    vendor: str, bridge, timeout_scale: float = 0.15
) -> dict[str, str]:
    """Table III column for one vendor probed over real loopback sockets.

    ``bridge`` is a :class:`~repro.servers.loopback.LoopbackBridge`
    already serving ``{vendor}.testbed``.  Runs the same
    :func:`matrix_cells` suite as the simulated path, just over a
    :class:`~repro.net.socket_backend.SocketBackend` with wall-clock
    deadlines (``timeout_scale`` shrinks the simulation-tuned probe
    timeouts to loopback-appropriate waits).
    """
    from repro.net.socket_backend import SocketBackend

    backend = SocketBackend(
        resolver=bridge.resolver(), timeout_scale=timeout_scale
    )
    try:
        return matrix_cells(ProbeSession(backend), f"{vendor}.testbed")
    finally:
        backend.close()


def _measure_socket(seed: int, timeout_scale: float) -> dict[str, dict[str, str]]:
    """Serve all six vendors on a loopback bridge and probe them."""
    from repro.servers.loopback import LoopbackBridge

    with LoopbackBridge(seed=seed) as bridge:
        for vendor in VENDORS:
            bridge.serve(
                Site(
                    domain=f"{vendor}.testbed",
                    profile=VENDOR_FACTORIES[vendor](),
                    website=testbed_website(),
                )
            )
        return {
            vendor: characterize_vendor_socket(
                vendor, bridge, timeout_scale=timeout_scale
            )
            for vendor in VENDORS
        }


def run(
    seed: int = 0, backend: str = "sim", timeout_scale: float = 0.15
) -> ExperimentResult:
    """Reproduce Table III and diff it against the paper.

    ``backend="socket"`` runs the probes over real loopback TCP sockets
    (each vendor engine served by :class:`~repro.servers.loopback.
    LoopbackBridge`) instead of inside the simulator; the cells must
    come out identical either way.
    """
    if backend == "socket":
        measured = _measure_socket(seed, timeout_scale)
    elif backend == "sim":
        measured = {
            vendor: characterize_vendor(vendor, seed=seed) for vendor in VENDORS
        }
    else:
        raise ValueError(f"unknown backend {backend!r} (expected sim or socket)")

    rows = []
    mismatches: list[tuple[str, str, str, str]] = []
    for row in ROWS:
        cells = []
        for vendor in VENDORS:
            got = measured[vendor][row]
            expected = PAPER_TABLE3[row][vendor]
            if got != expected:
                mismatches.append((row, vendor, expected, got))
                cells.append(f"{got} (!= {expected})")
            else:
                cells.append(got)
        rows.append([row] + cells + [RFC_COLUMN[row]])

    scores = {vendor: conformance_score(measured[vendor]) for vendor in VENDORS}
    rows.append(
        ["RFC 7540 conformance (scored rows)"]
        + [f"{scores[v][0]}/{scores[v][1]}" for v in VENDORS]
        + ["—"]
    )

    text = format_table(
        ["Feature"] + [v.capitalize() for v in VENDORS] + ["RFC 7540"],
        rows,
        title="Table III — characterizing popular HTTP/2 web servers (testbed)",
    )
    if mismatches:
        text += f"\nMISMATCHES vs paper: {mismatches}\n"
    else:
        text += (
            "\nAll cells match the paper's Table III.  No implementation is "
            "fully RFC-conformant — the paper's headline: 'not all "
            "implementations strictly follow RFC 7540'.\n"
        )
    return ExperimentResult(
        name="table3",
        text=text,
        data={
            "measured": measured,
            "mismatches": mismatches,
            "conformance": scores,
        },
    )
