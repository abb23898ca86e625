"""Table III — characterizing the six servers in the testbed.

Installs each vendor profile on a testbed host with large objects
(§III-A1's requirement), measures its column with the population
scan's own probes (:func:`~repro.scope.conformance.matrix_cells`), then
renders the resulting feature matrix next to the paper's published
cells.  The ``mismatches`` entry in the result data lists any cell
where the reproduction deviates from the paper; it should be empty.
The "RFC 7540" column and the conformance score come from the
conformance suite's row table (:data:`~repro.scope.conformance.ROWS`),
so the suite and this table judge every cell by the same rule.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.scope.conformance import ROWS, SCORED_ROWS, Verdict, matrix_cells
from repro.scope.session import ProbeSession
from repro.servers.site import Site, deploy_testbed
from repro.servers.vendors import VENDOR_FACTORIES
from repro.servers.website import testbed_website
from repro.experiments.common import ExperimentResult

VENDORS = ["nginx", "litespeed", "h2o", "nghttpd", "tengine", "apache"]

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

def conformance_score(cells: dict[str, str]) -> tuple[int, int]:
    """(compliant rows, scored rows): the rows whose cell is the RFC's."""
    compliant = sum(
        1 for row in SCORED_ROWS if row.judge(cells)[0] is Verdict.PASS
    )
    return compliant, len(SCORED_ROWS)


def characterize_vendor(vendor: str, seed: int = 0) -> dict[str, str]:
    """Run every Table III probe against one vendor's testbed deployment."""
    with deploy_testbed(vendor, seed) as (backend, site):
        return matrix_cells(ProbeSession(backend), site.domain)


#: Factor on the simulation-tuned probe timeouts over loopback sockets.
SOCKET_TIMEOUT_SCALE = 0.15


def characterize_vendor_socket(vendor: str, bridge) -> dict[str, str]:
    """Table III column for one vendor probed over real loopback sockets.

    ``bridge`` is a :class:`~repro.servers.loopback.LoopbackBridge`
    already serving ``{vendor}.testbed``.  Runs the same
    :func:`matrix_cells` suite as the simulated path, just over a
    :class:`~repro.net.socket_backend.SocketBackend` with wall-clock
    deadlines (:data:`SOCKET_TIMEOUT_SCALE` shrinks the simulation-tuned
    probe timeouts to loopback-appropriate waits).
    """
    from repro.net.socket_backend import SocketBackend

    backend = SocketBackend(
        resolver=bridge.resolver(), timeout_scale=SOCKET_TIMEOUT_SCALE
    )
    try:
        return matrix_cells(ProbeSession(backend), f"{vendor}.testbed")
    finally:
        backend.close()


def _measure_socket(seed: int) -> dict[str, dict[str, str]]:
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
            vendor: characterize_vendor_socket(vendor, bridge)
            for vendor in VENDORS
        }


def run(seed: int = 0, backend: str = "sim") -> ExperimentResult:
    """Reproduce Table III and diff it against the paper.

    ``backend="socket"`` runs the probes over real loopback TCP sockets
    (each vendor engine served by :class:`~repro.servers.loopback.
    LoopbackBridge`) instead of inside the simulator; the cells must
    come out identical either way.
    """
    if backend == "socket":
        measured = _measure_socket(seed)
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
            got = measured[vendor][row.label]
            expected = PAPER_TABLE3[row.label][vendor]
            if got != expected:
                mismatches.append((row.label, vendor, expected, got))
                cells.append(f"{got} (!= {expected})")
            else:
                cells.append(got)
        rows.append([row.label] + cells + [row.requirement])

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
