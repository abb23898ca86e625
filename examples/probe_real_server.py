#!/usr/bin/env python
"""Probe a server's Table III column over real TCP sockets.

The same probe suite that characterizes the simulated testbed runs
unchanged against real endpoints: every probe goes through a
:class:`~repro.scope.session.ProbeSession`, and here the session is
backed by :class:`~repro.net.socket_backend.SocketBackend` instead of
the simulator.  The output is the server's Table III feature-matrix
column, or the error that kept a probe from measuring it.

Run with::

    python examples/probe_real_server.py HOST:PORT [--domain NAME]

e.g. ``python examples/probe_real_server.py 203.0.113.7:443 --domain
example.com`` to probe a server by address while offering ``NAME`` in
the TLS hello and ``:authority``.  If the target is unreachable the
script skips gracefully (exit 0) — useful on offline machines and CI.
If it is reachable but a probe cannot measure it (a refused connect, a
reset, malformed or silent hello), the script prints that probe's
error instead of a column and exits 1.

With no target, the script demonstrates itself: it serves the
simulated Nginx engine over a real loopback TCP socket (the bridge
from :mod:`repro.servers.loopback`) and probes that.  Everything the
probes see is then real wire bytes on a real socket.

Note what a live target must be: the probes speak the reproduction's
modelled TLS hello (a text line carrying the ALPN/NPN offers), not a
real TLS ClientHello, so only a server that answers that hello, such as
the loopback bridge of the demo, yields a column.  A real HTTP/2 server
rejects the hello, and the script reports the negotiation's error.
The matrix also expects the testbed object layout (``/large/*.bin``,
``/medium/*.bin``).
"""

import argparse
import socket
import sys

from repro.net.socket_backend import SocketBackend
from repro.scope.conformance import ROWS, matrix_cells
from repro.scope.session import ProbeSession


def parse_target(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host:
        raise SystemExit(f"target must be HOST:PORT, got {value!r}")
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(f"bad port in target {value!r}") from None


def reachable(host: str, port: int, timeout: float = 3.0) -> bool:
    try:
        with socket.create_connection((host, port), timeout=timeout):
            return True
    except OSError:
        return False


def print_matrix_row(domain: str, cells: dict[str, str]) -> None:
    width = max(len(row.label) for row in ROWS)
    print(f"\nTable III feature-matrix column for {domain}:")
    for row in ROWS:
        print(f"  {row.label:<{width}}  {cells.get(row.label, '-')}")


def probe_address(
    domain: str, host: str, port: int, timeout_scale: float
) -> dict[str, str]:
    backend = SocketBackend(
        resolver={(domain, 443): (host, port)}, timeout_scale=timeout_scale
    )
    try:
        return matrix_cells(ProbeSession(backend), domain)
    finally:
        backend.close()


def loopback_demo(timeout_scale: float) -> int:
    from repro.servers.loopback import LoopbackBridge
    from repro.servers.site import Site
    from repro.servers.vendors import VENDOR_FACTORIES
    from repro.servers.website import testbed_website

    print("no target given: probing the simulated Nginx engine served")
    print("over a real loopback TCP socket (repro.servers.loopback)")
    with LoopbackBridge(seed=0) as bridge:
        addresses = bridge.serve(
            Site(
                domain="nginx.testbed",
                profile=VENDOR_FACTORIES["nginx"](),
                website=testbed_website(),
            )
        )
        host, port = addresses[("nginx.testbed", 443)]
        print(f"serving nginx.testbed at {host}:{port}")
        backend = SocketBackend(
            resolver=bridge.resolver(), timeout_scale=timeout_scale
        )
        try:
            cells = matrix_cells(ProbeSession(backend), "nginx.testbed")
        finally:
            backend.close()
    print_matrix_row("nginx.testbed", cells)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "target",
        nargs="?",
        help="HOST:PORT of a server that answers the modelled hello",
    )
    parser.add_argument(
        "--domain",
        help="name to offer in the TLS hello / :authority (default: the host)",
    )
    parser.add_argument(
        "--timeout-scale",
        type=float,
        default=0.25,
        help="multiplier on the simulation-tuned probe timeouts "
        "(default 0.25: 8 s reaction windows become 2 s)",
    )
    args = parser.parse_args(argv)

    if args.target is None:
        return loopback_demo(args.timeout_scale)

    host, port = parse_target(args.target)
    domain = args.domain or host
    if not reachable(host, port):
        print(f"skipping: {host}:{port} is unreachable from here")
        return 0

    print(f"probing {domain} at {host}:{port} over real sockets ...")
    try:
        cells = probe_address(domain, host, port, args.timeout_scale)
    except RuntimeError as exc:  # matrix_cells: a probe raised
        print(f"error: {exc}")
        return 1
    print_matrix_row(domain, cells)
    return 0


if __name__ == "__main__":
    sys.exit(main())
