#!/usr/bin/env python
"""Quickstart: deploy one HTTP/2 server and probe it with H2Scope.

This walks the three layers of the library:

1. build a simulated origin (an Nginx behaviour profile serving a
   small site);
2. talk to it at the frame level with a :class:`ScopeClient`;
3. run the full probe suite with :func:`scan_site` and read the report.

Run with::

    python examples/quickstart.py
"""

from repro.h2 import events as ev
from repro.scope import ScopeClient, scan_site
from repro.scope.scanner import TESTBED_PLAN
from repro.servers import Site, serve_site, vendors
from repro.servers.website import testbed_website


def manual_probe() -> None:
    """Drive one connection by hand: TLS, a request, and a PING."""
    site = Site(
        domain="nginx.example",
        profile=vendors.nginx(),
        website=testbed_website(),
    )
    # A fresh simulated universe; it ends with the ``with`` block.
    with serve_site(site, seed=1) as (backend, _):
        client = ScopeClient(backend, "nginx.example", auto_window_update=True)
        assert client.establish_h2()
        print(f"negotiated {client.tls.chosen!r} via {client.tls.mechanism}")

        stream_id = client.request("/")
        client.wait_for(lambda: client.headers_for(stream_id) is not None)
        headers = dict(client.headers_for(stream_id).headers)
        print(f"GET / -> :status={headers[b':status'].decode()}, "
              f"server={headers[b'server'].decode()}")

        start = backend.now
        client.send_ping(b"example!")
        client.wait_for(
            lambda: any(isinstance(te.event, ev.PingAckReceived) for te in client.events)
        )
        print(f"HTTP/2 PING round trip: {(backend.now - start) * 1000:.1f} ms")
        client.close()


def full_scan() -> None:
    """Run every probe of Section III against the same origin."""
    site = Site(
        domain="nginx.example",
        profile=vendors.nginx(),
        website=testbed_website(),
    )
    report = scan_site(site, plan=TESTBED_PLAN)
    print()
    print(f"full H2Scope report for {report.domain}:")
    print(f"  ALPN h2: {report.negotiation.alpn_h2}, NPN h2: {report.negotiation.npn_h2}")
    print(f"  announced SETTINGS: {report.settings.announced}")
    print(f"  Sframe={TESTBED_PLAN.sframe} behaviour: "
          f"{report.flow_control.tiny_window.value}")
    print(f"  zero WINDOW_UPDATE on stream: {report.flow_control.zero_update_stream.value}")
    print(f"  Algorithm 1 (priority): "
          f"{'pass' if report.priority.passes_algorithm1 else 'fail'}")
    print(f"  self-dependent stream: {report.priority.self_dependency.value}")
    print(f"  server push: {report.push.push_received}")
    print(f"  HPACK compression ratio r: {report.hpack.ratio:.3f} "
          "(Nginx never indexes response headers, so r == 1)")
    print(f"  PING RTT: {report.ping.h2_ping_rtt * 1000:.1f} ms "
          f"vs ICMP {report.ping.icmp_rtt * 1000:.1f} ms")


if __name__ == "__main__":
    manual_probe()
    full_scan()
