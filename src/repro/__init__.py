"""Reproduction of *Are HTTP/2 Servers Ready Yet?* (ICDCS 2017).

The package provides four layers:

* :mod:`repro.h2` — a from-scratch HTTP/2 (RFC 7540) and HPACK
  (RFC 7541) protocol implementation;
* :mod:`repro.net` — a deterministic discrete-event network simulation
  (TCP-like transport, TLS with ALPN/NPN, ICMP);
* :mod:`repro.servers` — a real HTTP/2 server engine plus behaviour
  profiles for the six implementations the paper studies;
* :mod:`repro.scope` — **H2Scope**, the paper's frame-level feature
  prober, with all of Section III's measurement methods;

plus :mod:`repro.population` (a synthetic Alexa top-1M sampled from the
paper's published aggregates), :mod:`repro.analysis` (CDFs, tables,
page-load and RTT models) and :mod:`repro.experiments` (one runner per
table and figure of the paper's evaluation).

Quickstart::

    from repro.servers import vendors, Site
    from repro.servers.website import testbed_website
    from repro.scope.scanner import scan_site

    site = Site("nginx.test", vendors.nginx(), testbed_website())
    report = scan_site(site)
    print(report.flow_control.zero_update_stream)   # ErrorReaction.IGNORE
"""

__version__ = "1.0.0"
