"""Simulated HTTP/2 servers.

One real protocol engine (:mod:`repro.servers.engine`, built on
:mod:`repro.h2`) is specialised by :class:`ServerProfile` instances
that encode the observable behaviour differences the paper documents in
Table III and Section V — flow-control quirks, priority scheduling or
the lack of it, push support, HPACK indexing policy, announced SETTINGS
and TLS negotiation capabilities.

:mod:`repro.servers.vendors` transcribes the six implementations the
paper examines (Nginx 1.9.15, LiteSpeed 5.0.11, H2O 1.6.2, nghttpd
1.12.0, Tengine 2.1.2, Apache 2.4.23) plus the population-only server
families (GSE, cloudflare-nginx, IdeaWebServer, Tengine/Aserver).
"""

from repro.servers.site import Site, serve_site

__all__ = ["Site", "serve_site"]
