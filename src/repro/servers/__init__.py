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

from repro.servers.profiles import ServerProfile, TinyWindowBehavior
from repro.servers.website import Resource, Website
from repro.servers.engine import H2Server
from repro.servers.site import Site, deploy_site, serve_site
from repro.servers.vendors import (
    apache,
    gse,
    h2o,
    litespeed,
    nghttpd,
    nginx,
    tengine,
    VENDOR_FACTORIES,
)

__all__ = [
    "H2Server",
    "Resource",
    "ServerProfile",
    "Site",
    "TinyWindowBehavior",
    "VENDOR_FACTORIES",
    "Website",
    "apache",
    "deploy_site",
    "gse",
    "h2o",
    "litespeed",
    "nghttpd",
    "nginx",
    "serve_site",
    "tengine",
]
