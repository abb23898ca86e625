"""H2Scope — the paper's HTTP/2 feature-probing tool, reimplemented.

H2Scope talks to servers at the frame level (Section IV): it
establishes a connection, negotiates HTTP/2 via ALPN and/or NPN, sends
customised SETTINGS / HEADERS / PRIORITY / WINDOW_UPDATE / PING frames
— including deliberately protocol-violating ones — and classifies the
server's reaction.

* :mod:`repro.scope.client` — the frame-level client;
* :mod:`repro.scope.probes` — one module per measurement method of
  Section III;
* :mod:`repro.scope.report` — typed results and the per-site report;
* :mod:`repro.scope.scanner` — the population scanner (Section IV-B's
  thread-pool scanner, expressed over per-site simulations);
* :mod:`repro.scope.resilience` — virtual-time deadlines, the
  transient/timeout/fatal failure taxonomy, and retry with
  deterministic exponential backoff;
* :mod:`repro.scope.campaign` — the crash-safe campaign journal:
  manifests, per-site status rows, checkpoint/resume, quarantine.
"""

from repro.scope.client import ScopeClient
from repro.scope.scanner import scan_site

__all__ = ["ScopeClient", "scan_site"]
