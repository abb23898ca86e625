"""The H2Scope probe suite — one module per Section-III method.

Every probe is a function taking a :class:`~repro.scope.session.
ProbeSession` plus a target domain, and returning one of the typed
results from :mod:`repro.scope.report`.  Probes open their own
connections and leave the session reusable.  The one exception is
:func:`probe_settings`, which reads the SETTINGS a client received;
:func:`probe_negotiation` calls it on its fetch connection.

Layering rule: probe modules never import :mod:`repro.net.transport`
directly — all transport access goes through the session's backend.
A CI grep enforces this.
"""

from repro.scope.probes.negotiation import probe_negotiation
from repro.scope.probes.multiplexing import probe_multiplexing
from repro.scope.probes.flow_control import (
    probe_large_window_update,
    probe_tiny_window,
    probe_zero_window_headers,
    probe_zero_window_update,
)
from repro.scope.probes.priority import probe_priority, probe_self_dependency
from repro.scope.probes.push import probe_push
from repro.scope.probes.hpack_probe import probe_hpack
from repro.scope.probes.ping import probe_ping

__all__ = [
    "probe_hpack",
    "probe_large_window_update",
    "probe_multiplexing",
    "probe_negotiation",
    "probe_ping",
    "probe_priority",
    "probe_push",
    "probe_self_dependency",
    "probe_tiny_window",
    "probe_zero_window_headers",
    "probe_zero_window_update",
]
