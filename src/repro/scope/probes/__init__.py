"""The H2Scope probe suite — one module per Section-III method.

A probe is a function taking a :class:`~repro.scope.session.
ProbeSession` plus a target domain, and returning or filling one of
the typed results from :mod:`repro.scope.report`; :func:`probe_push`
and :func:`probe_hpack` take the site's :class:`HeaderBlockLink`
instead, which knows both.  Probes close the connections they open on
every way out, except the fetch connection, which
:func:`probe_negotiation` hands to the link, and leave the session
reusable.
:func:`probe_settings` reads the SETTINGS a client received;
:func:`probe_negotiation` calls it on its fetch connection.

:func:`~repro.scope.scanner.probe_target` calls them for the scan and
Table III alike, with its :class:`~repro.scope.scanner.ProbePlan`'s
objects; no probe runs outside it.  Table III's Request Multiplexing
cell is read from Algorithm 1 (:func:`probe_priority`), whose context is
the only one that shows a server's own scheduling order.

A probe that reads one stream's answer takes its turn on a
:class:`~repro.scope.probes.flow_control.SharedConnection`: the
flow-control sub-probes share one (:func:`probe_flow_control` runs
them), the negotiation fetch, push, HPACK and ping's PINGs take theirs
on the site's :class:`HeaderBlockLink`, in that order, and the
zero-window HEADERS and self-dependency probes each take theirs on one
of their own.

Layering rule: probe modules never import :mod:`repro.net.transport`
directly — all transport access goes through the session's backend.
``tests/scope/test_probe_layering.py`` enforces this.
"""

from repro.scope.probes.negotiation import HeaderBlockLink, probe_negotiation
from repro.scope.probes.flow_control import probe_flow_control
from repro.scope.probes.priority import probe_priority, probe_self_dependency
from repro.scope.probes.push import probe_push
from repro.scope.probes.hpack_probe import probe_hpack
from repro.scope.probes.ping import probe_ping

__all__ = [
    "HeaderBlockLink",
    "probe_flow_control",
    "probe_hpack",
    "probe_negotiation",
    "probe_ping",
    "probe_priority",
    "probe_push",
    "probe_self_dependency",
]
