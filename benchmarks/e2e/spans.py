"""Per-layer spans recorded from outside the program.

The traced run wraps the layers' callables at run time (module globals
and class attributes are replaced, then put back), so ``src/`` needs no
change.  A span is ``(name, start, end, id, parent id, site)``; a span's
self time is its duration minus the time its child spans cover.  Names
are ``<layer>:<callable>`` with the module name as the layer.  A
boundary that no longer exists is skipped and listed in ``missing``, so
a later change that removes a callable does not break the benchmark.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter, thread_time

from repro.scope.scanner import ALL_PROBES

MARK = "_e2e_span"
ROOT = "campaign:call"
PARK = "scope.concurrent:park"
#: Raw spans kept per thread for the trace file; the aggregates cover all.
MAX_SPANS_PER_THREAD = 150_000

#: Module-level functions: ``(module, function, span name)``.
FUNCTIONS = (
    ("repro.servers.site", "deploy_site", "servers.site:deploy_site"),
    ("repro.net.faults", "stable_seed", "net.faults:stable_seed"),
    ("repro.h2.frames", "serialize_frame_into", "h2.frames:serialize"),
    ("repro.scope.probes.negotiation", "probe_negotiation", "scope.probes:negotiation"),
    ("repro.scope.probes.settings_probe", "probe_settings", "scope.probes:settings"),
    ("repro.scope.probes.flow_control", "probe_tiny_window", "scope.probes:flow_control"),
    ("repro.scope.probes.flow_control", "probe_zero_window_headers", "scope.probes:flow_control"),
    ("repro.scope.probes.flow_control", "probe_zero_window_update", "scope.probes:flow_control"),
    ("repro.scope.probes.flow_control", "probe_large_window_update", "scope.probes:flow_control"),
    ("repro.scope.probes.priority", "probe_priority", "scope.probes:priority"),
    ("repro.scope.probes.priority", "probe_self_dependency", "scope.probes:priority"),
    ("repro.scope.probes.push", "probe_push", "scope.probes:push"),
    ("repro.scope.probes.hpack_probe", "probe_hpack", "scope.probes:hpack"),
    ("repro.scope.probes.ping", "probe_ping", "scope.probes:ping"),
)

#: Methods: ``(module, class, methods, span name)``.
METHODS = (
    ("repro.net.transport", "Endpoint", ("send", "close"), "net.transport:endpoint"),
    ("repro.net.transport", "Network", ("connect",), "net.transport:connect"),
    ("repro.h2.hpack.encoder", "Encoder", ("encode",), "h2.hpack:encode"),
    ("repro.h2.hpack.decoder", "Decoder", ("decode",), "h2.hpack:decode"),
    ("repro.h2.connection", "H2Connection", ("receive_bytes",), "h2.connection:receive"),
    (
        "repro.h2.connection",
        "H2Connection",
        (
            "initiate", "data_to_send", "send_settings", "ack_settings",
            "send_headers", "send_data", "send_priority", "send_rst_stream",
            "send_ping", "send_window_update", "send_goaway",
            "send_push_promise", "send_raw_frame",
        ),
        "h2.connection:send",
    ),
    (
        "repro.scope.client",
        "ScopeClient",
        (
            "tls_handshake", "establish_h2", "start_h2", "flush", "request",
            "send_settings", "send_window_update", "send_priority",
            "send_ping", "send_rst_stream", "sleep", "close", "upgrade_h2c",
            "http1_get",
        ),
        "scope.client:call",
    ),
    ("repro.scope.client", "ScopeClient", ("wait_for", "settle"), "scope.client:wait"),
    (
        "repro.scope.campaign",
        "CampaignJournal",
        ("begin", "pending", "counts", "virtual_seconds", "dns_failures"),
        "scope.campaign:journal",
    ),
    ("repro.scope.campaign", "CampaignJournal", ("checkpoint",), "scope.campaign:checkpoint"),
    ("repro.scope.storage", "ReportStore", ("stage",), "scope.storage:stage"),
    ("repro.scope.live", "DnsStage", ("resolve_all",), "scope.live:dns"),
    (
        "repro.scope.concurrent",
        "InterleavedBackend",
        ("sleep_until",),
        "scope.concurrent:sleep_until",
    ),
    ("repro.scope.concurrent", "_Lane", ("_park",), PARK),
)


def _repro_modules():
    """``(name, module)`` of every imported module of the program."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            yield name, module


def _mark(traced):
    """Tag a wrapper so that ``leftover_patches`` can find it."""
    setattr(traced, MARK, True)
    return traced


class _ThreadState:
    __slots__ = ("stack", "stats", "counts", "spans", "site", "driver")

    def __init__(self):
        self.stack = [[0, 0.0, None, 0.0]]  # [span id, child s, parent frame, parked s]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self s, total s
        self.counts = defaultdict(float)
        self.spans = []
        self.site = None
        #: Whether this thread drove scans (the campaign call or a site's
        #: probes), as opposed to serving the other end of a socket.
        self.driver = False


class Tracer:
    def __init__(self):
        self.missing: list[str] = []
        self.connect_attempts: list = []
        self.concurrency_metrics: list = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    # -- the span itself ----------------------------------------------------

    def _begin(self):
        try:
            state = self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        stack = state.stack
        frame = [next(self._ids), 0.0, stack[-1], 0.0]
        stack.append(frame)
        return state, frame, perf_counter()

    def _end(self, name, state, frame, start) -> float:
        end = perf_counter()
        state.stack.pop()
        took = end - start
        parent = frame[2]
        parent[1] += took
        stat = state.stats[name]
        stat[0] += 1
        stat[1] += took - frame[1]
        # A parked lane is another lane's running time: keep it out of
        # every enclosing span's total.
        stat[2] += took - frame[3]
        parent[3] += took if name == PARK else frame[3]
        if len(state.spans) < MAX_SPANS_PER_THREAD:
            state.spans.append((name, start, end, frame[0], parent[0], state.site))
        return took

    def span(self, name: str, fn, tally=None):
        """``fn`` wrapped in a span; ``tally(counts, result)`` counts work."""

        def traced(*args, **kwargs):
            state, frame, start = self._begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(name, state, frame, start)
            if tally is not None:
                tally(state.counts, result)
            return result

        return _mark(traced)

    def root(self, fn, *args, **kwargs):
        """Call the campaign entry point under the root span."""
        state, frame, start = self._begin()
        state.driver = True
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(ROOT, state, frame, start)

    def _site_span(self, name, fn, domain_of):
        def traced(*args, **kwargs):
            state, frame, start = self._begin()
            state.driver = True
            outer = state.site
            if outer is None:
                state.site = domain_of(*args)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(name, state, frame, start)
                state.site = outer

        return _mark(traced)

    def _predicate_span(self, fn):
        """``fn(owner, predicate, ...)`` with the predicate under a span of
        its own: it is the waiting client's code, not the clock's."""

        def call(owner, predicate, *args, **kwargs):
            return fn(
                owner, self.span("scope.client:predicate", predicate), *args, **kwargs
            )

        return call

    def _clock_span(self, name, fn):
        """A span that also counts the simulated events it processed."""

        def traced(sim, *args, **kwargs):
            state, frame, start = self._begin()
            events = sim.processed_events
            try:
                return fn(sim, *args, **kwargs)
            finally:
                self._end(name, state, frame, start)
                state.counts["net.clock.events"] += sim.processed_events - events

        return _mark(traced)

    def _socket_span(self, name, fn):
        """A span split into thread CPU (busy) and the rest (waiting)."""

        def traced(*args, **kwargs):
            state, frame, start = self._begin()
            cpu = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                took = self._end(name, state, frame, start)
                busy = thread_time() - cpu
                state.counts["net.socket_backend.busy_s"] += busy
                state.counts["net.socket_backend.wait_s"] += max(0.0, took - busy)

        return _mark(traced)

    def _wrap_callbacks(self, endpoint, name) -> None:
        """Span the ``on_data``/``on_close`` handlers a layer attached."""
        for attr in ("on_data", "on_close"):
            callback = getattr(endpoint, attr, None)
            if callback is not None and not hasattr(callback, MARK):
                setattr(endpoint, attr, self.span(name, callback))

    # -- installing and removing --------------------------------------------

    def _replace(self, owner, attr, wrapped) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def _patch_function(self, module_name, attr, make) -> None:
        """Rebind a function in every ``repro`` module that imported it."""
        try:
            original = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapped = make(original)
        for _, module in _repro_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, key, wrapped)

    def _patch_method(self, module_name, class_name, attr, make) -> None:
        try:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module_name}.{class_name}.{attr}")
            return
        self._replace(cls, attr, make(original))

    def install(self) -> None:
        for module, attr, name in FUNCTIONS:
            self._patch_function(module, attr, lambda fn, name=name: self.span(name, fn))
        for module, cls, attrs, name in METHODS:
            for attr in attrs:
                self._patch_method(module, cls, attr, lambda fn, name=name: self.span(name, fn))

        def count_frames(counts, result):
            counts["h2.frames.parsed"] += len(result[0])

        def count_draw(counts, result):
            counts["net.faults.faulted"] += result is not None

        def count_attempts(counts, result):
            counts["scope.resilience.probes"] += 1
            counts["scope.resilience.attempts"] += result[0]

        self._patch_function(
            "repro.h2.frames", "parse_frames_view",
            lambda fn: self.span("h2.frames:parse", fn, count_frames),
        )
        self._patch_method(
            "repro.net.faults", "FaultSession", "draw",
            lambda fn: self.span("net.faults:draw", fn, count_draw),
        )
        self._patch_function(
            "repro.scope.resilience", "run_resilient",
            lambda fn: self.span("scope.resilience:run_resilient", fn, count_attempts),
        )
        self._patch_function(
            "repro.scope.scanner", "scan_site",
            lambda fn: self._site_span(
                "scope.scanner:scan_site", fn, lambda site, *rest: site.domain
            ),
        )
        self._patch_function(
            "repro.scope.scanner", "probe_target",
            lambda fn: self._site_span(
                "scope.scanner:probe_target", fn, lambda session, domain, *rest: domain
            ),
        )
        self._patch_method(
            "repro.net.clock", "Simulation", "run_until",
            lambda fn: self._clock_span("net.clock:run_until", self._predicate_span(fn)),
        )
        for attr in ("run", "step", "fire_head"):
            self._patch_method(
                "repro.net.clock", "Simulation", attr,
                lambda fn, attr=attr: self._clock_span(f"net.clock:{attr}", fn),
            )
        self._patch_method(
            "repro.scope.concurrent", "InterleavedBackend", "run_until",
            lambda fn: self.span("scope.concurrent:run_until", self._predicate_span(fn)),
        )
        self._patch_method(
            "repro.net.socket_backend", "SocketBackend", "run_until",
            lambda fn: self._socket_span(
                "net.socket_backend:run_until", self._predicate_span(fn)
            ),
        )
        self._patch_method(
            "repro.net.socket_backend", "SocketBackend", "sleep_until",
            lambda fn: self._socket_span("net.socket_backend:sleep_until", fn),
        )
        self._patch_method(
            "repro.net.socket_backend", "SocketBackend", "connect", self._socket_connect
        )
        self._patch_method("repro.net.transport", "Host", "listen", self._listen)
        self._patch_method(
            "repro.scope.client", "ScopeClient", "connect", self._client_connect
        )
        self._patch_function(
            "repro.scope.concurrent", "scan_interleaved", self._scan_interleaved
        )

    def _socket_connect(self, fn):
        spanned = self._socket_span("net.socket_backend:connect", fn)

        def traced(*args, **kwargs):
            attempt = spanned(*args, **kwargs)
            self.connect_attempts.append(attempt)
            return attempt

        return _mark(traced)

    def _listen(self, fn):
        """The engine's accept handler, and the handlers it attaches."""

        def traced(host, port, on_accept):
            accept = self.span("servers.engine:accept", on_accept)

            def accepting(endpoint):
                accept(endpoint)
                self._wrap_callbacks(endpoint, "servers.engine:callback")

            return fn(host, port, accepting)

        return _mark(traced)

    def _client_connect(self, fn):
        spanned = self.span("scope.client:wait", fn)

        def traced(client, *args, **kwargs):
            connected = spanned(client, *args, **kwargs)
            if client.endpoint is not None:
                self._wrap_callbacks(client.endpoint, "scope.client:callback")
            return connected

        return _mark(traced)

    def _scan_interleaved(self, fn):
        """Hand the scheduler a metrics object; its own callers pass none."""
        from repro.scope.concurrent import ConcurrencyMetrics

        def traced(*args, **kwargs):
            if kwargs.get("metrics") is None:
                kwargs["metrics"] = ConcurrencyMetrics()
            self.concurrency_metrics.append(kwargs["metrics"])
            return fn(*args, **kwargs)

        return _mark(traced)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading the result -------------------------------------------------

    def totals(self):
        """``(stats, counts, covered)``: the first two summed over threads,
        the third the driver threads' self seconds under the campaign call,
        which is what ``layers.covered_share`` is made of."""
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        counts = defaultdict(float)
        covered = 0.0
        for state in list(self._states):
            for name, (calls, self_s, total_s) in state.stats.items():
                stat = stats[name]
                stat[0] += calls
                stat[1] += self_s
                stat[2] += total_s
                if state.driver and name not in (ROOT, PARK):
                    covered += self_s
            for name, value in state.counts.items():
                counts[name] += value
        return stats, counts, covered

    def write(self, path, extra: dict) -> None:
        """Write the layers' aggregates and the raw spans to ``path``."""
        stats, counts, _ = self.totals()
        spans = [span for state in list(self._states) for span in state.spans]
        spans.sort(key=lambda span: span[1])
        document = {
            **extra,
            "missing_boundaries": self.missing,
            "span_fields": ["name", "start_s", "end_s", "id", "parent", "site"],
            "layers": {
                name: {"calls": calls, "self_s": self_s, "total_s": total_s}
                for name, (calls, self_s, total_s) in sorted(stats.items())
            },
            "counts": dict(sorted(counts.items())),
            "spans_kept": len(spans),
            "spans": spans,
        }
        with open(path, "w") as handle:
            json.dump(document, handle)


def leftover_patches() -> list[str]:
    """Every traced callable still bound in a ``repro`` module or class."""
    found = []
    for name, module in _repro_modules():
        for key, value in list(vars(module).items()):
            if hasattr(value, MARK):
                found.append(f"{name}.{key}")
            elif isinstance(value, type) and value.__module__ == name:
                found.extend(
                    f"{name}.{key}.{attr}"
                    for attr, member in list(vars(value).items())
                    if hasattr(member, MARK)
                )
    return found


def layer_metrics(tracer: Tracer, sites: int, wall_s: float, lanes: int) -> dict[str, float]:
    """The per-layer metrics that come from spans and span-side counts.

    ``*_self_s_per_site`` is self time, the other ``*_s_per_site`` are
    whole spans; both are wall seconds of the traced (slower) run.
    """
    stats, counts, covered = tracer.totals()
    sites = max(1, sites)

    def calls(*names):
        return sum(stats[name][0] for name in names if name in stats)

    def self_s(*names):
        return sum(stats[name][1] for name in names if name in stats) / sites

    def total_s(*names):
        return sum(stats[name][2] for name in names if name in stats) / sites

    draws = calls("net.faults:draw")
    probes = counts["scope.resilience.probes"]
    connects = [
        attempt.handshake_rtt
        for attempt in tracer.connect_attempts
        if attempt.handshake_rtt is not None
    ]
    scheduler = tracer.concurrency_metrics
    metrics = {
        "servers.site.deploy_s_per_site": total_s("servers.site:deploy_site"),
        "servers.engine.self_s_per_site": self_s(
            "servers.engine:accept", "servers.engine:callback"
        ),
        "net.clock.run_until_self_s_per_site": self_s(
            "net.clock:run_until", "net.clock:run", "net.clock:step", "net.clock:fire_head"
        ),
        "net.clock.events_per_site": counts["net.clock.events"] / sites,
        "net.transport.self_s_per_site": self_s(
            "net.transport:connect", "net.transport:endpoint"
        ),
        "net.transport.connects_per_site": calls("net.transport:connect") / sites,
        "net.faults.draws_per_site": draws / sites,
        "net.faults.faulted_conn_share": counts["net.faults.faulted"] / draws if draws else 0.0,
        "net.faults.stable_seed_calls_per_site": calls("net.faults:stable_seed") / sites,
        "net.socket_backend.wait_s_per_site": counts["net.socket_backend.wait_s"] / sites,
        "net.socket_backend.busy_s_per_site": counts["net.socket_backend.busy_s"] / sites,
        "net.socket_backend.connect_ms_p50": (
            statistics.median(connects) * 1e3 if connects else 0.0
        ),
        "h2.frames.parse_self_s_per_site": self_s("h2.frames:parse"),
        "h2.frames.serialize_self_s_per_site": self_s("h2.frames:serialize"),
        "h2.frames.frames_per_site": (
            counts["h2.frames.parsed"] + calls("h2.frames:serialize")
        ) / sites,
        "h2.hpack.encode_self_s_per_site": self_s("h2.hpack:encode"),
        "h2.hpack.decode_self_s_per_site": self_s("h2.hpack:decode"),
        "h2.hpack.blocks_per_site": calls("h2.hpack:encode", "h2.hpack:decode") / sites,
        "h2.connection.receive_self_s_per_site": self_s("h2.connection:receive"),
        "h2.connection.send_self_s_per_site": self_s("h2.connection:send"),
        "scope.client.self_s_per_site": self_s(
            "scope.client:call", "scope.client:wait",
            "scope.client:callback", "scope.client:predicate",
        ),
        "scope.client.waits_per_site": calls("scope.client:wait") / sites,
        "scope.resilience.attempts_per_probe": (
            counts["scope.resilience.attempts"] / probes if probes else 1.0
        ),
        "scope.scanner.scan_site_self_s_per_site": self_s(
            "scope.scanner:scan_site", "scope.scanner:probe_target"
        ),
        "scope.concurrent.handoffs_per_site": sum(m.handoffs for m in scheduler) / sites,
        # Modeled (virtual) seconds: a property of the simulated
        # population, never to be divided into a throughput.
        "scope.concurrent.virtual_makespan_s": sum(m.virtual_makespan for m in scheduler),
        "scope.campaign.checkpoint_s_per_site": total_s(
            "scope.campaign:checkpoint", "scope.campaign:journal"
        ),
        "scope.campaign.checkpoints": float(calls("scope.campaign:checkpoint")),
        "scope.live.dns_s": total_s("scope.live:dns") * sites,
        "layers.covered_share": covered / (wall_s * lanes) if wall_s else 0.0,
    }
    for group in sorted(ALL_PROBES):
        metrics[f"scope.probes.{group}_s_per_site"] = total_s(f"scope.probes:{group}")
    return metrics
