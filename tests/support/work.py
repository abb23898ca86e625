"""A scan's work, counted from outside the program (ROADMAP 24).

:class:`WorkCounter` wraps the program's callables while it is
installed, as ``benchmarks/e2e/spans.py`` does, but records no times:
only what a scan does, which is exact and the same on every host.  Work
is charged to the probe group whose entry function is running
(``negotiation``, ``flow_control``, ``priority``, ``push``, ``hpack`` and
``ping``), and to ``-`` outside all of them (a conformance check of its
own, a connection a scanner closes between groups).  Per group it counts, by side (``client`` or
``server``):

* ``connects``: ``Network.connect`` calls (the client's);
* ``writes`` and ``octets``: ``Endpoint.send`` calls and their bytes;
* ``second_writes``: writes by an endpoint that already wrote in the
  same clock callback (the same ``now`` and ``processed_events`` of its
  simulation), which one write could have carried (ROADMAP 19);
* ``frames.<Type>``: frames ``H2Connection`` serialised, by class;
* ``hpack``: header blocks encoded (HEADERS and PUSH_PROMISE);

and, for the group as a whole, ``events``: simulated clock events
processed, and ``faults.draws``: ``FaultSession.draw`` calls, one a
connection a fault plan may hit.  ``python -m tests.support.work`` prints the vector of the
scans ``tests/test_work_budget.py`` pins.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict

#: ``(module, function, group)``: the probe groups' entry functions.
PROBES = (
    ("repro.scope.probes.negotiation", "probe_negotiation", "negotiation"),
    ("repro.scope.probes.flow_control", "probe_flow_control", "flow_control"),
    ("repro.scope.probes.priority", "probe_priority", "priority"),
    ("repro.scope.probes.priority", "probe_self_dependency", "priority"),
    ("repro.scope.probes.push", "probe_push", "push"),
    ("repro.scope.probes.hpack_probe", "probe_hpack", "hpack"),
    ("repro.scope.probes.ping", "probe_ping", "ping"),
)
OUTSIDE = "-"


class WorkCounter:
    """Counts a scan's work per probe group while installed (a context
    manager); :attr:`work` maps group -> Counter."""

    def __init__(self):
        self.work: dict[str, Counter] = defaultdict(Counter)
        self._group = [OUTSIDE]
        self._patched: list[tuple[object, str, object]] = []
        #: The clock callback of the last write, and who wrote in it.
        self._callback: tuple | None = None
        self._writers: set = set()

    # -- what is counted ------------------------------------------------

    def _add(self, key: str, amount: int = 1) -> None:
        self.work[self._group[-1]][key] += amount

    def _probe(self, group, fn):
        def counted(*args, **kwargs):
            self._group.append(group)
            try:
                return fn(*args, **kwargs)
            finally:
                self._group.pop()

        return counted

    def _connect(self, fn):
        def counted(network, *args, **kwargs):
            self._add("client.connects")
            return fn(network, *args, **kwargs)

        return counted

    def _send(self, fn):
        def counted(endpoint, data):
            side = "client" if endpoint._label[2] else "server"
            self._add(f"{side}.writes")
            self._add(f"{side}.octets", len(data))
            sim = endpoint._sim
            callback = (sim, sim.now, sim.processed_events)
            if callback != self._callback:
                self._callback, self._writers = callback, set()
            if endpoint in self._writers:
                self._add(f"{side}.second_writes")
            self._writers.add(endpoint)
            return fn(endpoint, data)

        return counted

    def _frame(self, fn):
        def counted(conn, frame):
            self._add(f"{conn.side.name.lower()}.frames.{type(frame).__name__}")
            return fn(conn, frame)

        return counted

    def _block(self, fn):
        def counted(conn, *args, **kwargs):
            self._add(f"{conn.side.name.lower()}.hpack")
            return fn(conn, *args, **kwargs)

        return counted

    def _draw(self, fn):
        def counted(session, *args, **kwargs):
            self._add("faults.draws")
            return fn(session, *args, **kwargs)

        return counted

    def _clock(self, fn):
        def counted(sim, *args, **kwargs):
            before = sim.processed_events
            try:
                return fn(sim, *args, **kwargs)
            finally:
                self._add("events", sim.processed_events - before)

        return counted

    # -- installing and removing ------------------------------------------

    def _replace(self, owner, attr, wrapped) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        for module_name, attr, group in PROBES:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = self._probe(group, original)
            # Rebind it wherever the program imported it.
            for name, module in list(sys.modules.items()):
                if module is None or not name.startswith("repro."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapped)
        from repro.h2.connection import H2Connection
        from repro.net.clock import Simulation
        from repro.net.faults import FaultSession
        from repro.net.transport import Endpoint, Network

        for owner, attr, make in (
            (Network, "connect", self._connect),
            (Endpoint, "send", self._send),
            (H2Connection, "_send_frame", self._frame),
            (H2Connection, "send_headers", self._block),
            (H2Connection, "send_push_promise", self._block),
            (FaultSession, "draw", self._draw),
            (Simulation, "run_until", self._clock),
            (Simulation, "run", self._clock),
            (Simulation, "step", self._clock),
            (Simulation, "fire_head", self._clock),
        ):
            self._replace(owner, attr, make(owner.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> WorkCounter:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading ----------------------------------------------------------

    def table(self) -> dict[str, dict[str, int]]:
        """The vector as plain dicts, groups and keys sorted, zeros left out."""
        return {
            group: dict(sorted((+counts).items()))
            for group, counts in sorted(self.work.items())
            if +counts
        }

    def summary(self) -> dict[str, tuple[int, ...]]:
        """Per group, :data:`SUMMARY`'s counts, frames summed over types."""
        rows = {}
        for group, counts in sorted(self.work.items()):
            frames = Counter()
            for key, count in counts.items():
                side, _, rest = key.partition(".")
                if rest.startswith("frames."):
                    frames[f"{side}.frames"] += count
            rows[group] = tuple((counts + frames)[key] for key in SUMMARY)
        return rows


#: The columns of :meth:`WorkCounter.summary`.
SUMMARY = (
    "client.connects",
    "client.writes",
    "client.octets",
    "client.frames",
    "client.hpack",
    "server.writes",
    "server.octets",
    "server.frames",
    "server.hpack",
    "events",
    "client.second_writes",
    "server.second_writes",
)


# -- the pinned scans -------------------------------------------------------

#: ``sim_clean_full``'s population (160 HEADERS sites, seed 7, shuffled
#: with the seed as the benchmark's workload is) and how many of its
#: first sites the budget scans.
CLEAN_FULL_SEED = 7
CLEAN_FULL_SITES = 20


def clean_full_sites():
    import random

    from repro.population.generator import PopulationConfig, make_population

    sites = make_population(PopulationConfig(n_sites=160, seed=CLEAN_FULL_SEED))
    random.Random(CLEAN_FULL_SEED).shuffle(sites)
    return sites[:CLEAN_FULL_SITES]


def scan_clean_full(counter):
    """Every probe group on the first :data:`CLEAN_FULL_SITES` sites, each
    in the universe ``run_campaign`` gives it (seed + position), inside
    ``counter`` (a context manager); returns ``counter``."""
    from repro.scope.scanner import scan_site

    sites = clean_full_sites()
    with counter:
        for index, site in enumerate(sites):
            scan_site(site, seed=CLEAN_FULL_SEED + index)
    return counter


def clean_full_work() -> WorkCounter:
    return scan_clean_full(WorkCounter())


#: ``sim_chaos``'s fault plan, its seed, its probes and its resilience
#: policy, and how many of :func:`clean_full_sites` the chaos slice scans.
CHAOS_PLAN = "refuse:0.1x6,reset:0.06x4,stall(30):0.05,truncate(400):0.05"
CHAOS_PLAN_SEED = 5
SHORT_PROBES = frozenset({"negotiation", "settings", "ping"})
CHAOS_SITES = 20


def scan_chaos(counter):
    """The short probes on the first :data:`CHAOS_SITES` sites under
    ``sim_chaos``'s fault plan, with one retry in a 10 s attempt, inside
    ``counter``; returns ``counter``."""
    from repro.net.faults import FaultPlan
    from repro.scope.resilience import ResilienceConfig
    from repro.scope.scanner import scan_site

    plan = FaultPlan.parse(CHAOS_PLAN, seed=CHAOS_PLAN_SEED)
    sites = clean_full_sites()[:CHAOS_SITES]
    with counter:
        for index, site in enumerate(sites):
            scan_site(
                site,
                include=SHORT_PROBES,
                seed=CLEAN_FULL_SEED + index,
                fault_plan=plan,
                resilience=ResilienceConfig(timeout=10.0, retries=1),
            )
    return counter


def chaos_work() -> WorkCounter:
    return scan_chaos(WorkCounter())


def table3_work(vendor: str) -> WorkCounter:
    """``run_conformance`` against one Table III vendor."""
    from repro.scope.conformance import run_conformance
    from tests.conftest import sim_session
    from tests.scope.conftest import deploy_vendor

    network, domain = deploy_vendor(vendor)
    with WorkCounter() as counter:
        run_conformance(sim_session(network), domain)
    return counter


def main() -> None:
    """Print the pinned vectors as ``tests/test_work_budget.py`` holds them."""
    from repro.servers.vendors import VENDOR_FACTORIES

    lines = []
    for name, work in (("CLEAN_FULL", clean_full_work), ("CHAOS", chaos_work)):
        lines.append(f"{name} = {{")
        for group, counts in work().table().items():
            lines.append(f'    "{group}": {{')
            lines.extend(f'        "{key}": {count},' for key, count in counts.items())
            lines.append("    },")
        lines.append("}")
    lines.append("TABLE3 = {")
    for vendor in VENDOR_FACTORIES:
        lines.append(f'    "{vendor}": {{')
        for group, row in table3_work(vendor).summary().items():
            lines.append(f'        "{group}": {row},')
        lines.append("    },")
    lines.append("}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
