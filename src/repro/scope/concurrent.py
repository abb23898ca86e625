"""Single-loop session multiplexing: N in-flight probe sessions, one lane.

``BENCH_parallel_scan.json`` showed process sharding is a net *loss* on
small hosts (fork/IPC overhead dominates post-PR-4 per-site cost), and
the paper's own prober only reached the Alexa-1M by keeping thousands
of connections in flight from one process.  This module is that lever:
a cooperative scheduler that keeps up to ``concurrency`` probe sessions
in flight inside one process, on one logical event loop.

Two facts make this safe and simple:

* **Private universes.**  Every site is scanned in its own
  ``Simulation`` + ``Network`` seeded ``(seed + site_index)``, so a
  site's report is a pure function of the manifest.  *Any* interleaving
  of sessions therefore preserves byte-identical reports — the
  scheduler only has to be deterministic (stable completion order),
  non-starving, and isolated (one session's fault or retry cannot stall
  the others).
* **Sans-IO probes.**  All probe waits go through
  ``TransportBackend.run_until`` / ``sleep_until`` (PR 5), so a backend
  subclass can slice those waits at event boundaries and hand control
  to whichever session is earliest on a *global* virtual clock.

Scheduler model (the "baton")
-----------------------------

Probe code is synchronous, so a mid-scan session lives on an OS thread
— but exactly **one** thread runs at a time: a baton is handed off at
backend wait points, which is what makes this a single logical event
loop rather than a thread pool.  Each lane ``i`` is admitted at global
virtual time ``offset_i`` (the global clock when a slot freed) and its
global position is ``offset_i + sim_i.now``.  When a lane reaches a
wait, :class:`InterleavedBackend` computes the global time of its next
step (next simulation event, or the wait deadline) and parks if — and
only if — some other lane wakes earlier: **global virtual time only
advances when every lane with an earlier wake-up has run**.  The
deterministic policy always grants the lane with the minimal
``(wake_time, admission_index)``; because ties are broken by admission
index, the schedule (and thus the completion order) is a pure function
of the task list.

The slice optimisation matters: a full park/resume handoff costs two
Event round-trips, so a lane only parks when another lane's wake time
is actually earlier — otherwise it keeps running inline.  With similar
per-site costs a lane processes many events per handoff and the
scheduling overhead stays a few percent of the scan itself.

Scaling to 16k lanes (ISSUE 9)
------------------------------

Two costs used to bound the usable width at ~1k:

* **O(active) grant arithmetic.**  Picking the next lane and computing
  its run horizon were linear scans over every in-flight lane — two
  full passes per handoff, ~130M lane visits for one 16k-wide sweep.
  The deterministic policy is now an indexed min-heap keyed on
  ``(position, index)`` with lazy invalidation (:class:`_HeapPolicy`):
  ``pick`` is the heap top, the horizon is the second-best entry, both
  O(log n) amortised.  The PR 8 linear arithmetic is retained verbatim
  as :class:`_LinearPolicy` (the ``huffman_ref`` idiom) and the test
  battery asserts decision-for-decision equality between the two.

* **A stack per mid-scan lane.**  A mid-scan lane's continuation is
  its thread stack — that cannot be recycled without native stack
  switching.  But a lane that has not been *granted* yet has a trivial
  continuation ("start the scan"), and its universe does not exist yet
  either.  So lane *starts* are gated on a bounded recycling pool of
  runner threads (:class:`_LanePool`, :data:`LANE_POOL_SIZE` of
  them): admitted lanes queue as lightweight
  ``_Lane`` records, at most ``pool`` of them are ever mid-scan, and a
  runner that finishes a site picks up the next fresh lane instead of
  dying — resident stacks *and* live universes drop from O(width) to
  O(pool), and thread churn from O(sites) to O(pool).  Gating cannot
  change a single byte: universes are private, a lane's position
  trajectory (``offset + local event times``) is independent of when
  it executes, and admission offsets — the only cross-lane coupling —
  are still assigned by the same global-clock rule.  With
  ``pool >= width`` no start is ever deferred (the grant sequence of a
  thread per lane); with a smaller pool the schedule is still a pure
  function of the task list, just with starts deferred until a runner
  frees.

Where it runs: only ``run_campaign(concurrency=N)`` with ``N > 1``
reaches this scheduler, through :mod:`repro.scope.parallel`'s in-process
path (``workers <= 1``); the ``sim_chaos_c64`` benchmark workload is
that call.  Worker processes scan one site per message, serially, and
the CLI's ``--concurrency`` is the socket backend's pool width: on the
simulated backend it is refused, because nothing the CLI prints reads
the modeled makespan lanes produce.
"""

from __future__ import annotations

import heapq
import queue
import threading
import time
import warnings
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from repro.net.backend import SimulatedBackend
from repro.scope.report import SiteReport

_INFINITY = float("inf")

#: Stack size for lane threads.  Lanes are shallow (probe code plus the
#: engine's callback nesting), and ~1k in-flight lanes at the default
#: 8 MiB would reserve gigabytes of address space for nothing.
LANE_STACK_BYTES = 1 << 20

#: Size of the lane-runner recycling pool: how many lanes may be
#: mid-scan (thread + universe resident) at once.  Admitted lanes beyond
#: the pool wait as queue records until a runner frees.  Read when a
#: scheduler is built, so tests shrink it with ``monkeypatch``.
LANE_POOL_SIZE = 64

#: Hard ceiling on ``run_campaign(concurrency=)``.  Beyond 16k lanes the
#: admission window stops buying modeled makespan on any realistic
#: population (the longest site dominates) while per-lane bookkeeping
#: keeps growing; requests above it are clamped with a warning.
MAX_CONCURRENCY = 16384

#: Seconds a lane/runner thread gets to exit after finishing or being
#: aborted before the scheduler declares it leaked and raises
#: :class:`LaneLeakError`.  Module-level so tests can shrink it.
LANE_JOIN_TIMEOUT = 10.0

#: Hard ceiling on events processed inside one ``run_until`` /
#: ``sleep_until`` slice — the same runaway guard ``Simulation.run``
#: applies, kept so a pathological self-rescheduling universe cannot
#: wedge the whole scheduler.
_MAX_SLICE_EVENTS = 10_000_000


class SchedulerAbort(BaseException):
    """Raised inside a lane thread to unwind an aborted scan.

    Deliberately a ``BaseException``: the probe layer's "a scan survives
    anything" handlers catch ``Exception``, and an abort must tear the
    lane down, not become an error-bearing report.
    """


class LaneLeakError(RuntimeError):
    """A lane or runner thread outlived the scheduler's join deadline.

    PR 8 silently ignored a ``join`` timeout, which would have left a
    wedged lane thread running (and its universe resident) behind a
    "completed" campaign.  The scheduler now names the leak instead of
    shrugging: this error lists the threads that refused to exit so the
    wedge is attributable rather than a slow memory mystery.
    """


@dataclass
class ConcurrencyMetrics:
    """Observable scheduler behaviour, for tests and the benchmark.

    ``virtual_makespan`` is the campaign's end-to-end *global* virtual
    time: what the wall-clock duration becomes once the waits are real
    network waits instead of simulated ones.  It is a property of the
    simulated population, modeled seconds, never a wall-clock rate
    (interleaving cannot shrink CPU time, only overlap virtual waits).
    """

    concurrency: int = 1
    admitted: int = 0
    completed: int = 0
    #: Most lanes simultaneously in flight (never above ``concurrency``).
    high_water: int = 0
    #: Most lanes simultaneously *mid-scan* — thread + universe resident.
    #: Bounded by the lane pool size, not the admission width.
    resident_high_water: int = 0
    #: OS threads created over the scheduler's lifetime: O(pool), not
    #: one per admitted lane.
    threads_spawned: int = 0
    #: Full park/resume baton handoffs (the slice optimisation keeps
    #: this far below the event count).
    handoffs: int = 0
    #: Global virtual time at which the last lane completed.
    virtual_makespan: float = 0.0


class _Lane:
    """One in-flight session: its clock offset, position and park state."""

    __slots__ = (
        "index",
        "task",
        "offset",
        "position",
        "horizon_g",
        "horizon_index",
        "resume",
        "started",
        "finished",
        "report",
        "failure",
        "aborted",
        "handoffs",
        "heap_entry",
        "_baton",
    )

    def __init__(self, index: int, task, offset: float, baton: threading.Event):
        self.index = index
        self.task = task
        #: Global virtual time at admission; the lane's global position
        #: is ``offset + local_sim.now``.
        self.offset = offset
        self.position = offset
        self.horizon_g = _INFINITY
        self.horizon_index = -1
        self.resume = threading.Event()
        #: True once the lane has been granted for the first time and a
        #: runner is hosting its scan.  A lane that never started holds
        #: no thread and no universe — only this record.
        self.started = False
        self.finished = False
        self.report: SiteReport | None = None
        self.failure: BaseException | None = None
        self.aborted = False
        self.handoffs = 0
        #: The policy's current heap entry for this lane; identity is
        #: the validity token for lazy invalidation.
        self.heap_entry: tuple | None = None
        self._baton = baton

    # Called by InterleavedBackend before every step that would move
    # this lane's global position to ``wake_g`` — the scheduler's only
    # hook into the scan, so it is kept deliberately cheap: two float
    # compares on the inline path, a full handoff only when another
    # lane genuinely wakes earlier.
    def advance(self, wake_g: float) -> None:
        if self.aborted:
            raise SchedulerAbort
        if wake_g < self.position:  # global position is monotone (the
            wake_g = self.position  # backward-clock oddity stays local)
        if wake_g < self.horizon_g or (
            wake_g == self.horizon_g and self.index < self.horizon_index
        ):
            self.position = wake_g
            return
        self._park(wake_g)

    def _park(self, wake_g: float) -> None:
        self.position = wake_g
        self.handoffs += 1
        self.resume.clear()
        self._baton.set()  # hand control back to the scheduler…
        self.resume.wait()  # …and sleep until granted again
        if self.aborted:
            raise SchedulerAbort


class InterleavedBackend(SimulatedBackend):
    """A :class:`SimulatedBackend` whose waits yield at event boundaries.

    Byte-compatibility contract: for the session's *private* universe
    this class is observationally identical to ``SimulatedBackend`` —
    the same events run at the same local times, the predicate is
    evaluated exactly as often (once up front, once per executed
    callback, once at the deadline only when the clock moved), and the
    pinned PR 4 edge semantics hold: a ``timeout=0`` wait returns False
    without re-evaluating the predicate when the clock did not move, and
    ``sleep_until`` a time *before* now preserves ``Simulation.run``'s
    documented backward-clock oddity by delegating the final clock move
    to it.  The only addition is a :meth:`_Lane.advance` call before
    each step, which may suspend the thread — invisible to the scan.

    The event loop here is the scheduler's innermost hot path (one
    iteration per simulated packet), so it uses the paired
    ``Simulation.next_event_time`` + ``Simulation.fire_head`` calls:
    the peek already skimmed cancelled entries off the heap top, and
    ``fire_head`` pops and runs that exact head without re-scanning —
    one heap access per event instead of two.
    """

    def __init__(self, network, lane: _Lane):
        super().__init__(network)
        self._lane = lane

    def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        sim = self.sim
        lane = self._lane
        offset = lane.offset
        deadline = sim.now + timeout
        if predicate():
            return True
        for _ in range(_MAX_SLICE_EVENTS):
            peek = sim.next_event_time()
            if peek is None or peek > deadline:
                if deadline == sim.now:
                    return False
                lane.advance(offset + deadline)
                sim.run(until=deadline)
                return predicate()
            lane.advance(offset + peek)
            sim.fire_head()
            if predicate():
                return True
        raise RuntimeError(f"simulation exceeded {_MAX_SLICE_EVENTS} events")

    def sleep_until(self, when: float) -> None:
        sim = self.sim
        lane = self._lane
        offset = lane.offset
        for _ in range(_MAX_SLICE_EVENTS):
            peek = sim.next_event_time()
            if peek is None or peek > when:
                break
            lane.advance(offset + peek)
            sim.fire_head()
        else:  # pragma: no cover - runaway universe
            raise RuntimeError(f"simulation exceeded {_MAX_SLICE_EVENTS} events")
        if when > sim.now:
            lane.advance(offset + when)
        sim.run(until=when)


#: Virtual seconds a granted lane may run *past* the earliest other
#: lane's position before parking.  Byte-identity never depends on the
#: global interleaving (universes are private), so strict event-level
#: lockstep buys nothing but handoffs — and with near-identical
#: universes the lanes tie at every event boundary, degrading to one
#: park per simulated event (~25 handoffs/site).  A fixed quantum keeps
#: the schedule a pure function of (position, index) — still fully
#: deterministic — while cutting handoffs roughly tenfold; the global
#: clock skew it admits is bounded by the quantum itself.
_HORIZON_QUANTUM = 0.5


class _LinearPolicy:
    """PR 8's grant arithmetic, verbatim: two O(n) scans per handoff.

    Retained as the executable reference the heap policy is proved
    against (the ``huffman_ref`` idiom): ``peek`` is a full min-scan
    over the started lanes, ``best_other`` a second scan excluding the
    granted lane.  Selectable via ``grant_policy="linear"`` so whole
    campaigns can be run decision-for-decision against the heap.
    """

    __slots__ = ("lanes",)

    def __init__(self) -> None:
        self.lanes: list[_Lane] = []

    def add(self, lane: _Lane) -> None:
        self.lanes.append(lane)

    def remove(self, lane: _Lane) -> None:
        self.lanes.remove(lane)

    def reposition(self, lane: _Lane) -> None:
        pass  # the scan always reads live positions

    def peek(self) -> _Lane | None:
        """The started lane with minimal ``(position, index)``."""
        if not self.lanes:
            return None
        return min(self.lanes, key=lambda lane: (lane.position, lane.index))

    def best_other(self, granted: _Lane) -> tuple[float, int]:
        """Minimal ``(position, index)`` over started lanes != granted."""
        best_g, best_index = _INFINITY, -1
        for other in self.lanes:
            if other is granted:
                continue
            if other.position < best_g or (
                other.position == best_g and other.index < best_index
            ):
                best_g, best_index = other.position, other.index
        return best_g, best_index


class _HeapPolicy:
    """Indexed min-heap over started lanes, lazily invalidated.

    Entries are ``(position, index, lane)`` tuples; ``lane.heap_entry``
    holds the lane's *current* entry and is the validity token — a
    reposition pushes a fresh entry and orphans the old one, which is
    discarded when it surfaces at the top.  Admission indexes are
    unique, so entries totally order even at tied or infinite
    positions and the lane object itself is never compared.

    ``peek`` skims stale entries then reads the top; ``best_other``
    needs the best entry *excluding* the granted lane, which is found
    by popping the granted lane's (single) valid entry aside, reading
    the next fresh top, and pushing it back — O(log n) amortised, and
    every stale entry is paid for exactly once across the run.
    """

    __slots__ = ("_heap", "_size")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, _Lane]] = []
        self._size = 0  # live entries, for the compaction bound

    def add(self, lane: _Lane) -> None:
        entry = (lane.position, lane.index, lane)
        lane.heap_entry = entry
        heapq.heappush(self._heap, entry)
        self._size += 1

    def remove(self, lane: _Lane) -> None:
        lane.heap_entry = None  # the orphan is dropped when it surfaces
        self._size -= 1

    def reposition(self, lane: _Lane) -> None:
        entry = (lane.position, lane.index, lane)
        lane.heap_entry = entry
        heapq.heappush(self._heap, entry)

    def _skim(self) -> None:
        heap = self._heap
        while heap and heap[0][2].heap_entry is not heap[0]:
            heapq.heappop(heap)

    def peek(self) -> _Lane | None:
        self._skim()
        return self._heap[0][2] if self._heap else None

    def best_other(self, granted: _Lane) -> tuple[float, int]:
        heap = self._heap
        aside = None
        result = (_INFINITY, -1)
        while heap:
            entry = heap[0]
            if entry[2].heap_entry is not entry:
                heapq.heappop(heap)  # stale: gone for good
                continue
            if entry[2] is granted:  # its single valid entry
                aside = heapq.heappop(heap)
                continue
            # A best-other parked at +inf is indistinguishable from "no
            # other lane" in the linear arithmetic (its strict compares
            # never displace the (inf, -1) sentinel); reproduce that
            # exactly so the policies stay decision-identical.
            if entry[0] < _INFINITY:
                result = (entry[0], entry[1])
            break
        if aside is not None:
            heapq.heappush(heap, aside)
        return result


def _spawn_lane_thread(target, name: str, *args) -> threading.Thread:
    """Start a daemon thread with the small lane stack size."""
    thread = threading.Thread(target=target, args=args, name=name, daemon=True)
    try:
        previous = threading.stack_size(LANE_STACK_BYTES)
    except (ValueError, RuntimeError):  # pragma: no cover - platform
        previous = None
    try:
        thread.start()
    finally:
        if previous is not None:
            threading.stack_size(previous)
    return thread


class _LanePool:
    """Bounded recycling pool of reusable lane-runner threads.

    A runner picks up a fresh lane's continuation at grant time, hosts
    the scan through every park/resume on its own stack until the site
    finishes, then returns to the queue for the next lane.  The
    scheduler's slot gate guarantees at most ``size`` lanes are ever
    mid-scan, so resident stacks and universes are O(size) while the
    admission window is O(width) lightweight records — and a
    million-site campaign creates ``size`` threads, not a million.
    """

    __slots__ = ("size", "_main", "_inbox", "threads")

    def __init__(self, size: int, main: Callable[[_Lane], None]) -> None:
        self.size = size
        self._main = main
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self.threads: list[threading.Thread] = []

    def ensure_threads(self, busy: int) -> None:
        """Spawn runners lazily: just enough for ``busy`` hosted lanes."""
        while len(self.threads) < min(busy, self.size):
            self.threads.append(
                _spawn_lane_thread(
                    self._run, f"h2scope-lane-runner-{len(self.threads)}"
                )
            )

    def dispatch(self, lane: _Lane) -> None:
        self._inbox.put(lane)

    def _run(self) -> None:
        while True:
            lane = self._inbox.get()
            if lane is None:
                return
            self._main(lane)

    def shutdown(self, deadline: float) -> list[threading.Thread]:
        """Stop all runners; return the ones alive past ``deadline``."""
        for _ in self.threads:
            self._inbox.put(None)
        leaked = []
        for thread in self.threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                leaked.append(thread)
        return leaked


class InterleavedScheduler:
    """Run site scans as cooperatively interleaved virtual-time lanes.

    A generator factory: :meth:`run` yields one
    :class:`~repro.scope.parallel.SiteResult` per task in (globally
    deterministic) completion order.  Teardown is exception-safe: on
    ``GeneratorExit`` / ``KeyboardInterrupt`` every lane is aborted and
    joined, so ``run_campaign``'s SIGINT path flushes its journal with
    no lane thread left running — and a lane that *refuses* to die is
    reported as a :class:`LaneLeakError` instead of silently leaked.
    """

    def __init__(
        self,
        sites,
        tasks: Iterable,
        options,
        *,
        concurrency: int,
        metrics: ConcurrencyMetrics | None = None,
        grant_policy: str = "heap",
    ):
        self.sites = sites
        self.tasks = list(tasks)
        self.options = options
        concurrency = max(1, int(concurrency))
        if concurrency > MAX_CONCURRENCY:
            warnings.warn(
                "concurrency exceeds the 16384-lane ceiling; clamping "
                "(wider admission windows stop buying modeled makespan)",
                RuntimeWarning,
                stacklevel=2,
            )
            concurrency = MAX_CONCURRENCY
        self.concurrency = concurrency
        self.metrics = metrics if metrics is not None else ConcurrencyMetrics()
        self.metrics.concurrency = self.concurrency
        if grant_policy == "heap":
            self._policy = _HeapPolicy()
        elif grant_policy == "linear":
            self._policy = _LinearPolicy()
        else:
            raise ValueError(f"unknown grant policy {grant_policy!r}")
        self._pool = _LanePool(LANE_POOL_SIZE, self._lane_main)
        self._quantum = _HORIZON_QUANTUM
        self._baton = threading.Event()
        self._next_index = 0

    # -- lane side ---------------------------------------------------------

    def _lane_main(self, lane: _Lane) -> None:
        from repro.scope.parallel import _scan_one

        try:
            report = lane.report = _scan_one(
                self.sites[lane.task.site_index],
                lane.task,
                self.options,
                backend_factory=lambda network: InterleavedBackend(network, lane),
            )
            # Waits that bypass the backend (``icmp_ping`` runs the
            # clock itself) never reach ``advance``; a lane whose last
            # wait was one of those would finish short of its own site.
            lane.position = max(lane.position, lane.offset + report.scan_virtual_time)
        except SchedulerAbort:
            pass
        except BaseException as exc:  # pragma: no cover - driver bug
            lane.failure = exc
        finally:
            lane.finished = True
            self._baton.set()

    # -- scheduler side ----------------------------------------------------

    def _admit(self, task, global_now: float) -> _Lane:
        lane = _Lane(self._next_index, task, global_now, self._baton)
        self._next_index += 1
        self.metrics.admitted += 1
        return lane

    def _start_lane(self, lane: _Lane, busy: int) -> None:
        """Hand a never-granted lane to a pool runner."""
        lane.started = True
        pool = self._pool
        pool.ensure_threads(busy)
        self.metrics.threads_spawned = len(pool.threads)
        pool.dispatch(lane)

    def _teardown(self, lanes: Iterable[_Lane]) -> None:
        """Abort every lane, reclaim every thread, and name any leak.

        Repeated ``resume.set()`` closes the clear()/set() race with a
        lane that is parking concurrently with the abort.  Fresh lanes
        never started, so they hold no thread and just get dropped.
        """
        lanes = list(lanes)
        for lane in lanes:
            lane.aborted = True
        deadline = time.monotonic() + LANE_JOIN_TIMEOUT
        pending = [
            lane for lane in lanes if lane.started and not lane.finished
        ]
        while pending and time.monotonic() < deadline:
            for lane in pending:
                lane.resume.set()
            time.sleep(0.002)
            pending = [lane for lane in pending if not lane.finished]
        leaked = self._pool.shutdown(deadline)
        if pending or leaked:
            stuck = ", ".join(
                f"lane {lane.index} ({lane.task.domain})" for lane in pending
            ) or "no lane still marked unfinished"
            names = ", ".join(repr(t.name) for t in leaked) or "none"
            raise LaneLeakError(
                f"scheduler teardown leaked threads after "
                f"{LANE_JOIN_TIMEOUT}s: {stuck}; alive threads: {names}"
            )

    def run(self) -> Iterator:
        from repro.scope.parallel import SiteResult

        backlog = deque(self.tasks)
        fresh: deque[_Lane] = deque()
        in_flight: set[_Lane] = set()
        policy = self._policy
        pool_cap = self._pool.size
        metrics = self.metrics
        baton = self._baton
        quantum = self._quantum
        concurrency = self.concurrency
        global_now = 0.0
        # Hot-loop counters live in locals (attribute stores per handoff
        # were measurable at width 16k); flushed on completion/teardown.
        started = completed = handoffs = 0
        high_water = resident_high = 0
        makespan = 0.0
        try:
            while backlog or in_flight:
                while backlog and len(in_flight) < concurrency:
                    lane = self._admit(backlog.popleft(), global_now)
                    fresh.append(lane)
                    in_flight.add(lane)
                if len(in_flight) > high_water:
                    high_water = len(in_flight)
                # -- pick: min (position, index) over runnable lanes.
                # Fresh lanes are runnable only while a pool slot is
                # free; they are admission-ordered, and offsets are
                # monotone, so the deque head is their best entry.
                lane = policy.peek()
                if fresh and started < pool_cap:
                    head = fresh[0]
                    if lane is None or (head.position, head.index) < (
                        lane.position,
                        lane.index,
                    ):
                        lane = head
                first_grant = not lane.started
                if first_grant:
                    fresh.popleft()
                    policy.add(lane)
                    started += 1
                    if started > resident_high:
                        resident_high = started
                if lane.position > global_now:
                    global_now = lane.position
                # -- horizon: earliest other runnable lane + quantum.
                best_g, best_index = policy.best_other(lane)
                if fresh and started < pool_cap:
                    head = fresh[0]
                    if head.position < best_g or (
                        head.position == best_g and head.index < best_index
                    ):
                        best_g, best_index = head.position, head.index
                lane.horizon_g = (
                    best_g + quantum if best_g < _INFINITY else best_g
                )
                lane.horizon_index = best_index
                baton.clear()
                if first_grant:
                    self._start_lane(lane, started)
                else:
                    lane.resume.set()
                # Exactly one lane runs between grants, so the baton can
                # only be set by ``lane`` parking or finishing.
                baton.wait()
                handoffs += 1
                if lane.finished:
                    policy.remove(lane)
                    in_flight.discard(lane)
                    started -= 1
                    completed += 1
                    if lane.position > global_now:
                        global_now = lane.position
                    if lane.position > makespan:
                        makespan = lane.position
                    if lane.failure is not None:
                        raise lane.failure
                    metrics.completed = completed
                    metrics.handoffs = handoffs
                    metrics.high_water = high_water
                    metrics.resident_high_water = resident_high
                    metrics.virtual_makespan = makespan
                    yield SiteResult(lane.task, lane.report)
                else:
                    policy.reposition(lane)
        finally:
            metrics.completed = completed
            metrics.handoffs = handoffs
            metrics.high_water = high_water
            metrics.resident_high_water = resident_high
            metrics.virtual_makespan = makespan
            self._teardown(in_flight)


def scan_interleaved(
    sites,
    tasks: Iterable,
    options,
    *,
    concurrency: int | None = None,
    metrics: ConcurrencyMetrics | None = None,
    grant_policy: str = "heap",
) -> Iterator:
    """Scan ``tasks`` with up to ``concurrency`` interleaved sessions.

    Yields :class:`~repro.scope.parallel.SiteResult` in completion
    order, a pure function of the task list.  ``concurrency`` defaults to
    ``options.concurrency`` and is clamped to :data:`MAX_CONCURRENCY`
    (16384 lanes).  With one task or ``concurrency <= 1`` the scheduler
    machinery is bypassed entirely — the plain serial loop is both
    faster and the baseline the determinism battery diffs against.

    ``grant_policy`` selects the deterministic grant arithmetic:
    ``"heap"`` (O(log n), default) or ``"linear"`` (the retained PR 8
    reference) — the two are decision-identical, which the test battery
    proves.  At most :data:`LANE_POOL_SIZE` lanes are mid-scan at once.
    """
    from repro.scope.parallel import SiteResult, _scan_one

    tasks = list(tasks)
    if concurrency is None:
        concurrency = getattr(options, "concurrency", 1)
    concurrency = max(1, int(concurrency))
    if concurrency <= 1 or len(tasks) <= 1:
        if metrics is not None:
            metrics.concurrency = concurrency
            metrics.admitted = metrics.completed = len(tasks)
            metrics.high_water = min(1, len(tasks))
            metrics.resident_high_water = min(1, len(tasks))
        makespan = 0.0
        for task in tasks:
            result = SiteResult(
                task, _scan_one(sites[task.site_index], task, options)
            )
            makespan += result.report.scan_virtual_time
            if metrics is not None:
                metrics.virtual_makespan = makespan
            yield result
        return
    scheduler = InterleavedScheduler(
        sites,
        tasks,
        options,
        concurrency=concurrency,
        metrics=metrics,
        grant_policy=grant_policy,
    )
    yield from scheduler.run()
