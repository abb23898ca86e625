"""Virtual clock and discrete-event scheduler.

All simulated components share one :class:`Simulation`; time only
advances when :meth:`Simulation.run` (or a variant) processes events.
Event timestamps are floats in seconds.

The scheduler sits on every packet's path, so its per-event cost is
kept deliberately low:

* cancelled timers stay in the heap and are discarded lazily when they
  surface — the heap is only rebuilt (asyncio-style) once cancelled
  entries are both numerous and the majority;
* ``run``/``run_until`` peek the queue head once per event and pop it
  directly instead of re-scanning through :meth:`step`;
* ``run_until`` re-evaluates its predicate only after something that
  could have changed it: one per executed callback, plus the final
  deadline check only when the clock actually moved.

Ownership: the queue holds each pending :class:`Timer`, the timer its
callback (a bound method of something in the universe) and the clock;
:meth:`Simulation.clear` cuts all three when the universe ends (DESIGN §8).
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable

#: Rebuild the heap only once this many cancelled entries linger *and*
#: they outnumber the live ones (checked in ``Simulation._on_cancel``).
_MIN_STALE_TO_COMPACT = 64

#: Events one ``run``/``run_until`` call may process before it decides
#: the simulation is running away (a callback rescheduling itself).
MAX_EVENTS = 10_000_000


class Timer:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("when", "callback", "args", "cancelled", "_sim")

    def __init__(self, when: float, callback: Callable, args: tuple, sim=None):
        self.when = when
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Owning simulation while the timer sits in its queue; cleared
        #: when the timer fires or its heap entry is discarded, so late
        #: ``cancel()`` calls don't corrupt the stale-entry accounting.
        self._sim = sim

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                self._sim = None
                sim._on_cancel()


class Simulation:
    """A deterministic discrete-event loop with a virtual clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[tuple[float, int, Timer]] = []
        self._sequence = itertools.count()
        self._processed = 0
        self._stale = 0  # cancelled entries still sitting in the heap

    # -- scheduling -------------------------------------------------------

    def call_at(self, when: float, callback: Callable, *args) -> Timer:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if when < self.now:
            raise ValueError(f"cannot schedule in the past ({when} < {self.now})")
        timer = Timer(when, callback, args, self)
        heapq.heappush(self._queue, (when, next(self._sequence), timer))
        return timer

    def call_later(self, delay: float, callback: Callable, *args) -> Timer:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.call_at(self.now + delay, callback, *args)

    def _on_cancel(self) -> None:
        self._stale += 1
        if (
            self._stale > _MIN_STALE_TO_COMPACT
            and self._stale * 2 >= len(self._queue)
        ):
            # In-place so loops holding a reference to the list see the
            # compacted heap (a callback may cancel timers mid-run).
            self._queue[:] = [
                entry for entry in self._queue if not entry[2].cancelled
            ]
            heapq.heapify(self._queue)
            self._stale = 0

    def clear(self) -> None:
        """Drop every pending event, in place and idempotently.  The timers
        forget the clock, so a late ``cancel()`` cannot touch its counters."""
        for _, _, timer in self._queue:
            timer._sim = None
        self._queue.clear()
        self._stale = 0

    # -- execution ---------------------------------------------------------

    @property
    def processed_events(self) -> int:
        return self._processed

    def step(self) -> bool:
        """Process the next event; returns False if the queue is empty."""
        queue = self._queue
        while queue:
            when, _, timer = heapq.heappop(queue)
            if timer.cancelled:
                self._stale -= 1
                continue
            assert when >= self.now, "event queue went backwards"
            timer._sim = None
            self.now = when
            timer.callback(*timer.args)
            self._processed += 1
            return True
        return False

    def run(self, until: float | None = None) -> None:
        """Run until the queue drains or the clock reaches ``until``."""
        queue = self._queue
        for _ in range(MAX_EVENTS):
            peek = self._peek_time()
            if peek is None:
                if until is not None and until > self.now:
                    self.now = until
                return
            if until is not None and peek > until:
                self.now = until
                return
            when, _, timer = heapq.heappop(queue)
            timer._sim = None
            self.now = when
            timer.callback(*timer.args)
            self._processed += 1
        raise RuntimeError(f"simulation exceeded {MAX_EVENTS} events")

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 60.0,
    ) -> bool:
        """Run until ``predicate()`` is true; returns whether it became true.

        ``timeout`` is virtual seconds from the current instant.  The
        predicate is evaluated once up front and once after each
        executed callback; when the deadline passes it is re-evaluated
        only if the clock moved since the last check (nothing else can
        have changed its answer).
        """
        deadline = self.now + timeout
        if predicate():
            return True
        queue = self._queue
        for _ in range(MAX_EVENTS):
            peek = self._peek_time()
            if peek is None or peek > deadline:
                if deadline == self.now:
                    return False
                self.now = deadline
                return predicate()
            when, _, timer = heapq.heappop(queue)
            timer._sim = None
            self.now = when
            timer.callback(*timer.args)
            self._processed += 1
            if predicate():
                return True
        raise RuntimeError(f"simulation exceeded {MAX_EVENTS} events")

    def next_event_time(self) -> float | None:
        """Timestamp of the earliest live event, or None when idle.

        Public peek used by drivers that pace the virtual clock against
        an external one (the loopback bridge maps virtual delays onto
        asyncio timers); does not advance time or run anything.
        """
        return self._peek_time()

    def fire_head(self) -> None:
        """Pop and run the head event a preceding peek proved live.

        Companion to :meth:`next_event_time` for drivers that peek
        every event anyway (the interleaved scheduler inspects each
        event's timestamp to decide whether to yield first): the peek
        already skimmed cancelled entries off the top, so this pops the
        exact head without re-scanning — one heap access per event
        where peek-then-:meth:`step` pays two.  Only safe immediately
        after a peek that returned a time, with no scheduling in
        between; an empty queue means the contract was broken.
        """
        when, _, timer = heapq.heappop(self._queue)
        timer._sim = None
        self.now = when
        timer.callback(*timer.args)
        self._processed += 1

    def _peek_time(self) -> float | None:
        queue = self._queue
        while queue:
            when, _, timer = queue[0]
            if timer.cancelled:
                heapq.heappop(queue)
                self._stale -= 1
                continue
            return when
        return None
