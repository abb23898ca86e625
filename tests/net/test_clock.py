"""Virtual clock and event scheduler."""

import pytest

from repro.net import clock
from repro.net.clock import Simulation
from tests.support.readers import pending_events


class TestScheduling:
    def test_call_later_advances_clock(self):
        sim = Simulation()
        fired = []
        sim.call_later(1.5, fired.append, "a")
        sim.run()
        assert fired == ["a"]
        assert sim.now == 1.5

    def test_events_fire_in_time_order(self):
        sim = Simulation()
        fired = []
        sim.call_later(3.0, fired.append, "late")
        sim.call_later(1.0, fired.append, "early")
        sim.call_later(2.0, fired.append, "mid")
        sim.run()
        assert fired == ["early", "mid", "late"]

    def test_same_time_events_fire_fifo(self):
        sim = Simulation()
        fired = []
        for tag in "abc":
            sim.call_at(1.0, fired.append, tag)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulation()
        sim.call_later(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.call_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulation().call_later(-1, lambda: None)

    def test_callbacks_may_schedule_more(self):
        sim = Simulation()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.call_later(1.0, chain, n + 1)

        sim.call_later(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestCancellation:
    def test_cancelled_timer_does_not_fire(self):
        sim = Simulation()
        fired = []
        timer = sim.call_later(1.0, fired.append, "x")
        timer.cancel()
        sim.run()
        assert fired == []

    def test_pending_events_ignores_cancelled(self):
        sim = Simulation()
        t = sim.call_later(1.0, lambda: None)
        sim.call_later(2.0, lambda: None)
        t.cancel()
        assert pending_events(sim) == 1


class TestRunVariants:
    def test_run_until_time_bound(self):
        sim = Simulation()
        fired = []
        sim.call_later(1.0, fired.append, "a")
        sim.call_later(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_predicate(self):
        sim = Simulation()
        state = {"done": False}
        sim.call_later(1.0, lambda: None)
        sim.call_later(2.0, state.__setitem__, "done", True)
        sim.call_later(9.0, lambda: None)
        assert sim.run_until(lambda: state["done"], timeout=5.0)
        assert sim.now == 2.0

    def test_run_until_timeout_returns_false(self):
        sim = Simulation()
        sim.call_later(100.0, lambda: None)
        assert not sim.run_until(lambda: False, timeout=1.0)
        assert sim.now == pytest.approx(1.0)

    def test_run_until_with_empty_queue(self):
        sim = Simulation()
        assert not sim.run_until(lambda: False, timeout=1.0)

    def test_step_returns_false_when_empty(self):
        assert not Simulation().step()

    def test_processed_events_counter(self):
        sim = Simulation()
        for _ in range(4):
            sim.call_later(1.0, lambda: None)
        sim.run()
        assert sim.processed_events == 4

    def test_runaway_guard(self, monkeypatch):
        monkeypatch.setattr(clock, "MAX_EVENTS", 100)
        sim = Simulation()

        def forever():
            sim.call_later(0.0, forever)

        sim.call_later(0.0, forever)
        with pytest.raises(RuntimeError):
            sim.run()


class TestEventAccounting:
    def test_pending_events_counts_live_entries(self):
        sim = Simulation()
        timers = [sim.call_later(float(i + 1), lambda: None) for i in range(10)]
        assert pending_events(sim) == 10
        for timer in timers[:4]:
            timer.cancel()
        assert pending_events(sim) == 6
        sim.run()
        assert pending_events(sim) == 0
        assert sim.processed_events == 6

    def test_double_cancel_does_not_corrupt_counter(self):
        sim = Simulation()
        timer = sim.call_later(1.0, lambda: None)
        sim.call_later(2.0, lambda: None)
        timer.cancel()
        timer.cancel()
        assert pending_events(sim) == 1

    def test_cancel_after_fire_does_not_corrupt_counter(self):
        sim = Simulation()
        timer = sim.call_later(1.0, lambda: None)
        sim.call_later(2.0, lambda: None)
        sim.run(until=1.5)
        timer.cancel()  # already fired: must be a no-op
        assert pending_events(sim) == 1
        sim.run()
        assert sim.processed_events == 2

    def test_mass_cancellation_compacts_lazily_and_still_fires_rest(self):
        sim = Simulation()
        fired = []
        keep = []
        doomed = []
        for i in range(500):
            doomed.append(sim.call_later(1.0 + i * 0.001, lambda: None))
            keep.append(sim.call_later(2.0 + i * 0.001, fired.append, i))
        for timer in doomed:
            timer.cancel()
        # Compaction must have culled the heap below its full size.
        assert len(sim._queue) < 1000
        assert pending_events(sim) == 500
        sim.run()
        assert fired == list(range(500))

    def test_callback_cancelling_timers_mid_run_is_safe(self):
        sim = Simulation()
        fired = []
        victims = [sim.call_later(5.0 + i * 0.01, fired.append, i) for i in range(200)]

        def massacre():
            for timer in victims:
                timer.cancel()

        sim.call_later(1.0, massacre)
        sim.call_later(9.0, fired.append, "survivor")
        sim.run()
        assert fired == ["survivor"]


class TestRunSemantics:
    def test_run_with_until_before_now_moves_clock_to_until(self):
        # Documented oddity preserved from the original loop: an `until`
        # in the past pulls the clock back (callers never do this, but
        # the rewrite must not silently change it).
        sim = Simulation()
        sim.call_later(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0
        sim.call_later(5.0, lambda: None)
        sim.run(until=0.5)
        assert sim.now == 0.5

    def test_run_until_deadline_exactly_now_skips_predicate_recheck(self):
        sim = Simulation()
        calls = []

        def predicate():
            calls.append(sim.now)
            return False

        assert not sim.run_until(predicate, timeout=0.0)
        # One up-front evaluation; the deadline exit must not re-ask
        # when the clock did not move.
        assert calls == [0.0]

    def test_run_until_reevaluates_when_clock_moved_to_deadline(self):
        sim = Simulation()
        assert sim.run_until(lambda: sim.now >= 1.0, timeout=1.0)
        assert sim.now == 1.0

    def test_run_until_counts_each_event_once(self):
        sim = Simulation()
        calls = []
        for i in range(3):
            sim.call_later(float(i + 1), lambda: None)
        sim.run_until(lambda: bool(calls.append(0)) or False, timeout=10.0)
        # up-front + once per processed event + once at the deadline
        assert len(calls) == 1 + 3 + 1


class TestClear:
    """``Simulation.clear``: the universe's end drops the heap for good."""

    def test_clear_drops_pending_events_and_keeps_the_clock(self):
        sim = Simulation()
        fired = []
        sim.call_later(1.0, fired.append, "early")
        sim.run()
        sim.call_later(1.0, fired.append, "dropped")
        sim.call_later(2.0, fired.append, "dropped too").cancel()
        sim.clear()
        assert pending_events(sim) == 0
        assert sim.next_event_time() is None
        sim.run()  # returns at once: nothing is left to run
        assert not sim.step()
        assert fired == ["early"]
        assert sim.now == 1.0
        assert sim.processed_events == 1

    def test_cancel_of_a_dropped_timer_leaves_the_count_at_zero(self):
        sim = Simulation()
        timer = sim.call_later(1.0, lambda: None)
        sim.clear()
        timer.cancel()
        assert timer.cancelled
        assert pending_events(sim) == 0
        # ... and the accounting is sound for whatever is scheduled next.
        sim.call_later(1.0, lambda: None)
        assert pending_events(sim) == 1
        sim.run()
        assert pending_events(sim) == 0

    def test_clear_is_idempotent_and_safe_on_an_empty_queue(self):
        sim = Simulation()
        sim.clear()
        sim.call_later(1.0, lambda: None)
        sim.clear()
        sim.clear()
        assert pending_events(sim) == 0
        assert not sim.run_until(lambda: False, timeout=0.0)

    def test_clear_releases_the_callbacks(self):
        import weakref

        class Owner:
            def tick(self):
                pass

        sim = Simulation()
        owner = Owner()
        gone = weakref.ref(owner)
        sim.call_later(1.0, owner.tick)
        del owner
        assert gone() is not None  # the queued timer holds the bound method
        sim.clear()
        assert gone() is None
