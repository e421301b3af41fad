"""Unit + property tests for the discrete-event engine."""

import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run_until(10.0)
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for tag in "abcde":
            sim.schedule(1.0, fired.append, tag)
        sim.run(2.0)
        assert fired == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run_until(7.0)
        assert seen == [5.0]
        assert sim.now == 7.0

    def test_run_until_does_not_fire_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "later")
        sim.run_until(4.9)
        assert fired == []
        sim.run_until(5.0)
        assert fired == ["later"]

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, fired.append, "inner")

        sim.schedule(1.0, outer)
        sim.run(3.0)
        assert fired == ["outer", "inner"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-0.1, lambda: None)

    def test_cancellation(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run(2.0)
        assert fired == []
        assert sim.pending == 0

    def test_cancelled_event_drops_its_callback(self):
        """An owner may keep its cancelled event (a finished TCP connection
        keeps its timeout); the event must not keep the callback alive."""

        class Callback:
            def __call__(self):
                pass

        sim = Simulator()
        callback = Callback()
        alive = weakref.ref(callback)
        event = sim.schedule(1.0, callback)
        event.cancel()
        del callback
        assert alive() is None

    def test_fired_event_drops_its_callback(self):
        """An owner may keep a fired event (a timed-out TCP connection keeps
        its timeout); the event must not keep the callback alive."""

        class Callback:
            def __call__(self):
                pass

        sim = Simulator()
        callback = Callback()
        alive = weakref.ref(callback)
        event = sim.schedule(1.0, callback)
        sim.run(2.0)
        del callback
        assert alive() is None
        assert event.cancelled is False

    def test_close_cancels_queued_events_and_drops_their_callbacks(self):
        class Callback:
            def __call__(self):
                raise AssertionError("a closed simulator fired an event")

        sim = Simulator()
        callback = Callback()
        alive = weakref.ref(callback)
        kept = sim.schedule(1.0, callback)
        sim.schedule(2.0, callback).cancel()
        sim.close()
        del callback
        assert alive() is None
        assert sim.pending == 0
        kept.cancel()  # already cancelled: no counter moves
        assert sim.pending == 0
        sim.run(3.0)

    def test_pending_counts_live_events(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending == 5
        events[0].cancel()
        assert sim.pending == 4
        sim.run(2.0)  # fires the (live) event at t=2
        assert sim.pending == 3
        sim.run_until(5.0)
        assert sim.pending == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending == 0

    def test_cancel_after_fire_does_not_go_negative(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run(2.0)
        event.cancel()
        assert sim.pending == 0
        sim.schedule(1.0, lambda: None)
        assert sim.pending == 1

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.run(10.0)
        fired = []
        sim.schedule_at(15.0, fired.append, "x")
        sim.run_until(15.0)
        assert fired == ["x"]


class TestHeapCompaction:
    def test_queue_stays_bounded_under_schedule_cancel_churn(self):
        """A retransmit-timer workload (schedule far out, cancel immediately)
        must not grow the heap without bound: compaction drops dead tuples
        once they outnumber live entries."""
        sim = Simulator()
        keepers = [sim.schedule(1e9, lambda: None) for _ in range(10)]
        for _ in range(50_000):
            sim.schedule(1e6, lambda: None).cancel()
        assert sim.pending == len(keepers)
        # Without compaction the heap would hold ~50k dead tuples; with it,
        # the queue is bounded by live entries plus the trigger threshold.
        assert len(sim._queue) <= 2 * (len(keepers) + 64)
        assert sim.compactions > 0

    def test_compaction_preserves_order_and_counters(self):
        sim = Simulator()
        fired = []
        for i in range(200):
            sim.schedule(float(200 - i), fired.append, 200 - i)
        doomed = [sim.schedule(1e6, fired.append, "dead") for _ in range(500)]
        for event in doomed:
            event.cancel()
        assert sim.compactions > 0
        assert sim._dead < 500  # the compaction removed the bulk of them
        sim.run_until(300.0)
        assert fired == sorted(fired)
        assert len(fired) == 200
        assert sim.pending == 0

    def test_popping_cancelled_entries_keeps_dead_count_consistent(self):
        """Dead tuples removed by the run loop (not compaction) must be
        uncounted, or a later compaction trigger would misfire."""
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None).cancel()
        assert sim._dead == 10
        sim.run(2.0)  # pops the 10 dead tuples
        assert sim._dead == 0
        assert len(sim._queue) == 0

    def test_cancel_after_fire_does_not_count_as_dead(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run(2.0)
        event.cancel()
        assert sim._dead == 0


class TestDeterminism:
    def test_same_seed_same_rng_streams(self):
        a, b = Simulator(seed=5), Simulator(seed=5)
        assert a.rng_for("x").random() == b.rng_for("x").random()

    def test_named_streams_are_independent(self):
        sim = Simulator(seed=5)
        first = sim.rng_for("host/a")
        second = sim.rng_for("host/b")
        assert [first.random() for _ in range(4)] != [second.random() for _ in range(4)]

    def test_stream_does_not_depend_on_creation_order(self):
        one = Simulator(seed=9)
        one.rng_for("noise")
        value_after_noise = one.rng_for("target").random()
        two = Simulator(seed=9)
        value_direct = two.rng_for("target").random()
        assert value_after_noise == value_direct

    @given(st.lists(st.floats(min_value=0.001, max_value=100.0), min_size=1, max_size=30))
    def test_arbitrary_delays_fire_sorted(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run_until(100.0)
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
