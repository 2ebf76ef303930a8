"""Tests for the discrete-event loop."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.simnet.simulator import MIN_COMPACTION_SIZE, Simulator
from tests.simnet.test_scheduler_oracle import _ListScheduler


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_equal_times_fire_fifo(self):
        sim = Simulator()
        fired = []
        for tag in "abcde":
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_execution(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        h1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h1.cancel()
        assert sim.pending == 1

    def test_cancel_mid_run(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []

    def test_far_future_entry_cancelled_after_time_passes(self):
        sim = Simulator()
        fired = []
        victim = sim.schedule(70.0, fired.append, "victim")
        sim.schedule(70.0, fired.append, "survivor")
        sim.run_for(30.0)
        victim.cancel()
        sim.run_for(50.0)
        assert fired == ["survivor"]
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending == 10
        for h in handles[:4]:
            h.cancel()
        assert sim.pending == 6


class TestRunControl:
    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_advances_time_even_when_idle(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_for_relative(self):
        sim = Simulator()
        sim.run_for(3.0)
        sim.run_for(2.0)
        assert sim.now == 5.0

    def test_step_fires_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is True
        assert sim.step() is False

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestPeriodic:
    def test_call_every_repeats(self):
        sim = Simulator()
        fired = []
        sim.call_every(1.0, lambda: fired.append(sim.now))
        sim.run(until=3.5)
        assert fired == [1.0, 2.0, 3.0]

    def test_call_every_cancel_stops_series(self):
        sim = Simulator()
        fired = []
        handle = sim.call_every(1.0, lambda: fired.append(sim.now))
        sim.run(until=2.5)
        handle.cancel()
        sim.run(until=10.0)
        assert fired == [1.0, 2.0]

    def test_call_every_first_delay(self):
        sim = Simulator()
        fired = []
        sim.call_every(1.0, lambda: fired.append(sim.now), first_delay=0.25)
        sim.run(until=2.5)
        assert fired == [0.25, 1.25, 2.25]

    def test_call_every_invalid_interval(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_every(0.0, lambda: None)


class TestAccounting:
    def test_pending_counts_live_events(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending == 10
        for h in handles[:4]:
            h.cancel()
        assert sim.pending == 6

    def test_cancel_after_fire_does_not_corrupt_pending(self):
        sim = Simulator()
        fired = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.step()  # fires the t=1 event
        fired.cancel()  # late cancel of an already-fired event
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0

    def test_queue_size_includes_cancelled(self):
        # A cancelled entry stays in the heap until it is lazily dropped
        # on pop (or by a compaction).
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h.cancel()
        assert sim.queue_size == 2
        assert sim.pending == 1

    def test_compaction_reclaims_cancelled_entries(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
        for h in handles:
            h.cancel()
        assert sim.compactions >= 1
        assert sim.queue_size < 100
        assert sim.pending == 0

    def test_wheel_sweep_reclaims_cancelled_entries(self):
        # The legacy "wheel" name builds the same compacting heap, so
        # dead entries are reclaimed under it as well.
        sim = Simulator("wheel")
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
        for h in handles:
            h.cancel()
        assert sim.compactions >= 1
        assert sim.queue_size < 100
        assert sim.pending == 0

    def test_small_heap_never_compacts(self):
        # Below the size floor a dead heap is left for lazy deletion.
        sim = Simulator()
        size = MIN_COMPACTION_SIZE - 1
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(size)]
        for h in handles:
            h.cancel()
        assert sim.compactions == 0
        assert sim.queue_size == size
        assert sim.pending == 0

    def test_compaction_preserves_firing_order(self):
        sim = Simulator()
        fired: list[tuple[float, int]] = []
        keep = []
        for i in range(200):
            keep.append(sim.schedule(float(i % 17), fired.append, (float(i % 17), i)))
        for i, h in enumerate(keep):
            if i % 3:  # cancel two thirds, forcing compactions
                h.cancel()
        sim.run()
        assert fired == sorted((float(i % 17), i) for i in range(200) if i % 3 == 0)
        assert sim.compactions >= 1

    def test_invalid_scheduler_rejected(self):
        with pytest.raises(ValueError):
            Simulator("calendar")

    def test_both_scheduler_names_build_the_one_scheduler(self):
        for name in ("heap", "wheel"):
            sim = Simulator(name)
            fired = []
            sim.schedule(2.0, fired.append, "b")
            sim.schedule(1.0, fired.append, "a")
            sim.run()
            assert fired == ["a", "b"]

    def test_fire_and_forget_has_no_handle(self):
        sim = Simulator()
        fired = []
        assert sim.schedule_fire(1.0, fired.append, "a") is None
        sim.schedule_fire_at(0.5, fired.append, "b")
        assert sim.pending == 2
        sim.run()
        assert fired == ["b", "a"]
        assert sim.events_processed == 2
        with pytest.raises(ValueError):
            sim.schedule_fire(-1.0, fired.append, "x")
        with pytest.raises(ValueError):
            sim.schedule_fire_at(sim.now - 1.0, fired.append, "x")


class TestPeriodicExceptionSafety:
    def test_series_survives_a_raising_tick(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) == 2:
                raise RuntimeError("one bad tick")

        sim.call_every(1.0, tick)
        with pytest.raises(RuntimeError):
            sim.run(until=2.5)
        # The next tick was re-armed before the exception propagated.
        sim.run(until=4.5)
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_cancel_inside_raising_tick_still_stops_series(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            series.cancel()
            raise RuntimeError("bad and cancelled")

        series = sim.call_every(1.0, tick)
        with pytest.raises(RuntimeError):
            sim.run(until=1.5)
        sim.run(until=10.0)
        assert fired == [1.0]


def _sim_modes():
    """Every scheduler the regression must hold on.

    ``wheel`` and ``heap`` are the two names ``Simulator`` accepts (both
    build the one heap).  ``heap-ref`` is the list-scan reference that
    ``test_scheduler_oracle`` checks the heap against: were it to
    re-arm a self-cancelled series, the oracle would demand the bug.
    """
    return [
        ("wheel", lambda: Simulator("wheel")),
        ("heap", lambda: Simulator("heap")),
        ("heap-ref", lambda: _ListScheduler()),
    ]


class TestPeriodicSelfCancel:
    """A callback cancelling its own handle mid-fire must not re-arm.

    If ``call_every`` re-armed before invoking the callback (or skipped
    the post-callback cancellation re-check), a self-cancel would leave
    one dead-but-live tick scheduled, which fires the series once more.
    """

    @pytest.mark.parametrize(("name", "make"), _sim_modes())
    def test_self_cancel_mid_fire_stops_the_series(self, name, make):
        sim = make()
        fired = []

        def tick():
            fired.append(sim.now)
            series.cancel()  # cancel our own handle from inside the fire

        series = sim.call_every(1.0, tick)
        sim.run(until=20.0)
        assert fired == [1.0]
        assert sim.pending == 0, f"{name}: dead tick left armed"

    @pytest.mark.parametrize(("name", "make"), _sim_modes())
    def test_self_cancel_with_subtick_interval(self, name, make):
        # A 10 us interval: every re-arm lands right behind the firing
        # tick, so the re-arm and the cancel race inside one callback.
        sim = make()
        fired = []

        def tick():
            fired.append(round(sim.now, 7))
            if len(fired) == 3:
                series.cancel()

        series = sim.call_every(1e-5, tick)
        sim.run(until=1.0)
        assert fired == [1e-5, 2e-5, 3e-5]
        assert sim.pending == 0

    @pytest.mark.parametrize(("name", "make"), _sim_modes())
    def test_sibling_cancel_in_same_tick_batch(self, name, make):
        # An earlier event cancels a series whose tick is already
        # queued.  The tick still occupies a queue entry but must not
        # invoke the callback.
        sim = make()
        fired = []
        series = sim.call_every(1.0, fired.append, "periodic")
        sim.schedule(0.9999, lambda: series.cancel())
        sim.run(until=5.0)
        assert fired == []
        assert sim.pending == 0

    @pytest.mark.parametrize(("name", "make"), _sim_modes())
    def test_cancel_then_restart_inside_callback(self, name, make):
        # Self-cancel followed by arming a fresh series inside the same
        # fire: the old series stays dead, the new one runs.
        sim = make()
        fired = []

        def tick():
            fired.append(("old", sim.now))
            series.cancel()
            sim.call_every(2.0, lambda: fired.append(("new", sim.now)))

        series = sim.call_every(1.0, tick)
        sim.run(until=6.0)
        assert fired == [("old", 1.0), ("new", 3.0), ("new", 5.0)]


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=50))
def test_property_firing_order_is_sorted_by_time(delays):
    """Whatever the insertion order, events fire in nondecreasing time."""
    sim = Simulator()
    fired: list[float] = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
