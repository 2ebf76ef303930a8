"""The SLO monitor: window timing, hard invariants, burn-rate budget."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.live import RollingClusterView, histogram_delta
from repro.obs.registry import Histogram
from repro.obs.slo import SloConfig, SloMonitor


def counter(value: int) -> dict:
    return {"kind": "counter", "value": value}


def latency_hist(slow: int, fast: int) -> dict:
    """A discovery.total_time histogram: `fast` under 0.1s, `slow` over 5s."""
    return {
        "kind": "histogram",
        "value": {
            "bounds": [0.1, 5.0],
            "buckets": [fast, fast],
            "count": fast + slow,
            "sum": fast * 0.05 + slow * 9.0,
        },
    }


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_monitor(**config) -> tuple[SloMonitor, RollingClusterView, FakeClock]:
    clock = FakeClock()
    monitor = SloMonitor(SloConfig(window=5.0, **config), clock=clock)
    monitor.start()
    return monitor, RollingClusterView(), clock


def fold(view, clock, role="load", incarnation=0, metrics=None, stats=None, **extra):
    message = {
        "role": role,
        "incarnation": incarnation,
        "seq": 0,
        "wall_offset": 0.0,
        "metrics": metrics or {},
        "stats": stats or {},
    }
    message.update(extra)
    view.fold(message, now=clock.now)


class TestConfig:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            SloConfig(window=0.0)
        with pytest.raises(ValueError):
            SloConfig(latency_budget=1.5)


class TestWindowTiming:
    def test_no_evaluation_before_the_window_closes(self):
        monitor, view, clock = make_monitor()
        clock.now = 4.9
        assert monitor.maybe_evaluate(view) == []
        assert monitor.windows_evaluated == 0

    def test_violation_detected_within_one_window(self):
        monitor, view, clock = make_monitor()
        clock.now = 2.0
        fold(view, clock, metrics={"discovery.failed": counter(1)})
        clock.now = 5.0  # first window closes
        violations = monitor.maybe_evaluate(view)
        assert [v.invariant for v in violations] == ["zero_failed_discoveries"]
        assert violations[0].window == 0
        assert violations[0].detected_at == 5.0  # not at collect time

    def test_catchup_closes_every_elapsed_window(self):
        monitor, view, clock = make_monitor()
        clock.now = 17.0
        monitor.maybe_evaluate(view)
        assert monitor.windows_evaluated == 3

    def test_failure_counted_once_not_every_window(self):
        monitor, view, clock = make_monitor()
        fold(view, clock, metrics={"discovery.failed": counter(1)})
        clock.now = 5.0
        assert len(monitor.maybe_evaluate(view)) == 1
        clock.now = 10.0  # same folded totals: the delta is zero
        assert monitor.maybe_evaluate(view) == []

    def test_drain_aborts_are_not_failures(self):
        # A run the requester gives up on mid-drain bumps the
        # discovery.failed metric, but the worker's recorded-round stats
        # exclude it -- and the stats win, matching the exit-report
        # invariant checker, so a clean run's final flushed window stays
        # clean.
        monitor, view, clock = make_monitor()
        fold(
            view,
            clock,
            metrics={"discovery.failed": counter(2),
                     "discovery.completed": counter(40)},
            stats={"rounds": 40, "failures": 0},
        )
        clock.now = 5.0
        assert monitor.maybe_evaluate(view) == []
        assert monitor.trend[0]["rounds"] == 40
        assert monitor.trend[0]["failures"] == 0

    def test_recorded_failures_still_violate(self):
        monitor, view, clock = make_monitor()
        fold(
            view,
            clock,
            metrics={"discovery.failed": counter(1)},
            stats={"rounds": 10, "failures": 1},
        )
        clock.now = 5.0
        violations = monitor.maybe_evaluate(view)
        assert [v.invariant for v in violations] == ["zero_failed_discoveries"]

    def test_flush_guarantees_at_least_one_window(self):
        monitor, view, clock = make_monitor()
        clock.now = 1.0  # far short of the 5s window
        monitor.flush(view)
        assert monitor.windows_evaluated == 1
        assert len(monitor.trend) == 1


class TestHardInvariants:
    def test_queue_capacity_breach_names_the_process(self):
        monitor, view, clock = make_monitor(queue_capacity=32)
        fold(view, clock, role="bdn:0", stats={"queue_max_depth": 33})
        clock.now = 5.0
        (violation,) = monitor.maybe_evaluate(view)
        assert violation.invariant == "queue_capacity"
        assert violation.process == "bdn:0#0"
        assert "33" in violation.detail

    def test_queue_overflow_is_a_violation_even_under_capacity(self):
        # The queue is bounded, so overload with admission control off
        # shows up as overflows, not as depth > capacity.
        monitor, view, clock = make_monitor()
        fold(view, clock, role="bdn:0", stats={"queue_overflows": 2})
        clock.now = 5.0
        (violation,) = monitor.maybe_evaluate(view)
        assert violation.invariant == "queue_overflow"

    def test_election_overlap_fires_once(self):
        monitor, view, clock = make_monitor()
        fold(view, clock, role="bdn:0", stats={"name": "d0"}, intervals=[[1, 0.0, 4.0]])
        fold(view, clock, role="bdn:1", stats={"name": "d1"}, intervals=[[2, 1.0, 3.0]])
        clock.now = 5.0
        (violation,) = monitor.maybe_evaluate(view)
        assert violation.invariant == "election_safety"
        clock.now = 10.0
        assert monitor.maybe_evaluate(view) == []  # deduped

    def test_adjacent_leadership_is_fine(self):
        monitor, view, clock = make_monitor()
        fold(view, clock, role="bdn:0", stats={"name": "d0"}, intervals=[[1, 0.0, 2.0]])
        fold(view, clock, role="bdn:1", stats={"name": "d1"}, intervals=[[2, 2.0, 4.0]])
        clock.now = 5.0
        assert monitor.maybe_evaluate(view) == []


class TestLatencyBudget:
    def test_single_breach_burns_budget_without_violating(self):
        monitor, view, clock = make_monitor(p99_bound=3.0, latency_budget=0.25)
        fold(view, clock, metrics={"discovery.total_time": latency_hist(slow=5, fast=0)})
        clock.now = 5.0
        assert monitor.maybe_evaluate(view) == []  # burned, not failed
        assert monitor.breached_windows == 1
        assert monitor.budget_burned > 0

    def test_sustained_breach_exhausts_the_budget(self):
        monitor, view, clock = make_monitor(p99_bound=3.0, latency_budget=0.25)
        slow = 0
        violations = []
        for window in range(1, 9):
            slow += 5
            fold(
                view, clock, seq=window,
                metrics={"discovery.total_time": latency_hist(slow=slow, fast=0)},
            )
            clock.now = 5.0 * window
            violations += monitor.maybe_evaluate(view)
        assert [v.invariant for v in violations] == ["latency_budget"] * len(violations)
        assert violations  # exhausted within the run
        # All windows breached vs 25% allowed: the grace window delays
        # exhaustion past the very first breach, not much further.
        assert violations[0].window == 1

    def test_fast_windows_do_not_burn(self):
        monitor, view, clock = make_monitor(p99_bound=3.0)
        fold(view, clock, metrics={"discovery.total_time": latency_hist(slow=0, fast=50)})
        clock.now = 5.0
        assert monitor.maybe_evaluate(view) == []
        assert monitor.breached_windows == 0
        assert monitor.budget_burned == 0.0


def total_time(hist: Histogram) -> dict:
    """A histogram's telemetry entry, as a worker streams it."""
    return {"discovery.total_time": {"kind": "histogram", "value": hist.read()}}


class TestWindowedP99:
    """The windowed p99 reads the already-cumulative ``le`` buckets once;
    it must equal ``Histogram.quantile`` over the window's observations."""

    def test_one_slow_round_sets_the_p99(self):
        monitor, view, clock = make_monitor()
        hist = Histogram("discovery.total_time")
        for value in [0.2] * 6 + [1.339]:
            hist.observe(value)
        fold(view, clock, metrics=total_time(hist))
        clock.now = 5.0
        monitor.maybe_evaluate(view)
        assert hist.quantile(0.99) == 2.5
        assert monitor.trend[0]["p99"] == 2.5

    def test_reset_histogram_counts_the_new_incarnation_whole(self):
        monitor, view, clock = make_monitor()
        before = Histogram("discovery.total_time")
        for value in [0.05] * 40:
            before.observe(value)
        fold(view, clock, metrics=total_time(before))
        clock.now = 5.0
        monitor.maybe_evaluate(view)
        after = Histogram("discovery.total_time")  # the worker restarted
        for value in [0.2] * 6 + [1.339]:
            after.observe(value)
        delta = histogram_delta(after.read(), before.read())
        assert delta == after.read()
        fold(view, clock, metrics=total_time(after))
        clock.now = 10.0
        monitor.maybe_evaluate(view)
        assert monitor.trend[1]["p99"] == after.quantile(0.99) == 2.5

    @given(
        windows=st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.floats(0.0, 12.0), min_size=1, max_size=40),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_windowed_p99_equals_histogram_quantile(self, windows):
        monitor, view, clock = make_monitor()
        hist = Histogram("discovery.total_time")
        incarnation = 0
        for index, (restart, observations) in enumerate(windows):
            if restart:  # a restarted worker streams a fresh histogram
                hist = Histogram("discovery.total_time")
                incarnation += 1
            window_only = Histogram("discovery.total_time")
            for value in observations:
                hist.observe(value)
                window_only.observe(value)
            fold(
                view, clock, incarnation=incarnation, seq=index,
                metrics=total_time(hist),
            )
            clock.now = 5.0 * (index + 1)
            monitor.maybe_evaluate(view)
            assert monitor.trend[index]["p99"] == window_only.quantile(0.99)


class TestTrend:
    def test_rows_are_json_shaped_and_cumulative(self):
        monitor, view, clock = make_monitor()
        fold(view, clock, metrics={"discovery.completed": counter(3)})
        clock.now = 5.0
        monitor.maybe_evaluate(view)
        clock.now = 7.0
        monitor.flush(view)
        assert [row["window"] for row in monitor.trend] == [0, 1]
        first = monitor.trend[0]
        assert first["rounds"] == 3
        assert first["failures"] == 0
        assert first["violations"] == []
        summary = monitor.summary()
        assert summary["windows_evaluated"] == 2
        assert summary["trend"] == monitor.trend
