"""The sampling profiler: stack capture, collapsed output, attribution."""

from __future__ import annotations

import selectors
import threading
import time

import pytest

from repro.obs.profiling import PARKED_BUCKET, SamplingProfiler


def spin(stop: threading.Event) -> None:
    while not stop.is_set():
        busy_leaf()


def busy_leaf() -> None:
    sum(range(200))


class TestValidation:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            SamplingProfiler(rate_hz=0)
        with pytest.raises(ValueError):
            SamplingProfiler(max_depth=0)


class TestSampling:
    def test_sample_once_captures_the_target_stack(self):
        profiler = SamplingProfiler()
        stop = threading.Event()
        worker = threading.Thread(target=spin, args=(stop,), daemon=True)
        worker.start()
        profiler._target = worker.ident
        try:
            for _ in range(50):
                profiler.sample_once()
        finally:
            stop.set()
            worker.join()
        assert profiler.samples == 50
        flat = "\n".join(profiler.collapsed())
        assert "spin" in flat

    def test_collapsed_lines_are_stack_space_count(self):
        profiler = SamplingProfiler()
        profiler.stacks[("mod:root", "mod:leaf")] = 3
        profiler.stacks[("mod:root",)] = 1
        profiler.samples = 4
        assert profiler.collapsed() == ["mod:root;mod:leaf 3", "mod:root 1"]

    def test_thread_driven_run_collects_at_roughly_the_rate(self):
        profiler = SamplingProfiler(rate_hz=200.0)
        stop = threading.Event()
        worker = threading.Thread(target=spin, args=(stop,), daemon=True)
        worker.start()
        profiler.start(target_thread_id=worker.ident)
        time.sleep(0.25)
        profiler.stop()
        stop.set()
        worker.join()
        assert profiler.samples > 5  # loose: CI boxes stall
        assert not profiler.running

    def test_start_twice_is_a_noop(self):
        profiler = SamplingProfiler(rate_hz=200.0)
        profiler.start()
        thread = profiler._thread
        profiler.start()
        assert profiler._thread is thread
        profiler.stop()
        profiler.stop()  # idempotent


class TestAttribution:
    def test_innermost_repro_frame_wins(self):
        profiler = SamplingProfiler()
        profiler.stacks[
            ("asyncio.base_events:run", "repro.cluster.worker:run",
             "repro.discovery.requester:discover", "json:dumps")
        ] = 7
        profiler.samples = 7
        attribution = profiler.attribution()
        assert list(attribution) == ["repro.discovery.requester"]
        assert attribution["repro.discovery.requester"]["percent"] == 100.0

    def test_non_repro_stacks_bucket_as_other(self):
        profiler = SamplingProfiler()
        profiler.stacks[("asyncio.base_events:_run_once", "json:dumps")] = 3
        profiler.stacks[("repro.obs.live:fold",)] = 1
        profiler.samples = 4
        attribution = profiler.attribution()
        assert attribution["<other> json"]["samples"] == 3
        assert attribution["repro.obs.live"]["samples"] == 1
        assert attribution["<other> json"]["percent"] == 75.0

    def test_parked_leaves_are_not_cpu(self):
        profiler = SamplingProfiler()
        profiler.stacks[("asyncio.base_events:_run_once", "selectors:select")] = 6
        profiler.stacks[("repro.obs.live:fold", "threading:wait")] = 2
        profiler.stacks[("repro.obs.live:fold",)] = 2
        profiler.samples = 10
        assert profiler.parked == 8
        # Parked time is one trailing row, never a module's CPU.
        assert profiler.attribution() == {
            "repro.obs.live": {"samples": 2, "percent": 20.0},
            PARKED_BUCKET: {"samples": 8, "percent": 80.0},
        }


def _sample_for(target, seconds: float) -> SamplingProfiler:
    """Profile ``target(stop)`` on its own thread for ``seconds``."""
    profiler = SamplingProfiler(rate_hz=200.0)
    stop = threading.Event()
    worker = threading.Thread(target=target, args=(stop,), daemon=True)
    worker.start()
    profiler.start(target_thread_id=worker.ident)
    time.sleep(seconds)
    profiler.stop()
    stop.set()
    worker.join()
    return profiler


def park_on_selector(stop: threading.Event) -> None:
    selector = selectors.DefaultSelector()
    try:
        while not stop.is_set():
            selector.select(0.05)
    finally:
        selector.close()


class TestParkedTime:
    def test_thread_parked_on_a_selector_is_not_cpu(self):
        profiler = _sample_for(park_on_selector, 0.5)
        assert profiler.samples > 5  # loose: CI boxes stall
        assert profiler.parked >= 0.9 * profiler.samples
        attribution = profiler.attribution()
        assert "<other> selectors" not in attribution
        assert list(attribution)[-1] == PARKED_BUCKET
        assert attribution[PARKED_BUCKET]["samples"] == profiler.parked
        assert profiler.report()["parked"] == profiler.parked

    def test_busy_thread_is_still_attributed(self):
        profiler = _sample_for(spin, 0.3)
        assert profiler.samples > 5
        assert profiler.parked == 0
        attribution = profiler.attribution()
        assert PARKED_BUCKET not in attribution
        assert sum(row["samples"] for row in attribution.values()) == profiler.samples
        assert attribution["<other> tests"]["percent"] > 50.0


class TestReport:
    def test_report_is_json_shaped(self):
        profiler = SamplingProfiler(rate_hz=50.0)
        profiler.stacks[("a:b",)] = 2
        profiler.samples = 2
        report = profiler.report()
        assert report["rate_hz"] == 50.0
        assert report["samples"] == 2
        assert report["collapsed"] == ["a:b 2"]
        assert report["elapsed"] is None  # never started
