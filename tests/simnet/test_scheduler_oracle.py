"""The simulator's heap against a list-scan reference scheduler.

:class:`_ListScheduler` is the oracle: a flat list scanned for the
least live ``(time, seq)`` entry on every step.  It is too slow for
real runs and too simple to be wrong.  For *any* interleaving of
schedule / schedule_at / fire-and-forget / cancel / call_every /
run_for operations, :class:`Simulator` must produce the same fire log,
``events_processed``, clock and pending count.  The golden digests pin
this for whole experiments; this suite pins it at the scheduler level,
letting hypothesis hunt for adversarial interleavings.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.simulator import MIN_COMPACTION_SIZE, Simulator


class _Handle:
    cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _ListScheduler:
    """Reference: entries ``(time, seq, handle, fn, args)`` in a plain list."""

    def __init__(self) -> None:
        self.now, self.events_processed, self._entries = 0.0, 0, []
        self._seq = itertools.count()

    @property
    def pending(self) -> int:
        return sum(not e[2].cancelled for e in self._entries)

    def schedule_at(self, time, fn, *args) -> _Handle:
        handle = _Handle()
        self._entries.append((time, next(self._seq), handle, fn, args))
        return handle

    def schedule(self, delay, fn, *args) -> _Handle:
        return self.schedule_at(self.now + delay, fn, *args)

    schedule_fire = schedule

    def call_every(self, interval, fn, *args) -> _Handle:
        series = _Handle()

        def tick() -> None:
            if not series.cancelled:
                try:
                    fn(*args)
                finally:
                    if not series.cancelled:
                        self.schedule(interval, tick)

        self.schedule(interval, tick)
        return series

    def run(self, until=None) -> None:
        while True:
            self._entries = [e for e in self._entries if not e[2].cancelled]
            if not self._entries:
                break
            entry = min(self._entries)  # unique seq: never compares past it
            if until is not None and entry[0] > until:
                break
            self._entries.remove(entry)
            self.now, self.events_processed = entry[0], self.events_processed + 1
            entry[3](*entry[4])
        if until is not None and until > self.now:
            self.now = until

    def run_for(self, duration) -> None:
        self.run(until=self.now + duration)


# Delays from zero through sub-millisecond offsets, near-equal pairs
# (0.2549 / 0.2551) and far-future entries that sit in the heap across
# many run_for slices.
_DELAYS = [
    0.0,
    1e-5,
    4.2e-4,
    1e-3,
    0.001999,
    0.004,
    0.2549,
    0.2551,
    0.256,
    1.0,
    3.14159,
    65.535,
    65.537,
    20000.0,
]

_INTERVALS = [1e-5, 1e-3, 0.0037, 0.255, 0.3, 2.5]

_op = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("schedule_at"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("fire"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(
        st.just("every"),
        st.sampled_from(_INTERVALS),
        st.integers(min_value=1, max_value=5),
    ),
    st.tuples(st.just("run"), st.sampled_from([0.0005, 0.01, 0.3, 2.0])),
)


def _execute(program, sim):
    """Interpret ``program`` on ``sim``; return its trace."""
    log: list[tuple] = []
    handles: list = []

    def record(tag: str) -> None:
        log.append((tag, sim.now))

    for step, op in enumerate(program):
        kind = op[0]
        if kind == "schedule":
            handles.append(sim.schedule(op[1], record, f"s{step}"))
        elif kind == "schedule_at":
            handles.append(sim.schedule_at(sim.now + op[1], record, f"a{step}"))
        elif kind == "fire":
            sim.schedule_fire(op[1], record, f"f{step}")
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif kind == "every":
            interval, limit = op[1], op[2]
            state = {"fired": 0, "handle": None}

            def tick(state=state, tag=f"e{step}", limit=limit) -> None:
                state["fired"] += 1
                log.append((tag, state["fired"], sim.now))
                if state["fired"] >= limit:
                    state["handle"].cancel()

            state["handle"] = sim.call_every(interval, tick)
            handles.append(state["handle"])
        elif kind == "run":
            sim.run_for(op[1])
    sim.run()  # drain everything still queued (periodics self-cancel)
    return log, sim.events_processed, sim.now, sim.pending


@settings(max_examples=60, deadline=None)
@given(program=st.lists(_op, min_size=1, max_size=40))
def test_simulator_matches_reference(program):
    """Identical trace on every random schedule/cancel/call_every mix."""
    assert _execute(program, Simulator()) == _execute(program, _ListScheduler())


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=50, max_value=300),
)
def test_simulator_matches_reference_on_bulk_random_delays(seed, n):
    """Bulk inserts with numpy-random delays fire in identical order."""
    import numpy as np

    delays = np.random.default_rng(seed).uniform(0.0, 300.0, size=n)
    traces = []
    for sim in (Simulator(), _ListScheduler()):
        log = []
        for i, d in enumerate(delays):
            sim.schedule(float(d), lambda i=i, s=sim: log.append((i, s.now)))
        sim.run()
        traces.append((log, sim.events_processed, sim.now))
    assert traces[0] == traces[1]


def test_compaction_mid_run_matches_reference():
    """Callbacks that cancel most of the heap force compactions mid-run."""
    n = 4 * MIN_COMPACTION_SIZE

    def trace(sim):
        log = []
        handles = []

        def fire(i: int) -> None:
            log.append((i, sim.now))
            if i == 0:  # fires first: kill two thirds of the heap at once
                for j in range(1, n):
                    if j % 3:
                        handles[j].cancel()
            else:  # survivors keep cancelling, fired or not
                handles[i * 7 % n].cancel()
            if i < n:  # and arm a follow-up behind any compaction
                sim.schedule_fire(0.5, fire, i + n)

        for i in range(n):
            handles.append(sim.schedule(float(i % 13) + i * 1e-3, fire, i))
        sim.run()
        return log, sim.events_processed, sim.now, sim.pending

    sim = Simulator()
    assert trace(sim) == trace(_ListScheduler())
    assert sim.compactions >= 1
