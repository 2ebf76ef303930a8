"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts
by tens of percent over seconds to minutes; wall *and* CPU time drift
together, so neither clock alone gives a steady cost.  A fixed
reference kernel, defined here and independent of the program, runs in
short slices interleaved with the timed work.  Its measured speed
scales every end-to-end time to a *nominal* machine on which the
kernel runs ``NOMINAL_EVENTS_PER_S`` events per second:

    scaled time = measured time * measured kernel speed / nominal speed

A program change moves the scaled times; a host slowdown moves the
measured time and the kernel's speed together and cancels out.  The
slices' own time is taken out of the timed region.
"""

from __future__ import annotations

import heapq
import time

#: Reference-kernel events per slice (a few ms on a 2-core Xeon VM).
SLICE_EVENTS = 1000
#: Kernel speed of the nominal machine the scaled times refer to.
NOMINAL_EVENTS_PER_S = 300_000.0
#: Wall seconds of timed work between two slices.
PERIOD_S = 0.02


class _Msg:
    __slots__ = ("uuid", "src", "dst", "hops", "payload")

    def __init__(self, uuid, src, dst, hops, payload) -> None:
        self.uuid = uuid
        self.src = src
        self.dst = dst
        self.hops = hops
        self.payload = payload


class _Node:
    def __init__(self, name: str) -> None:
        self.name = name
        self.inbox: list[str] = []
        self.seen: dict[str, int] = {}

    def deliver(self, msg: _Msg) -> None:
        self.inbox.append(msg.uuid)
        if len(self.inbox) > 16:
            del self.inbox[:8]
        self.seen[msg.uuid] = self.seen.get(msg.uuid, 0) + msg.hops


class _Kernel:
    """A fixed pure-Python event loop: heap, small objects, dicts, method calls.

    Its nodes, heap and counters persist across calls and stay bounded,
    so every event costs the same whatever the slice length: a short
    slice pays for no set-up and no final drain.
    """

    QUEUE = 256

    def __init__(self) -> None:
        self.nodes = [_Node(f"n{i}") for i in range(64)]
        self.heap: list = []
        self.state = 12345
        self.k = 0
        self.run(self.QUEUE)

    def run(self, events: int) -> int:
        nodes, heap = self.nodes, self.heap
        state, k = self.state, self.k
        for k in range(k, k + events):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            dst = nodes[(state >> 7) & 63]
            msg = _Msg(f"req-{k % 997:04d}", nodes[state & 63].name, dst.name, state % 5, {"t": k})
            heapq.heappush(heap, (state % 1000 + k, k, dst.deliver, msg))
            if len(heap) > self.QUEUE:
                _, _, fn, m = heapq.heappop(heap)
                fn(m)
        self.state, self.k = state, k + 1
        return len(heap)


_KERNEL = _Kernel()


def reference(events: int) -> int:
    """Run ``events`` events of the reference kernel; the same work every call."""
    return _KERNEL.run(events)


class Calibrator:
    """Reference slices interleaved with timed work, and the scale they give.

    The timed code calls :meth:`tick` often (cheap when no slice is due)
    or :meth:`slice` at chosen points.  ``wall_s`` and ``cpu_s`` are the
    slices' own time, to be taken out of the timed region.
    """

    def __init__(self, period: float = PERIOD_S, slice_events: int = SLICE_EVENTS) -> None:
        self.period = period
        self.slice_events = slice_events
        self.events = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._due = time.perf_counter() + period

    def tick(self) -> None:
        if time.perf_counter() >= self._due:
            self.slice()
            self._due = time.perf_counter() + self.period

    def slice(self) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        reference(self.slice_events)
        self.wall_s += time.perf_counter() - wall0
        self.cpu_s += time.process_time() - cpu0
        self.events += self.slice_events

    def wall_scale(self) -> float:
        """Factor taking measured wall seconds to nominal-machine seconds."""
        return self.events / self.wall_s / NOMINAL_EVENTS_PER_S

    def cpu_scale(self) -> float:
        """Factor taking measured CPU seconds to nominal-machine seconds."""
        return self.events / self.cpu_s / NOMINAL_EVENTS_PER_S
