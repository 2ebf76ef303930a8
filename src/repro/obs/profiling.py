"""Continuous profiling: timer-driven stack sampling, collapsed stacks.

An opt-in :class:`SamplingProfiler` for the cluster workers (most
usefully the load generator, whose sharding is the next ROADMAP item):
a daemon thread wakes at a fixed rate, grabs the target thread's
current frame via ``sys._current_frames()``, and walks it into a
``module:function`` stack tuple.  Aggregation is a plain dict of
``stack -> sample count``, rendered two ways:

* :meth:`collapsed` -- Brendan-Gregg collapsed-stack text
  (``root;child;leaf count`` per line), the input format every
  flamegraph renderer understands;
* :meth:`attribution` -- a per-subsystem CPU attribution table
  (on-CPU samples bucketed by the innermost ``repro.*`` module on the
  stack), so "where does the load generator spend its CPU" is a table
  in the exit report, not a guess.

Cost model: **zero when off** -- nothing is constructed, no signal
handlers are installed, no thread exists.  When on, the sampler runs in
its own thread and never touches the event loop; a sample is one
``sys._current_frames()`` call plus a bounded frame walk, and the GIL
makes the walk safe without stopping the world.

The sampler runs on the wall clock, so it also catches the thread
while it is parked -- an idle asyncio worker spends nearly all its
time waiting in ``selectors:select``.  A sample whose leaf frame is one
of :data:`PARKED_FRAMES` counts as *parked*: it stays in the collapsed
stacks (a flamegraph of wall time), but :meth:`attribution` ranks only
the on-CPU samples by module and books the parked ones to a single
trailing ``<parked>`` row, and :meth:`report` gives the parked count.
Waits inside C calls made straight from other frames (``time.sleep``,
a blocking ``socket.recv``) leave no Python leaf frame of their own and
still count as on-CPU.
"""

from __future__ import annotations

import sys
import threading
import time

__all__ = [
    "SamplingProfiler",
    "DEFAULT_RATE_HZ",
    "MAX_STACK_DEPTH",
    "PARKED_BUCKET",
    "PARKED_FRAMES",
]

DEFAULT_RATE_HZ = 97.0  # prime-ish, avoids phase-locking with 10ms timers
MAX_STACK_DEPTH = 64
#: Leaf frames of a thread blocked off-CPU: the selector poll every
#: event loop parks in, and ``Condition.wait`` (events, queues, locks).
PARKED_FRAMES = frozenset({"selectors:select", "threading:wait"})
#: The :meth:`SamplingProfiler.attribution` row holding parked samples.
PARKED_BUCKET = "<parked>"


class SamplingProfiler:
    """Sample one thread's stack at a fixed rate into collapsed stacks."""

    def __init__(
        self,
        rate_hz: float = DEFAULT_RATE_HZ,
        max_depth: int = MAX_STACK_DEPTH,
    ) -> None:
        if rate_hz <= 0:
            raise ValueError(f"rate_hz must be positive, got {rate_hz}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.rate_hz = float(rate_hz)
        self.max_depth = max_depth
        self.samples = 0
        #: ``(frame, ..., leaf) -> count``; frames are ``module:function``.
        self.stacks: dict[tuple[str, ...], int] = {}
        self._target: int | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.started_at: float | None = None
        self.stopped_at: float | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self, target_thread_id: int | None = None) -> None:
        """Begin sampling (the calling thread by default)."""
        if self._thread is not None:
            return
        self._target = (
            target_thread_id if target_thread_id is not None else threading.get_ident()
        )
        self._stop.clear()
        self.started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="sampling-profiler"
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None
        self.stopped_at = time.monotonic()

    def _loop(self) -> None:
        period = 1.0 / self.rate_hz
        while not self._stop.wait(period):
            self.sample_once()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_once(self) -> None:
        """Take one sample of the target thread's stack (public for tests)."""
        frame = sys._current_frames().get(self._target)
        if frame is None:
            return
        stack: list[str] = []
        depth = 0
        while frame is not None and depth < self.max_depth:
            code = frame.f_code
            module = frame.f_globals.get("__name__", "?")
            stack.append(f"{module}:{code.co_name}")
            frame = frame.f_back
            depth += 1
        stack.reverse()  # root first, leaf last: collapsed-stack order
        key = tuple(stack)
        self.stacks[key] = self.stacks.get(key, 0) + 1
        self.samples += 1

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def collapsed(self) -> list[str]:
        """Collapsed-stack lines (``a;b;c count``), heaviest first."""
        rows = sorted(self.stacks.items(), key=lambda kv: (-kv[1], kv[0]))
        return [f"{';'.join(stack)} {count}" for stack, count in rows]

    @property
    def parked(self) -> int:
        """Samples that caught the thread parked in a :data:`PARKED_FRAMES` leaf."""
        return sum(n for stack, n in self.stacks.items() if _is_parked(stack))

    def attribution(self) -> dict[str, dict[str, float]]:
        """On-CPU samples bucketed by the innermost ``repro.*`` module on stack.

        Frames outside the package (asyncio, json...) fall into an
        ``<other>`` bucket keyed by their top-level module, so
        event-loop overhead is visible rather than silently folded into
        protocol code.  Rows are ranked by samples; parked samples come
        last as one :data:`PARKED_BUCKET` row, whatever their number.
        Percentages are shares of all samples, so the rows sum to 100.
        """
        buckets: dict[str, int] = {}
        for stack, count in self.stacks.items():
            if _is_parked(stack):
                continue
            bucket = None
            for entry in reversed(stack):  # innermost repro frame wins
                module = entry.partition(":")[0]
                if module == "repro" or module.startswith("repro."):
                    bucket = module
                    break
            if bucket is None:
                leaf = stack[-1].partition(":")[0] if stack else "?"
                bucket = f"<other> {leaf.partition('.')[0]}"
            buckets[bucket] = buckets.get(bucket, 0) + count
        rows = sorted(buckets.items(), key=lambda kv: -kv[1])
        parked = self.parked
        if parked:
            rows.append((PARKED_BUCKET, parked))
        total = self.samples or 1
        return {name: {"samples": n, "percent": 100.0 * n / total} for name, n in rows}

    def report(self) -> dict:
        """JSON-serialisable exit-report block."""
        elapsed = None
        if self.started_at is not None:
            end = self.stopped_at if self.stopped_at is not None else time.monotonic()
            elapsed = end - self.started_at
        return {
            "rate_hz": self.rate_hz,
            "samples": self.samples,
            "parked": self.parked,
            "elapsed": elapsed,
            "collapsed": self.collapsed(),
            "attribution": self.attribution(),
        }


def _is_parked(stack: tuple[str, ...]) -> bool:
    return bool(stack) and stack[-1] in PARKED_FRAMES
