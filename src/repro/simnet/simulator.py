"""The discrete-event loop.

A :class:`Simulator` owns virtual time and a binary heap
(:mod:`heapq`) of pending callbacks.  Two properties matter for
reproducibility:

* **Deterministic ordering** -- events at equal timestamps fire in the
  order they were scheduled (a monotone sequence number breaks ties),
  so runs are bit-for-bit repeatable for a fixed seed.  The golden
  sha256 digests in ``tests/simnet`` pin this.
* **Cancellation without rebuild** -- cancelling marks the entry dead;
  it is dropped lazily on pop.  Once dead entries outnumber
  :data:`COMPACTION_DEAD_FRACTION` of a heap of at least
  :data:`MIN_COMPACTION_SIZE` entries, the heap is rebuilt without
  them, so timer-heavy runs (request timeouts that are almost always
  cancelled) keep a bounded queue.

Queue entries are tuples whose first two fields are ``(time, seq)``
with a unique ``seq``, so ordering never compares past them and every
comparison stays at C level.  The event loop is the hot path of every
benchmark; two fast paths keep long runs flat:

* a **live-event counter** makes :attr:`Simulator.pending` O(1) instead
  of an O(n) scan -- monitors and soak harnesses poll it freely;
* :meth:`Simulator.schedule_fire` / :meth:`Simulator.schedule_fire_at`
  enqueue a bare ``(time, seq, fn, args)`` tuple with no handle.  The
  network fabric uses them for datagram/segment deliveries, which are
  never cancelled: no :class:`ScheduledEvent` allocation, no
  cancellation check on the fire path.
"""

from __future__ import annotations

from collections.abc import Callable
from heapq import heapify, heappop, heappush
from typing import Any

__all__ = ["Simulator", "ScheduledEvent", "COMPACTION_DEAD_FRACTION", "MIN_COMPACTION_SIZE"]

#: The heap is rebuilt once cancelled entries make up more than this
#: fraction of it.
COMPACTION_DEAD_FRACTION = 0.5
#: Compaction never runs below this queue size; tiny heaps are cheap to
#: scan and rebuilding them would thrash.
MIN_COMPACTION_SIZE = 64


class ScheduledEvent:
    """Handle to a pending callback; supports cancellation.

    Instances are returned by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`; call :meth:`cancel` to prevent the
    callback from firing.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        # Back-reference to the owning simulator while the entry sits in
        # its queue; detached on pop so late cancels of already-fired
        # events cannot skew the live-event accounting.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time:.6f} {getattr(self.fn, '__name__', self.fn)} {state}>"


class Simulator:
    """Virtual-time event loop.

    Parameters
    ----------
    scheduler:
        Kept only for ``perfbench/tests/test_calibrate.py``, which
        still constructs ``Simulator("wheel")`` and
        ``Simulator("heap")``: both names build the one heap scheduler,
        and any other value raises ``ValueError``.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired, sim.now
    (['b', 'a'], 1.5)
    """

    def __init__(self, scheduler: str = "heap") -> None:
        if scheduler not in ("heap", "wheel"):
            raise ValueError(f"scheduler must be 'heap' or 'wheel', got {scheduler!r}")
        self._now = 0.0
        self._seq = 0
        self._events_processed = 0
        self._queue: list[tuple] = []
        self._live = 0  # queued entries that are not cancelled
        self._dead = 0  # queued cancelled entries (lazy-deleted)
        self._compactions = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events (O(1))."""
        return self._live

    @property
    def queue_size(self) -> int:
        """Physical heap size, cancelled entries included."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Total callbacks executed so far."""
        return self._events_processed

    @property
    def compactions(self) -> int:
        """Heap rebuilds that dropped cancelled entries."""
        return self._compactions

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        ev = ScheduledEvent(time, seq, fn, args, self)
        heappush(self._queue, (time, seq, ev))
        self._live += 1
        return ev

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Run ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule into the past (t={time} < now={self._now})")
        seq = self._seq
        self._seq = seq + 1
        ev = ScheduledEvent(time, seq, fn, args, self)
        heappush(self._queue, (time, seq, ev))
        self._live += 1
        return ev

    def schedule_fire(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, not cancellable.

        The fabric's delivery path -- every datagram and TCP segment --
        lands here; skipping the handle allocation and the cancellation
        check is a measurable share of the event loop.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self._now + delay, seq, fn, args))
        self._live += 1

    def schedule_fire_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`: no handle, not cancellable."""
        if time < self._now:
            raise ValueError(f"cannot schedule into the past (t={time} < now={self._now})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (time, seq, fn, args))
        self._live += 1

    def call_every(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        first_delay: float | None = None,
    ) -> ScheduledEvent:
        """Run ``fn(*args)`` periodically until the returned handle is cancelled.

        The returned handle controls the *whole* series: cancelling it
        stops future firings.  ``first_delay`` defaults to ``interval``.
        A tick that raises does **not** kill the series: the next tick
        is re-armed before the exception propagates, so periodic
        services (heartbeat renewals, sweeps) survive one bad callback.

        The cancellation check runs both *before* the callback (the
        queued tick is not itself cancelled, so a cancel of the series
        must suppress it) and *after* it (a callback cancelling its own
        handle mid-fire must not re-arm a dead timer).
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        series = ScheduledEvent(self._now, -1, fn, args)  # master handle, never queued

        def tick() -> None:
            if series.cancelled:
                return
            try:
                fn(*args)
            finally:
                # Re-arm strictly after the callback: fn may have
                # cancelled the series (directly or transitively), and
                # scheduling first would leave an orphan live tick.
                if not series.cancelled:
                    self.schedule(interval, tick)

        self.schedule(interval if first_delay is None else first_delay, tick)
        return series

    # ------------------------------------------------------------------
    # Cancelled-entry accounting
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """A queued entry was cancelled; compact if the heap is mostly dead."""
        self._live -= 1
        self._dead += 1
        size = len(self._queue)
        if size >= MIN_COMPACTION_SIZE and self._dead > COMPACTION_DEAD_FRACTION * size:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap, in place, without cancelled entries.

        Only entries that could never fire are removed, and heapify
        re-establishes the identical ``(time, seq)`` total order, so
        pop order -- and therefore every virtual-time result -- is
        unchanged.  The list object is kept, so a loop holding it stays
        valid across a compaction triggered from inside a callback.
        """
        queue = self._queue
        queue[:] = [e for e in queue if len(e) == 4 or not e[2].cancelled]
        heapify(queue)
        self._dead = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next event.  Returns False if the heap is empty."""
        queue = self._queue
        while queue:
            entry = heappop(queue)
            if len(entry) == 3:
                ev = entry[2]
                ev._sim = None
                if ev.cancelled:
                    self._dead -= 1
                    continue
                self._live -= 1
                self._now = entry[0]
                self._events_processed += 1
                ev.fn(*ev.args)
                return True
            self._live -= 1
            self._now = entry[0]
            self._events_processed += 1
            entry[2](*entry[3])
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the heap, optionally stopping at virtual time ``until``.

        With ``until`` set, time is advanced exactly to ``until`` when
        the heap runs dry early, so post-run ``now`` is predictable.
        ``max_events`` bounds runaway simulations (raises RuntimeError).
        """
        fired = 0
        queue = self._queue
        while queue:
            entry = queue[0]
            if len(entry) == 3:
                ev = entry[2]
                if ev.cancelled:
                    heappop(queue)
                    self._dead -= 1
                    ev._sim = None
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                heappop(queue)
                ev._sim = None
                self._live -= 1
                self._now = time
                self._events_processed += 1
                ev.fn(*ev.args)
            else:
                time = entry[0]
                if until is not None and time > until:
                    break
                heappop(queue)
                self._live -= 1
                self._now = time
                self._events_processed += 1
                entry[2](*entry[3])
            fired += 1
            if max_events is not None and fired >= max_events:
                raise RuntimeError(f"simulation exceeded max_events={max_events}")
        if until is not None and until > self._now:
            self._now = until

    def run_for(self, duration: float) -> None:
        """Advance virtual time by ``duration`` seconds, firing due events."""
        self.run(until=self._now + duration)
