"""Span tracing for the traced run, installed from outside the program.

:func:`install` wraps each layer's entry points (no file under ``src/``
changes):

* module functions: the ``repro.core.codec`` functions, wherever an
  importer re-bound them, and ``select_target_set``;
* public methods of ``Simulator`` (its per-instance scheduler methods
  too), ``Network``, ``AioRuntime``, ``Pinger``, ``ShardedRegistry``,
  ``ShardedDedup`` and the ``ReplicationState.on_*`` message handlers;
* every UDP handler passed to ``bind_udp`` (and to a broker's
  ``add_udp_handler`` / ``add_control_handler``) and every callback
  passed to ``schedule`` / ``schedule_at`` / ``call_every``, each
  labelled with the module that defines it (``fn.__module__``);
* a few more boundaries the layer table needs: request copies
  (``DiscoveryRequest.forwarded`` / ``retransmission``), timer
  cancellation, the live runtime's datagram ingress, broker event
  routing and the observability recorders.

A span is (label, start, end, parent, trace).  The parent is the span
that was open when this one started; the trace is the request UUID of
the discovery the span worked for, taken from a message argument,
else inherited from the parent span, else from the span that armed
the timer.  Spans stay in memory in compact arrays and are written out
when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from types import FunctionType

import numpy as np

__all__ = ["SpanStore", "install", "self_times"]


def _label_of(fn) -> str:
    """``module:qualname`` of a callable (of the function behind a bound method)."""
    target = getattr(fn, "__func__", fn)
    module = getattr(target, "__module__", None) or type(target).__module__
    qualname = getattr(target, "__qualname__", None) or type(target).__qualname__
    return f"{module}:{qualname}"


class SpanStore:
    """Spans of one traced run, in parallel arrays."""

    def __init__(self, max_spans: int = 2_500_000) -> None:
        self.max_spans = max_spans
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.label = array("i")
        self.trace = array("i")
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.trace_ids: list[str] = []
        self._trace_index: dict[str, int] = {}
        self._stack: list[int] = []
        #: Spans are only recorded while this is True (the timed region).
        self.recording = False
        #: Highest ``Simulator.pending`` seen after arming a timer.
        self.pending_peak = 0
        #: message type -> attribute naming the discovery it belongs to.
        self.trace_keys: dict[type, str] = {}

    def __len__(self) -> int:
        return len(self.start)

    @property
    def full(self) -> bool:
        return len(self.start) >= self.max_spans

    def truncate(self, length: int) -> None:
        """Forget every span recorded after the first ``length``."""
        for column in (self.start, self.end, self.parent, self.label, self.trace):
            del column[length:]

    def label_id(self, label: str) -> int:
        ident = self._label_ids.get(label)
        if ident is None:
            ident = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return ident

    def current_trace(self) -> int:
        stack = self._stack
        return self.trace[stack[-1]] if stack else -1

    def enter(self, label: int, args: tuple, inherited: int = -1) -> int:
        """Open a span; returns its index (-1 when not recording)."""
        if not self.recording or len(self.start) >= self.max_spans:
            return -1
        stack = self._stack
        parent = stack[-1] if stack else -1
        trace = self.trace[parent] if parent >= 0 else inherited
        keys = self.trace_keys
        for arg in args:
            attr = keys.get(type(arg))
            if attr is not None:
                uuid = getattr(arg, attr)
                trace = self._trace_index.get(uuid, -1)
                if trace < 0:
                    trace = self._trace_index[uuid] = len(self.trace_ids)
                    self.trace_ids.append(uuid)
                break
        index = len(self.start)
        self.parent.append(parent)
        self.label.append(label)
        self.trace.append(trace)
        self.end.append(0)
        stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def exit(self, index: int) -> None:
        if index < 0:
            return
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    # -- aggregation ------------------------------------------------------
    def aggregate(self) -> dict[str, tuple[int, int]]:
        """``label -> (calls, self ns)`` over every recorded span."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        label = np.frombuffer(self.label, dtype=np.int32)
        own = self_times(start, end, parent)
        calls = np.bincount(label, minlength=len(self.labels))
        self_ns = np.bincount(label, weights=own, minlength=len(self.labels))
        return {
            name: (int(calls[i]), int(self_ns[i]))
            for i, name in enumerate(self.labels)
            if calls[i]
        }

    def root_ns(self) -> int:
        """Total duration of top-level spans: the time tracing attributed."""
        if not len(self.start):
            return 0
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        roots = np.frombuffer(self.parent, dtype=np.int32) < 0
        return int((end[roots] - start[roots]).sum())

    def write(self, path) -> None:
        """Write every span (label, start, end, parent, trace) as one ``.npz``."""
        np.savez(
            path,
            labels=np.array(self.labels, dtype=object),
            traces=np.array(self.trace_ids, dtype=object),
            label=np.frombuffer(self.label, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            trace=np.frombuffer(self.trace, dtype=np.int32),
        )


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    ``parent[i]`` is the index of span ``i``'s enclosing span, or -1.
    Children nest inside their parent on one thread, so the covered
    time is the sum of the children's durations.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------
class _Patcher:
    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object, bool]] = []

    def set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, old, had in reversed(self._undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()


def install(store: SpanStore):
    """Wrap every entry point listed in the module docstring.

    Must run before the world is built: handlers and timers are wrapped
    when they are registered.  Returns a function that restores every
    patched attribute.
    """
    import repro.core.codec as codec
    from repro.core.messages import (
        Ack,
        DiscoveryBusy,
        DiscoveryRequest,
        DiscoveryResponse,
    )
    from repro.discovery.ping import Pinger
    from repro.discovery.replication import ReplicationState
    from repro.discovery.selection import select_target_set
    from repro.discovery.sharding import ShardedDedup, ShardedRegistry
    from repro.obs.recorder import FlightRecorder
    from repro.obs.registry import Counter, Gauge, Histogram
    from repro.runtime.aio import AioRuntime
    from repro.simnet.network import Network
    from repro.simnet.simulator import ScheduledEvent, Simulator
    from repro.substrate.broker import Broker

    store.trace_keys.update(
        {
            DiscoveryRequest: "uuid",
            Ack: "uuid",
            DiscoveryResponse: "request_uuid",
            DiscoveryBusy: "request_uuid",
        }
    )
    patcher = _Patcher()
    enter, exit_ = store.enter, store.exit

    def span(fn, label: str):
        ident = store.label_id(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = enter(ident, args)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(index)

        return wrapper

    def callback(fn):
        """Wrap a handler or timer callback, labelled by its own module."""
        ident = store.label_id(_label_of(fn))
        inherited = store.current_trace()

        def wrapper(*args, **kwargs):
            index = enter(ident, args, inherited)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(index)

        return wrapper

    def with_callback(fn, label: str, position: int):
        """Span ``fn`` and wrap its ``position``-th argument as a callback."""
        ident = store.label_id(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if position < len(args):
                args = args[:position] + (callback(args[position]),) + args[position + 1:]
            index = enter(ident, args)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(index)

        return wrapper

    # -- module functions, wherever they were imported --------------------
    functions = {
        id(fn): span(fn, f"{fn.__module__}:{fn.__qualname__}")
        for fn in (
            codec.encode_message,
            codec.decode_message,
            codec.lazy_decode,
            codec.wire_size,
            select_target_set,
        )
    }
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in functions and isinstance(value, FunctionType):
                patcher.set(module, attr, functions[id(value)])

    # -- public methods ----------------------------------------------------
    callback_args = {"bind_udp": 2, "listen_tcp": 2, "connect_tcp": 3}
    timer_args = {"schedule": 2, "schedule_at": 2, "call_every": 2}

    def wrap_class(cls, names=None, extra_callbacks=None) -> None:
        positions = dict(callback_args)
        positions.update(extra_callbacks or {})
        for attr, value in list(vars(cls).items()):
            if not isinstance(value, FunctionType):
                continue
            if names is None and attr.startswith("_"):
                continue
            if names is not None and attr not in names:
                continue
            label = f"{cls.__module__}:{cls.__qualname__}.{attr}"
            if attr in positions:
                patcher.set(cls, attr, with_callback(value, label, positions[attr]))
            else:
                patcher.set(cls, attr, span(value, label))

    wrap_class(Network)
    wrap_class(AioRuntime, extra_callbacks=timer_args)
    wrap_class(AioRuntime, names={"_udp_received"})
    wrap_class(Pinger)
    wrap_class(ShardedRegistry)
    wrap_class(ShardedDedup)
    wrap_class(ReplicationState, names={a for a in vars(ReplicationState) if a.startswith("on_")})
    wrap_class(DiscoveryRequest, names={"forwarded", "retransmission"})
    wrap_class(ScheduledEvent, names={"cancel"})
    wrap_class(Broker, names={"_route"})
    wrap_class(Broker, names={"add_udp_handler", "add_control_handler"},
               extra_callbacks={"add_udp_handler": 2, "add_control_handler": 2})
    wrap_class(FlightRecorder, names={"emit"})
    for metric in (Counter, Gauge, Histogram):
        wrap_class(metric, names={"inc", "set", "observe"})
    wrap_class(Simulator, names={"call_every", "run_for"}, extra_callbacks=timer_args)

    # The simulator binds its scheduler implementation per instance.
    original_init = Simulator.__init__
    per_instance = ("schedule", "schedule_at", "schedule_fire", "schedule_fire_at")

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        for attr in per_instance:
            label = f"repro.simnet.simulator:Simulator.{attr}"
            bound = with_callback(getattr(self, attr), label, 1)
            setattr(self, attr, _note_pending(bound, self, store))
        for attr in ("step", "run"):
            label = f"repro.simnet.simulator:Simulator.{attr}"
            setattr(self, attr, span(getattr(self, attr), label))

    patcher.set(Simulator, "__init__", init)
    return patcher.undo


def _note_pending(fn, sim, store: SpanStore):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if store.recording:
            pending = sim.pending
            if pending > store.pending_peak:
                store.pending_peak = pending
        return result

    return wrapper
