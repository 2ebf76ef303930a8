"""Per-layer metrics of the traced run.

Every metric is computed on every workload; a layer a workload leaves
idle reads 0, and that zero is itself the prediction (see README.md).
Unless the unit says otherwise, ``calls`` and ``self_us`` are per
completed discovery, so runs that complete different numbers of
discoveries compare directly.  Self time is wall time inside a layer's
spans minus the time of the spans nested in them.
"""

from __future__ import annotations

from stats import percentile, tail_percentile

PER_DISCOVERY = "1/discovery"
US = "us/discovery"

PHASES = (
    "issue_request",
    "wait_initial_responses",
    "process_responses",
    "ping_target_set",
    "final_decision",
)

#: ``name -> unit`` for every per-layer metric, grouped by layer.
PER_LAYER: dict[str, str] = {
    # core.codec
    "codec.encode.calls": PER_DISCOVERY,
    "codec.encode.self_us": US,
    "codec.decode.calls": PER_DISCOVERY,
    "codec.decode.self_us": US,
    "codec.wire_size.calls": PER_DISCOVERY,
    "codec.wire_size.self_us": US,
    "codec.lazy_decode.calls": PER_DISCOVERY,
    "codec.bytes_per_discovery": "B/discovery",
    # core.messages
    "messages.forwarded.calls": PER_DISCOVERY,
    "messages.copy.self_us": US,
    # simnet.simulator + simnet.wheel
    "sim.events_per_discovery": PER_DISCOVERY,
    "sim.timers_armed": PER_DISCOVERY,
    "sim.timers_cancelled": PER_DISCOVERY,
    "sim.cancel_ratio": "ratio",
    "sim.dispatch.self_us": US,
    "sim.pending_peak": "count",
    # simnet.network
    "net.datagrams_per_discovery": PER_DISCOVERY,
    "net.dropped": "count",
    "net.send_udp.self_us": US,
    # runtime.aio and the open-loop generator
    "aio.datagrams_sent": PER_DISCOVERY,
    "aio.datagrams_delivered": PER_DISCOVERY,
    "aio.kernel_loss": "count",
    "aio.send_udp.self_us": US,
    "aio.handler.self_us": US,
    "aio.handler_errors": "count",
    "gen.lateness_p50_ms": "ms",
    "gen.lateness_p99_ms": "ms",
    "live.latency_p99_ms": "ms",
    "sim.latency_p99_ms": "ms",
    "latency.samples": "count",
    # discovery.requester + discovery.selection
    "requester.handler.self_us": US,
    "requester.transmissions_per_discovery": PER_DISCOVERY,
    "requester.late_responses": PER_DISCOVERY,
    **{f"requester.phase.{p}_ms": "ms" for p in PHASES},
    "selection.select_target_set.self_us": US,
    # discovery.ping
    "ping.sent": PER_DISCOVERY,
    "ping.pong_ratio": "ratio",
    "ping.average_rtt.calls_per_request": "1/request",
    "ping.self_us": US,
    # discovery.bdn, discovery.sharding (read path)
    "bdn.requests": PER_DISCOVERY,
    "bdn.disseminated": PER_DISCOVERY,
    "bdn.handler.self_us": US,
    "registry.all.calls": PER_DISCOVERY,
    "registry.all.self_us": US,
    "dedup.hit_ratio": "ratio",
    "bdn.stale_targets": "count",
    # discovery.advertisement writes + discovery.replication
    "registry.accept.calls": PER_DISCOVERY,
    "registry.accept.self_us": US,
    "replication.appends": PER_DISCOVERY,
    "replication.acks": PER_DISCOVERY,
    "replication.anti_entropy.digests": PER_DISCOVERY,
    "replication.anti_entropy.deltas": PER_DISCOVERY,
    "replication.self_us": US,
    "registry.leases_expired": "count",
    # discovery.responder
    "responder.processed": PER_DISCOVERY,
    "responder.sent": PER_DISCOVERY,
    "responder.suppressed_ratio": "ratio",
    "responder.handler.self_us": US,
    # substrate.broker
    "broker.events_forwarded": PER_DISCOVERY,
    "broker.dup_suppressed_ratio": "ratio",
    "broker.handler.self_us": US,
    # obs
    "obs.spans_per_discovery": PER_DISCOVERY,
    "obs.self_us": US,
    # the run as a whole, and the tracing itself
    "failed_frac": "ratio",
    "trace.attributed_frac": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.spans_per_discovery": PER_DISCOVERY,
}

# Span labels (``module:qualname``) the metrics read.
_CODEC = "repro.core.codec:"
_SIM = "repro.simnet.simulator:"
_REGISTRY = "repro.discovery.sharding:ShardedRegistry."
_REPLICATION = "repro.discovery.replication:ReplicationState."


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(
    spans: dict[str, tuple[int, int]],
    counters: dict[str, float],
    *,
    completed: int,
    attempted: int,
    failed: int,
    latencies_ms: list[float],
    lateness_ms: list[float],
    phases_ms: list[dict[str, float]],
    transmissions: list[int],
    pending_peak: int,
    attributed_ns: int,
    timed_cpu_s: float,
    overhead_ratio: float,
    live: bool,
) -> dict[str, float]:
    """Every PER_LAYER metric from span aggregates and counter deltas.

    ``spans`` maps a span label to ``(calls, self ns)``; ``counters``
    holds the program's own counters summed over the timed regions.
    """
    d = max(completed, 1)

    def calls(*labels: str) -> float:
        return float(sum(spans.get(label, (0, 0))[0] for label in labels))

    def self_us(*labels: str) -> float:
        return sum(spans.get(label, (0, 0))[1] for label in labels) / 1e3

    def module_us(*prefixes: str) -> float:
        return sum(ns for label, (_, ns) in spans.items() if label.startswith(prefixes)) / 1e3

    c = counters.get
    armed = calls(
        _SIM + "Simulator.schedule",
        _SIM + "Simulator.schedule_at",
    )
    cancelled = calls(_SIM + "ScheduledEvent.cancel")
    sent = c("aio.datagrams_sent", 0.0)
    delivered = c("aio.datagrams_delivered", 0.0)
    dropped = c("aio.datagrams_dropped", 0.0)
    bdn_requests = c("bdn.requests", 0.0)
    dedup_lookups = c("dedup.hits", 0.0) + c("dedup.misses", 0.0)
    routed = c("broker.events_routed", 0.0) + c("broker.dup_suppressed", 0.0)
    out = {
        "codec.encode.calls": calls(_CODEC + "encode_message") / d,
        "codec.encode.self_us": self_us(_CODEC + "encode_message") / d,
        "codec.decode.calls": calls(_CODEC + "decode_message") / d,
        "codec.decode.self_us": self_us(_CODEC + "decode_message") / d,
        "codec.wire_size.calls": calls(_CODEC + "wire_size") / d,
        "codec.wire_size.self_us": self_us(_CODEC + "wire_size") / d,
        "codec.lazy_decode.calls": calls(_CODEC + "lazy_decode") / d,
        "codec.bytes_per_discovery": (c("net.bytes_sent", 0.0) + c("aio.bytes_sent", 0.0)) / d,
        "messages.forwarded.calls": calls("repro.core.messages:DiscoveryRequest.forwarded") / d,
        "messages.copy.self_us": self_us(
            "repro.core.messages:DiscoveryRequest.forwarded",
            "repro.core.messages:DiscoveryRequest.retransmission",
        ) / d,
        "sim.events_per_discovery": c("sim.events", 0.0) / d,
        "sim.timers_armed": armed / d,
        "sim.timers_cancelled": cancelled / d,
        "sim.cancel_ratio": _ratio(cancelled, armed),
        "sim.dispatch.self_us": self_us(
            _SIM + "Simulator.run", _SIM + "Simulator.step", _SIM + "Simulator.run_for"
        ) / d,
        "sim.pending_peak": float(pending_peak),
        "net.datagrams_per_discovery": c("net.datagrams_sent", 0.0) / d,
        "net.dropped": c("net.dropped", 0.0),
        "net.send_udp.self_us": self_us("repro.simnet.network:Network.send_udp") / d,
        "aio.datagrams_sent": sent / d,
        "aio.datagrams_delivered": delivered / d,
        "aio.kernel_loss": max(sent - delivered - dropped, 0.0),
        "aio.send_udp.self_us": self_us("repro.runtime.aio:AioRuntime.send_udp") / d,
        "aio.handler.self_us": self_us("repro.runtime.aio:AioRuntime._udp_received") / d,
        "aio.handler_errors": c("aio.handler_errors", 0.0),
        "gen.lateness_p50_ms": percentile(lateness_ms, 50) if lateness_ms else 0.0,
        "gen.lateness_p99_ms": tail_percentile(lateness_ms, 99) if lateness_ms else 0.0,
        "live.latency_p99_ms": tail_percentile(latencies_ms, 99) if live else 0.0,
        "sim.latency_p99_ms": tail_percentile(latencies_ms, 99) if not live else 0.0,
        "latency.samples": float(len(latencies_ms)),
        "requester.handler.self_us": module_us("repro.discovery.requester:") / d,
        "requester.transmissions_per_discovery": (
            sum(transmissions) / len(transmissions) if transmissions else 0.0
        ),
        "requester.late_responses": c("requester.late_responses", 0.0) / d,
        "selection.select_target_set.self_us": self_us(
            "repro.discovery.selection:select_target_set"
        ) / d,
        "ping.sent": c("ping.sent", 0.0) / d,
        "ping.pong_ratio": _ratio(c("ping.pongs", 0.0), c("ping.sent", 0.0)),
        "ping.average_rtt.calls_per_request": _ratio(
            calls("repro.discovery.ping:Pinger.average_rtt"), bdn_requests
        ),
        "ping.self_us": module_us("repro.discovery.ping:") / d,
        "bdn.requests": bdn_requests / d,
        "bdn.disseminated": c("bdn.disseminated", 0.0) / d,
        "bdn.handler.self_us": module_us("repro.discovery.bdn:") / d,
        "registry.all.calls": calls(_REGISTRY + "all") / d,
        "registry.all.self_us": self_us(_REGISTRY + "all") / d,
        "dedup.hit_ratio": _ratio(c("dedup.hits", 0.0), dedup_lookups),
        "bdn.stale_targets": c("bdn.stale_targets", 0.0),
        "registry.accept.calls": calls(_REGISTRY + "accept", _REGISTRY + "accept_if_newer") / d,
        "registry.accept.self_us": self_us(_REGISTRY + "accept", _REGISTRY + "accept_if_newer") / d,
        "replication.appends": c("replication.appends", 0.0) / d,
        "replication.acks": calls(_REPLICATION + "on_replica_ack") / d,
        "replication.anti_entropy.digests": calls(_REPLICATION + "on_digest") / d,
        "replication.anti_entropy.deltas": calls(_REPLICATION + "on_delta") / d,
        "replication.self_us": module_us("repro.discovery.replication:") / d,
        "registry.leases_expired": c("registry.leases_expired", 0.0),
        "responder.processed": c("responder.processed", 0.0) / d,
        "responder.sent": c("responder.sent", 0.0) / d,
        "responder.suppressed_ratio": _ratio(
            c("responder.suppressed", 0.0), c("responder.processed", 0.0)
        ),
        "responder.handler.self_us": module_us("repro.discovery.responder:") / d,
        "broker.events_forwarded": c("broker.events_forwarded", 0.0) / d,
        "broker.dup_suppressed_ratio": _ratio(c("broker.dup_suppressed", 0.0), routed),
        "broker.handler.self_us": module_us("repro.substrate.broker:") / d,
        "obs.spans_per_discovery": calls("repro.obs.recorder:FlightRecorder.emit") / d,
        "obs.self_us": module_us("repro.obs.") / d,
        "failed_frac": _ratio(failed, attempted),
        "trace.attributed_frac": _ratio(attributed_ns / 1e9, timed_cpu_s),
        "trace.overhead_ratio": overhead_ratio,
        "trace.spans_per_discovery": sum(n for n, _ in spans.values()) / d,
    }
    for phase in PHASES:
        values = [p.get(phase, 0.0) for p in phases_ms]
        out[f"requester.phase.{phase}_ms"] = sum(values) / len(values) if values else 0.0
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return out


def module_self_us(spans: dict[str, tuple[int, int]]) -> dict[str, float]:
    """Self time (us) per module, every module that recorded spans."""
    totals: dict[str, float] = {}
    for label, (_, ns) in spans.items():
        module = label.split(":", 1)[0]
        totals[module] = totals.get(module, 0.0) + ns / 1e3
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))
