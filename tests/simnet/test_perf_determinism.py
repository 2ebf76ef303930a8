"""Seeded worlds must stay bit-for-bit identical to their golden digests.

``golden_traces.json`` holds one sha256 digest per world: the full
result (trace records, event count, virtual end time, outcomes) of a
seeded discovery (star and linear), substrate and overload run.  The
worlds exercise every hot path that could perturb scheduling or RNG
draw order -- heap compaction of cancelled timers, the fabric's path
and multicast caches, broker route memoisation, the runtime adapter,
service-time queues and admission shedding.  A digest mismatch means a
change moved an event or a random draw: a correctness bug, not a perf
trade-off.  Each digest was once computed with every cache switched
off as well as on and came out the same, so it stands as the reference
those caches are checked against.  Each golden test runs its world cold
and warm (built and run once before, in the same process), so no module
counter, cache or memo carried between worlds can move a digest either.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.messages import Event
from repro.experiments.scenarios import DiscoveryScenario, ScenarioSpec
from repro.substrate.builder import BrokerNetwork, Topology


def _trace_signature(net) -> tuple:
    return tuple((r.time, r.event, r.node, r.detail) for r in net.tracer.records)


def _run_discovery_world(topology: str, runs: int = 3) -> tuple:
    ctor = {"star": ScenarioSpec.star, "linear": ScenarioSpec.linear}[topology]
    scenario = DiscoveryScenario(ctor(seed=5), keep_trace=True)
    outcomes = scenario.run(runs=runs)
    sim = scenario.net.sim
    return (
        _trace_signature(scenario.net),
        sim.events_processed,
        sim.now,
        [(o.success, o.total_time, o.via, o.transmissions) for o in outcomes],
        [o.selected.broker_id for o in outcomes if o.selected is not None],
    )


def _run_substrate_world() -> tuple:
    net = BrokerNetwork(seed=13, keep_trace=True)
    for i in range(4):
        net.add_broker(f"b{i}", site=f"site{i % 2}")
    net.apply_topology(Topology.MESH)
    net.settle()
    brokers = list(net.brokers.values())
    timers = []
    for i in range(120):
        # Publish through the fabric and churn cancelled timers, the
        # pattern that triggers heap compaction.
        broker = brokers[i % len(brokers)]
        net.sim.schedule(
            0.01 * i,
            broker.publish_local,
            Event(
                uuid=f"ev-{i}",
                topic=f"t/{i % 5}",
                payload=b"x" * 32,
                source=broker.name,
                issued_at=0.0,
            ),
        )
        timers.append(net.sim.schedule(60.0 + i, lambda: None))
    for t in timers:
        t.cancel()
    net.sim.run_for(5.0)
    return (_trace_signature(net), net.sim.events_processed, net.sim.now)


def _run_overload_world() -> tuple:
    """An overload-protected world under a request storm.

    Exercises the service-time queues, admission shedding, the client's
    budgeted retries / breakers, and the storm injector -- all the new
    machinery must schedule and draw exactly as when the digest was taken.
    """
    import numpy as np

    from repro.core.config import BDNConfig, ClientConfig, RetryPolicyConfig, ServiceConfig
    from repro.discovery.advertisement import advertise_direct
    from repro.discovery.bdn import BDN
    from repro.discovery.faults import FaultInjector
    from repro.discovery.requester import DiscoveryClient
    from repro.discovery.responder import DiscoveryResponder
    from repro.experiments.harness import run_discovery_once

    net = BrokerNetwork(seed=21, keep_trace=True)
    responders = []
    for i in range(3):
        broker = net.add_broker(f"b{i}", site=f"s{i}", realm="lab")
        responders.append(DiscoveryResponder(broker))
    bdn = BDN(
        "d0",
        "d0.host",
        net.network,
        np.random.default_rng(99),
        config=BDNConfig(
            injection="all",
            service=ServiceConfig(
                queue_capacity=8,
                service_time=0.5,
                service_times=(("BrokerAdvertisement", 0.001), ("PingResponse", 0.001)),
            ),
            admission_high_watermark=2,
            busy_retry_after=0.5,
        ),
        site="bdn-site",
        realm="lab",
        tracer=net.tracer,
    )
    bdn.start()
    for broker in net.brokers.values():
        advertise_direct(broker, bdn.udp_endpoint)
    net.settle(8.0)
    client = DiscoveryClient(
        "c0",
        "c0.host",
        net.network,
        np.random.default_rng(77),
        config=ClientConfig(
            bdn_endpoints=(bdn.udp_endpoint,),
            response_timeout=2.0,
            retransmit_interval=2.0,
            retry_policy=RetryPolicyConfig(
                budget_capacity=2,
                budget_refill_per_sec=0.5,
                backoff_base=0.2,
                backoff_cap=0.5,
                breaker_failures=3,
                breaker_cooldown=1.0,
            ),
        ),
        site="client-site",
        realm="lab",
        tracer=net.tracer,
    )
    client.start()
    net.sim.run_for(4.0)
    injector = FaultInjector(net.network)
    injector.request_storm(bdn.udp_endpoint, rate=15.0, start=net.sim.now + 0.1, duration=3.0)
    net.sim.run_for(0.5)
    outcomes = [run_discovery_once(client) for _ in range(2)]
    net.sim.run_for(10.0)
    return (
        _trace_signature(net),
        net.sim.events_processed,
        net.sim.now,
        [(o.success, o.total_time, o.via, o.transmissions) for o in outcomes],
        (bdn.requests_shed, bdn.ingress.served, bdn.ingress.overflows),
        (client.busy_received, client.retries_denied, client.bdn_skips),
    )


# ----------------------------------------------------------------------
# Golden traces: the sim runtime adapter must be bit-for-bit invisible
# ----------------------------------------------------------------------
#
# tests/simnet/golden_traces.json holds sha256 digests of the full
# results (trace signature, event counts, virtual end time, outcomes)
# of these worlds captured BEFORE the engines were refactored
# onto the repro.runtime abstraction (when they still called the
# Simulator and Network directly).  Matching them proves the runtime
# split changed nothing observable: same trace records at the same
# virtual times, same event ordering, same RNG draw order.

_GOLDEN_PATH = Path(__file__).parent / "golden_traces.json"


def _digest(result: tuple) -> str:
    return hashlib.sha256(repr(result).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    with open(_GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _digest_of(run, warm: bool) -> str:
    """Digest of ``run()``; ``warm`` runs the same world once first."""
    if warm:
        run()
    return _digest(run())


@pytest.mark.parametrize("topology", ["star", "linear"])
@pytest.mark.parametrize("warm", [False, True])
def test_discovery_traces_match_pre_refactor_golden(golden, topology, warm):
    digest = _digest_of(lambda: _run_discovery_world(topology), warm)
    assert digest == golden[f"discovery_{topology}"]


@pytest.mark.parametrize("warm", [False, True])
def test_substrate_traces_match_pre_refactor_golden(golden, warm):
    assert _digest_of(_run_substrate_world, warm) == golden["substrate"]


@pytest.mark.parametrize("warm", [False, True])
def test_overload_traces_match_pre_refactor_golden(golden, warm):
    assert _digest_of(_run_overload_world, warm) == golden["overload"]


# ----------------------------------------------------------------------
# Observability must be bit-invisible when disabled
# ----------------------------------------------------------------------
#
# The flight recorder adds a wire trailer to traced messages and span
# emissions throughout the engines; with no Observability attached
# (every world above) none of that may perturb the golden digests.
# These tests interleave an *observed* world between disabled runs to
# prove the instrumentation also leaks no global state.


def _run_observed_world(topology: str = "star") -> tuple:
    scenario = DiscoveryScenario(
        {"star": ScenarioSpec.star, "linear": ScenarioSpec.linear}[topology](seed=5),
        observe=True,
    )
    outcome = scenario.run_one()
    return scenario, outcome


def test_observed_world_completes_and_records(golden):
    from repro.obs.timeline import assemble, complete_request_ids

    scenario, outcome = _run_observed_world()
    assert outcome.success
    obs = scenario.obs
    (trace_id,) = complete_request_ids(obs)
    assert trace_id == outcome.request_uuid
    assert assemble(obs, trace_id).is_complete()
    # ... and running it did not disturb the disabled-world digests.
    result = _run_discovery_world("star")
    assert _digest(result) == golden["discovery_star"]


def test_disabled_world_unchanged_after_observed_world(golden):
    before = _digest(_run_discovery_world("linear"))
    _run_observed_world("linear")
    after = _digest(_run_discovery_world("linear"))
    assert before == after == golden["discovery_linear"]
