"""The four benchmark workloads.

Each workload builds a world from the seed (:meth:`setup`, timed as
``setup_s``), runs one timed region of discoveries (:meth:`run`,
which gives the calibrator of ``calibrate.py`` its slices, or is
passed ``None`` in a traced run),
checks the program's outputs (:meth:`check`) and exposes the program's
own counters (:meth:`counters`) for the traced run.  An *episode* is
one setup plus one timed region; ``run.py`` repeats episodes until the
run's time budget is spent.

The sim workloads are single-threaded discrete-event simulations; an
episode with a given seed is bit-identical every time, which ``run.py``
checks.  ``live_loopback`` runs one asyncio event loop on 127.0.0.1.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import BDNConfig, ClientConfig, Endpoint, ReplicationConfig
from repro.core.messages import DiscoveryRequest, DiscoveryResponse
from repro.discovery.advertisement import advertise_direct, start_periodic_advertisement
from repro.discovery.bdn import BDN, BDN_UDP_PORT
from repro.discovery.requester import DiscoveryClient
from repro.discovery.responder import DiscoveryResponder
from repro.experiments.harness import run_discovery_once
from repro.experiments.scenarios import DiscoveryScenario, ScenarioSpec
from repro.obs import Observability
from repro.runtime.aio import AioRuntime
from repro.simnet.latency import UniformLatencyModel
from repro.simnet.loss import NoLoss
from repro.substrate.broker import Broker
from repro.substrate.builder import BrokerNetwork

from calibrate import SLICE_EVENTS
from stats import due_time_latencies

__all__ = ["WORKLOADS", "EpisodeResult"]


@dataclass
class EpisodeResult:
    """What one timed region produced."""

    latencies_ms: list[float]
    attempted: int
    failed: int
    #: Per-phase durations (ms) of every completed full-client discovery.
    phases_ms: list[dict[str, float]] = field(default_factory=list)
    transmissions: list[int] = field(default_factory=list)
    #: Open-loop generator lateness (ms), live_loopback only.
    lateness_ms: list[float] = field(default_factory=list)
    #: Virtual-time fingerprint; equal across episodes of one seed.
    fingerprint: tuple = ()

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def _child_rng(root: np.random.Generator) -> np.random.Generator:
    return np.random.default_rng(root.integers(0, 2**63))


def _sum(objs, attr: str) -> float:
    return float(sum(getattr(o, attr) for o in objs))


def _node_counters(bdns, responders, brokers, clients) -> dict[str, float]:
    """Program counters shared by every world, summed over its nodes."""
    pingers = [b.pinger for b in bdns] + [c.pinger for c in clients]
    return {
        "bdn.requests": _sum(bdns, "requests_received"),
        "bdn.disseminated": _sum(bdns, "requests_disseminated"),
        "bdn.stale_targets": _sum(bdns, "stale_targets"),
        "dedup.hits": float(sum(b.dedup.hits for b in bdns)),
        "dedup.misses": float(sum(b.dedup.misses for b in bdns)),
        "registry.leases_expired": float(sum(b.registry.leases_expired for b in bdns)),
        "replication.appends": float(
            sum(b.replication.appends_sent for b in bdns if b.replication is not None)
        ),
        "ping.sent": _sum(pingers, "pings_sent"),
        "ping.pongs": _sum(pingers, "pongs_received"),
        "responder.processed": _sum(responders, "requests_processed"),
        "responder.sent": _sum(responders, "responses_sent"),
        "responder.suppressed": _sum(responders, "responses_suppressed"),
        "broker.events_forwarded": _sum(brokers, "events_forwarded"),
        "broker.events_routed": _sum(brokers, "events_routed"),
        "broker.dup_suppressed": _sum(brokers, "duplicates_suppressed"),
        "requester.late_responses": _sum(clients, "late_responses"),
    }


def _sim_counters(net: BrokerNetwork) -> dict[str, float]:
    network = net.network
    return {
        "sim.events": float(net.sim.events_processed),
        "net.datagrams_sent": float(network.datagrams_sent),
        "net.dropped": float(network.datagrams_dropped),
        "net.bytes_sent": float(network.bytes_sent),
    }


def _advance(sim, until: float, cal, step: float) -> None:
    """``sim.run(until=until)``, with a calibration tick every ``step`` virtual s.

    Events fire in the same order as in one ``run`` call, so the episode
    stays bit-identical.
    """
    if cal is None:
        sim.run(until=until)
        return
    while sim.now < until:
        sim.run(until=min(sim.now + step, until))
        cal.tick()


def _outcome_fields(outcome, result: EpisodeResult) -> None:
    result.phases_ms.append({k: v * 1e3 for k, v in outcome.phases.durations().items()})
    result.transmissions.append(outcome.transmissions)


# ---------------------------------------------------------------------------
# paper_wan
# ---------------------------------------------------------------------------
class PaperWan:
    """The paper's Table-1 WAN; star, linear and unconnected in rotation."""

    name = "paper_wan"
    deterministic = True
    wall_paced = False
    CAL_SLICE_EVENTS = SLICE_EVENTS
    #: Sequential discoveries per episode, one topology after another.
    DISCOVERIES = 1500
    #: Idle virtual seconds between discoveries (the paper's loop gap).
    GAP = 0.5
    TOPOLOGIES = ("star", "linear", "unconnected")

    def setup(self, seed: int):
        ctors = {
            "star": ScenarioSpec.star,
            "linear": ScenarioSpec.linear,
            "unconnected": ScenarioSpec.unconnected,
        }
        return {t: DiscoveryScenario(ctors[t](seed=seed)) for t in self.TOPOLOGIES}

    def run(self, world, cal) -> EpisodeResult:
        result = EpisodeResult([], self.DISCOVERIES, 0)
        tick = cal.tick if cal is not None else (lambda: None)
        world_order = [world[t] for t in self.TOPOLOGIES]
        per_topology: dict[str, list[float]] = {t: [] for t in self.TOPOLOGIES}
        selected: list[tuple[str, str]] = []
        for i in range(self.DISCOVERIES):
            topology = self.TOPOLOGIES[i % len(self.TOPOLOGIES)]
            scenario = world_order[i % len(world_order)]
            outcome = run_discovery_once(scenario.client)
            scenario.net.sim.run_for(self.GAP)
            tick()
            if not outcome.success:
                result.failed += 1
                continue
            ms = outcome.total_time * 1e3
            result.latencies_ms.append(ms)
            per_topology[topology].append(ms)
            selected.append((topology, outcome.selected.broker_id))
            _outcome_fields(outcome, result)
        result.fingerprint = tuple(result.latencies_ms)
        world["_per_topology"] = per_topology
        world["_selected"] = selected
        return result

    def check(self, world, result: EpisodeResult) -> list[str]:
        problems = []
        for topology, broker_id in world["_selected"]:
            if broker_id not in world[topology].net.brokers:
                problems.append(f"{topology}: selected unregistered broker {broker_id!r}")
        medians = {t: float(np.median(v)) for t, v in world["_per_topology"].items() if v}
        if len(medians) == 3 and not (medians["star"] < medians["linear"] < medians["unconnected"]):
            problems.append(f"median discovery time order broken: {medians}")
        return problems

    def counters(self, world) -> dict[str, float]:
        total: dict[str, float] = {}
        for t in self.TOPOLOGIES:
            s = world[t]
            part = _node_counters(
                [s.bdn], list(s.responders.values()), s.brokers, [s.client]
            )
            part.update(_sim_counters(s.net))
            for k, v in part.items():
                total[k] = total.get(k, 0.0) + v
        return total

    def teardown(self, world) -> None:
        pass


# ---------------------------------------------------------------------------
# flash_crowd
# ---------------------------------------------------------------------------
class FlashCrowd:
    """Lean requesters arriving at once at one sharded BDN with many ads."""

    name = "flash_crowd"
    deterministic = True
    wall_paced = False
    CAL_SLICE_EVENTS = SLICE_EVENTS
    CLIENTS = 2500
    BROKERS = 256
    SHARDS = 16
    #: Simulated seconds the arrivals are spread over.
    WINDOW = 5.0
    TIMEOUT = 5.0
    CLIENT_HOSTS = 64
    BASE_PORT = 20_000

    def setup(self, seed: int):
        net = BrokerNetwork(
            seed=seed,
            latency=UniformLatencyModel(base=0.010, jitter_fraction=0.02),
            loss=NoLoss(),
        )
        responders = []
        for i in range(self.BROKERS):
            broker = net.add_broker(f"b{i:03d}", site=f"site{i % 8}")
            responders.append(DiscoveryResponder(broker))
        bdn = BDN(
            "bdn0",
            "bdn0.crowd",
            net.network,
            np.random.default_rng(seed + 1),
            config=BDNConfig(injection="closest_farthest", shards=self.SHARDS),
            site="site0",
        )
        bdn.start()
        for broker in net.broker_list():
            advertise_direct(broker, bdn.udp_endpoint)
        net.settle(8.0)
        hosts = [f"ch{i}.crowd" for i in range(self.CLIENT_HOSTS)]
        for i, host in enumerate(hosts):
            net.network.register_host(host, site=f"site{i % 8}")
        rng = np.random.default_rng(seed + 2)
        arrivals = np.sort(rng.uniform(0.0, self.WINDOW, size=self.CLIENTS))
        return {
            "net": net,
            "bdn": bdn,
            "responders": responders,
            "hosts": hosts,
            "arrivals": arrivals,
        }

    def run(self, world, cal) -> EpisodeResult:
        net, bdn, hosts = world["net"], world["bdn"], world["hosts"]
        sim, network = net.sim, net.network
        n = self.CLIENTS
        sent_at = [0.0] * n
        latencies: list[float | None] = [None] * n
        timers: list = [None] * n
        failed = [0]
        t0 = sim.now + 0.5

        def make_client(j: int) -> None:
            n_hosts = self.CLIENT_HOSTS
            endpoint = Endpoint(hosts[j % n_hosts], self.BASE_PORT + j // n_hosts)

            def on_udp(message, src) -> None:
                timer = timers[j]
                if type(message) is not DiscoveryResponse or timer is None:
                    return
                timers[j] = None
                timer.cancel()
                latencies[j] = (sim.now - sent_at[j]) * 1e3

            def on_timeout() -> None:
                timers[j] = None
                failed[0] += 1

            def join() -> None:
                sent_at[j] = sim.now
                network.send_udp(
                    endpoint,
                    bdn.udp_endpoint,
                    DiscoveryRequest(
                        uuid=f"crowd-{j:06d}",
                        requester_host=endpoint.host,
                        requester_port=endpoint.port,
                        transports=("udp",),
                        issued_at=sim.now,
                    ),
                )
                timers[j] = sim.schedule(self.TIMEOUT, on_timeout)

            network.bind_udp(endpoint, on_udp)
            sim.schedule_at(t0 + float(world["arrivals"][j]), join)

        for j in range(n):
            make_client(j)
        _advance(sim, t0 + self.WINDOW + self.TIMEOUT + 1.0, cal, 0.02)
        done = [x for x in latencies if x is not None]
        world["_failed_timeouts"] = failed[0]
        return EpisodeResult(done, n, n - len(done), fingerprint=tuple(latencies))

    def check(self, world, result: EpisodeResult) -> list[str]:
        problems = []
        if result.completed + world["_failed_timeouts"] != self.CLIENTS:
            problems.append(
                f"completed {result.completed} + failed {world['_failed_timeouts']} "
                f"!= clients {self.CLIENTS}"
            )
        if world["bdn"].stale_targets:
            problems.append(f"bdn.stale_targets = {world['bdn'].stale_targets}")
        return problems

    def counters(self, world) -> dict[str, float]:
        net = world["net"]
        out = _node_counters([world["bdn"]], world["responders"], net.broker_list(), [])
        out.update(_sim_counters(net))
        return out

    def teardown(self, world) -> None:
        pass


# ---------------------------------------------------------------------------
# ad_churn
# ---------------------------------------------------------------------------
class AdChurn:
    """A replicated BDN group absorbing heartbeats and lease churn."""

    name = "ad_churn"
    deterministic = True
    wall_paced = False
    CAL_SLICE_EVENTS = SLICE_EVENTS
    BROKERS = 200
    #: Brokers whose heartbeat is switched off and on during the run.
    CHURNING = 60
    REPLICAS = 3
    HEARTBEAT = 2.0
    LEASE_TTL = 6.0
    CLIENTS = 6
    #: Idle virtual seconds a client waits between its discoveries.
    CLIENT_GAP = 0.2
    #: Virtual seconds of the timed region.
    DURATION = 70.0
    CHURN_PERIOD = 0.5
    CHURN_FLIPS = 2
    #: Quiet virtual seconds after the churn stops, before the checks.
    QUIET = 2.5 * LEASE_TTL
    REPLICATION = dict(
        lease_duration=2.0,
        heartbeat_interval=0.5,
        election_stagger=0.25,
        anti_entropy_interval=1.0,
    )

    def setup(self, seed: int):
        net = BrokerNetwork(
            seed=seed,
            latency=UniformLatencyModel(base=0.010, jitter_fraction=0.02),
            loss=NoLoss(),
        )
        members = tuple(
            (f"d{j}", Endpoint(f"d{j}.churn", BDN_UDP_PORT)) for j in range(self.REPLICAS)
        )
        config = BDNConfig(
            injection="closest_farthest",
            ping_interval=self.HEARTBEAT,
            replication=ReplicationConfig(group="g0", members=members, **self.REPLICATION),
        )
        bdns = []
        for j in range(self.REPLICAS):
            bdn = BDN(
                f"d{j}", f"d{j}.churn", net.network, _child_rng(net.master_rng),
                config=config, site=f"site{j}",
            )
            bdn.start()
            bdns.append(bdn)
        endpoints = tuple(b.udp_endpoint for b in bdns)
        responders = []
        for i in range(self.BROKERS):
            broker = net.add_broker(f"b{i:03d}", site=f"site{i % 8}")
            responder = DiscoveryResponder(broker)
            responders.append(responder)
            if i >= self.CHURNING:
                responder.attach_group_heartbeat(
                    endpoints, interval=self.HEARTBEAT, ttl=self.LEASE_TTL
                )
        # Churning brokers renew with every member directly, so their
        # heartbeat can be switched off (the lease lapses while the
        # broker keeps answering) and on again at will.
        heartbeats = {}
        for responder in responders[: self.CHURNING]:
            heartbeats[responder.broker.name] = self._beat(responder.broker, endpoints)
        clients = []
        for k in range(self.CLIENTS):
            client = DiscoveryClient(
                f"c{k}", f"c{k}.churn", net.network, _child_rng(net.master_rng),
                config=ClientConfig(
                    bdn_endpoints=endpoints,
                    response_timeout=1.0,
                    retransmit_interval=0.5,
                    max_retransmits=2,
                    max_responses=2,
                    target_set_size=2,
                    ping_timeout=0.5,
                ),
                site=f"site{k % 8}",
            )
            client.start()
            clients.append(client)
        net.settle(8.0)
        return {
            "net": net,
            "bdns": bdns,
            "responders": responders,
            "clients": clients,
            "endpoints": endpoints,
            "heartbeats": heartbeats,
            "rng": np.random.default_rng(seed + 3),
        }

    def _beat(self, broker: Broker, endpoints):
        return [
            start_periodic_advertisement(
                broker, ep, interval=self.HEARTBEAT, burst=1, ttl=self.LEASE_TTL
            )
            for ep in endpoints
        ]

    def run(self, world, cal) -> EpisodeResult:
        net, clients = world["net"], world["clients"]
        sim = net.sim
        rng, heartbeats, endpoints = world["rng"], world["heartbeats"], world["endpoints"]
        churners = [r.broker for r in world["responders"][: self.CHURNING]]
        result = EpisodeResult([], 0, 0)
        end = sim.now + self.DURATION

        def churn() -> None:
            for idx in rng.choice(len(churners), size=self.CHURN_FLIPS, replace=False):
                broker = churners[int(idx)]
                handles = heartbeats[broker.name]
                if handles is None:
                    heartbeats[broker.name] = self._beat(broker, endpoints)
                else:
                    for h in handles:
                        h.cancel()
                    heartbeats[broker.name] = None

        def start_discovery(client: DiscoveryClient) -> None:
            if sim.now >= end:
                return
            result.attempted += 1
            client.discover(lambda outcome: finished(client, outcome))

        def finished(client: DiscoveryClient, outcome) -> None:
            if outcome.success:
                result.latencies_ms.append(outcome.total_time * 1e3)
                _outcome_fields(outcome, result)
            sim.schedule(self.CLIENT_GAP, start_discovery, client)

        churn_timer = sim.call_every(self.CHURN_PERIOD, churn)
        for k, client in enumerate(clients):
            sim.schedule(k * self.CLIENT_GAP / len(clients), start_discovery, client)
        _advance(sim, end, cal, 0.1)
        churn_timer.cancel()
        # In-flight discoveries finish inside the timed region; one still
        # open after that counts as failed.
        _advance(sim, sim.now + 5.0, cal, 0.1)
        result.failed = result.attempted - len(result.latencies_ms)
        result.fingerprint = tuple(result.latencies_ms)
        return result

    def check(self, world, result: EpisodeResult) -> list[str]:
        net, bdns, heartbeats = world["net"], world["bdns"], world["heartbeats"]
        for name, handles in heartbeats.items():
            if handles is None:
                heartbeats[name] = self._beat(net.brokers[name], world["endpoints"])
        net.sim.run_for(self.QUIET)
        problems = []
        now = net.sim.now
        registries = {b.name: tuple(b.store.broker_ids(now)) for b in bdns}
        if len(set(registries.values())) != 1:
            sizes = {k: len(v) for k, v in registries.items()}
            problems.append(f"replica registries differ after quiet period: sizes {sizes}")
        elif len(next(iter(registries.values()))) != self.BROKERS:
            problems.append(
                f"replicas hold {len(next(iter(registries.values())))} of {self.BROKERS} brokers"
            )
        leaders = [b.name for b in bdns if b.replication.is_leader()]
        if len(leaders) != 1:
            problems.append(f"expected exactly one leader, found {leaders}")
        return problems

    def counters(self, world) -> dict[str, float]:
        net = world["net"]
        out = _node_counters(
            world["bdns"], world["responders"], net.broker_list(), world["clients"]
        )
        out.update(_sim_counters(net))
        return out

    def teardown(self, world) -> None:
        pass


# ---------------------------------------------------------------------------
# live_loopback
# ---------------------------------------------------------------------------
class _GarbleCounter:
    """Runtime tracer that only counts undecodable datagrams."""

    def __init__(self) -> None:
        self.garbled = 0

    def record(self, event: str, node: str, **detail) -> None:
        if event == "udp_garbled":
            self.garbled += 1


class LiveLoopback:
    """Real sockets on 127.0.0.1; one open-loop request generator."""

    name = "live_loopback"
    deterministic = False
    #: Wall time here is set by the open-loop schedule and the set-up's
    #: sleeps, not by how fast the machine runs the program.
    wall_paced = True
    BROKERS = 4
    #: Offered load, requests per second (open loop).
    RATE = 200.0
    #: Seconds of offered load per episode.
    LOAD_SECONDS = 5.0
    #: A request unanswered this long after it was due has failed.
    TIMEOUT = 1.0
    WARMUP_REQUESTS = 20
    #: Reference events per calibration slice: a slice stalls the event
    #: loop, so it is kept to a fraction of a millisecond.
    CAL_SLICE_EVENTS = 100

    def setup(self, seed: int):
        runner = asyncio.Runner()
        world = {"runner": runner, "seed": seed}
        runner.run(self._setup(world))
        return world

    async def _setup(self, world) -> None:
        seed = world["seed"]
        counter = _GarbleCounter()
        rt = AioRuntime(tracer=counter)
        obs = Observability.for_runtime(rt)
        rt.attach_observability(obs)
        root = np.random.default_rng(seed)
        bdn = BDN(
            "bdn0", "bdn0.local", rt, _child_rng(root),
            config=BDNConfig(injection="closest_farthest", ping_interval=1.0, fanout_delay=0.0005),
            site="site0", realm="lab", obs=obs,
        )
        brokers = [
            Broker(
                f"b{i}", f"b{i}.local", rt, _child_rng(root),
                site=f"site{i}", realm="lab", obs=obs,
            )
            for i in range(self.BROKERS)
        ]
        responders = [DiscoveryResponder(b) for b in brokers]
        gen = Endpoint("gen.local", 7000)
        rt.register_host(gen.host, site="gen", realm="lab")
        state = {"first": {}, "sent": set(), "unknown": 0}

        def on_response(message, src) -> None:
            if type(message) is not DiscoveryResponse:
                return
            uuid = message.request_uuid
            if uuid not in state["sent"]:
                state["unknown"] += 1
                return
            state["first"].setdefault(uuid, rt.now)

        bdn.start()
        for broker in brokers:
            broker.start()
        rt.bind_udp(gen, on_response)
        await rt.ready()
        for node in (bdn, *brokers):
            node.ntp.sync_now()
        for broker in brokers:
            advertise_direct(broker, bdn.udp_endpoint)
        await asyncio.sleep(0.1)
        # Warm-up: the BDN has measured its brokers and every path ran once.
        for k in range(self.WARMUP_REQUESTS):
            self._send(rt, bdn, gen, state, f"warm-{k}")
            await asyncio.sleep(0.005)
        await asyncio.sleep(0.1)
        world.update(
            rt=rt, obs=obs, bdn=bdn, brokers=brokers, responders=responders,
            gen=gen, state=state, counter=counter,
        )

    @staticmethod
    def _send(rt, bdn, gen, state, uuid: str) -> None:
        state["sent"].add(uuid)
        rt.send_udp(
            gen,
            bdn.udp_endpoint,
            DiscoveryRequest(
                uuid=uuid,
                requester_host=gen.host,
                requester_port=gen.port,
                transports=("udp",),
                issued_at=rt.now,
                trace_flag=True,
            ),
        )

    def run(self, world, cal) -> EpisodeResult:
        return world["runner"].run(self._run(world, cal))

    async def _run(self, world, cal) -> EpisodeResult:
        rt, bdn, gen, state = world["rt"], world["bdn"], world["gen"], world["state"]
        n = int(self.RATE * self.LOAD_SECONDS)
        interval = 1.0 / self.RATE
        start = rt.now + 0.01
        due = [start + k * interval for k in range(n)]
        uuids = [f"req-{k:06d}" for k in range(n)]
        lateness = []
        k = 0
        while k < n:
            wait = due[k] - rt.now
            if wait > 0:
                await asyncio.sleep(wait)
            now = rt.now
            # Open loop: everything that has come due goes out now, however
            # late the generator is running.
            while k < n and due[k] <= now:
                lateness.append((now - due[k]) * 1e3)
                self._send(rt, bdn, gen, state, uuids[k])
                k += 1
            if cal is not None:
                cal.tick()
        deadline = due[-1] + self.TIMEOUT
        first = state["first"]
        while rt.now < deadline and len(first) < n + self.WARMUP_REQUESTS:
            await asyncio.sleep(0.01)
        answered = [
            first.get(u) if first.get(u, float("inf")) <= d + self.TIMEOUT else None
            for u, d in zip(uuids, due)
        ]
        latencies = [x * 1e3 for x in due_time_latencies(due, answered)]
        return EpisodeResult(latencies, n, n - len(latencies), lateness_ms=lateness)

    def check(self, world, result: EpisodeResult) -> list[str]:
        rt, state = world["rt"], world["state"]
        problems = []
        if rt.errors:
            problems.append(f"AioRuntime.errors: {list(rt.errors)[:3]}")
        if world["counter"].garbled:
            problems.append(f"{world['counter'].garbled} garbled datagrams")
        if state["unknown"]:
            problems.append(f"{state['unknown']} responses named a request never sent")
        return problems

    def counters(self, world) -> dict[str, float]:
        rt = world["rt"]
        out = _node_counters([world["bdn"]], world["responders"], world["brokers"], [])
        out.update(
            {
                "aio.datagrams_sent": float(rt.datagrams_sent),
                "aio.datagrams_delivered": float(rt.datagrams_delivered),
                "aio.datagrams_dropped": float(rt.datagrams_dropped),
                "aio.bytes_sent": float(rt.bytes_sent),
                "aio.handler_errors": float(len(rt.errors) + rt.errors_dropped),
            }
        )
        return out

    def teardown(self, world) -> None:
        runner = world["runner"]
        try:
            if "rt" in world:
                runner.run(world["rt"].aclose())
        finally:
            runner.close()


WORKLOADS = {w.name: w for w in (PaperWan(), FlashCrowd(), AdChurn(), LiveLoopback())}
