"""Broker Discovery Nodes.

Section 2 of the paper: BDNs are "registered nodes that facilitate the
discovery of brokers within the broker network".  They hold broker
advertisements, acknowledge discovery requests "in a timely manner"
(section 3), and propagate requests into the broker network
(section 4).  Key properties reproduced here:

* **Optional, non-uniform registration** -- not every broker registers;
  BDNs need not agree; "our scheme will work even if a single broker is
  registered with a given BDN".
* **Injection strategies** -- in a connected network the BDN injects
  the request "simultaneously to the brokers that are closest and
  farthest from the BDN", with distances learned by pinging.  In the
  unconnected topology it has no choice but O(N) fan-out to every
  registered broker, which is exactly the inefficiency Figure 2
  quantifies.
* **Private BDNs** (section 2.4) -- configured with required
  credentials; requests without them are acknowledged but never
  disseminated.
* **Idempotence** (section 3) -- duplicate transmissions of a request
  are re-acknowledged but not re-disseminated; an explicit
  *retransmission* (attempt+1) is disseminated again.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.codec import LazyMessage, lazy_decode
from repro.core.config import BDNConfig, Endpoint
from repro.core.dedup import DEFAULT_CAPACITY
from repro.core.errors import CodecError
from repro.core.messages import (
    Ack,
    AdvertisementAck,
    AntiEntropyDelta,
    AntiEntropyDigest,
    BrokerAdvertisement,
    DiscoveryBusy,
    DiscoveryRequest,
    Event,
    LeaseClaim,
    LeaseVote,
    Message,
    PingResponse,
    ReplicaAck,
    ReplicaAppend,
)
from repro.obs import trace_context
from repro.runtime.api import Runtime, TimerHandle
from repro.simnet.node import Node
from repro.simnet.service import IngressQueue
from repro.simnet.trace import Tracer
from repro.discovery.advertisement import (
    AD_TOPIC,
    BDN_ANNOUNCE_TOPIC,
    StoredAdvertisement,
)
from repro.discovery.ping import Pinger
from repro.discovery.sharding import ShardedRegistry
from repro.discovery.replication import ReplicationState
from repro.substrate.broker import Broker
from repro.substrate.client import PubSubClient

__all__ = ["BDN", "BDN_UDP_PORT"]

BDN_UDP_PORT = 7000

# A broker that missed this many consecutive ping sweeps is considered
# departed and its advertisement is dropped.
_PRUNE_MISSED_SWEEPS = 3


class BDN(Node):
    """One Broker Discovery Node.

    Parameters
    ----------
    name, host, network, rng:
        Standard node parameters (``network`` is a
        :class:`~repro.runtime.api.Runtime` or a simulated fabric).
    config:
        Injection strategy, interest regions, private-BDN credentials,
        ping sweep interval.
    site, realm, tracer, obs:
        Forwarded to :class:`~repro.simnet.node.Node`.
    """

    def __init__(
        self,
        name: str,
        host: str,
        network: Runtime | object,
        rng: np.random.Generator,
        config: BDNConfig | None = None,
        site: str | None = None,
        realm: str | None = None,
        tracer: Tracer | None = None,
        obs=None,
    ) -> None:
        super().__init__(
            name, host, network, rng, site=site, realm=realm, tracer=tracer, obs=obs
        )
        self.config = config if config is not None else BDNConfig()
        # The registry partitions the advertisement table and the dedup
        # cache by consistent hash of broker id (shards=1, the default,
        # is a single flat table, bit-identical to the paper's BDN).
        # ``self.store`` and ``self.dedup`` are the same objects under
        # their historical names; every consumer keeps the old API.
        self.registry = ShardedRegistry(
            shards=self.config.shards,
            interest_regions=self.config.interest_regions,
            dedup_budget=(
                self.config.dedup_budget
                if self.config.dedup_budget is not None
                else DEFAULT_CAPACITY
            ),
        )
        self.store = self.registry
        self.dedup = self.registry.dedup
        self.pinger = Pinger(self, self.endpoint(BDN_UDP_PORT))
        self.alive = False
        self._registered_at: dict[str, float] = {}
        self._network_client: PubSubClient | None = None
        # Outstanding timers, cancelled on stop() so a dead BDN leaves
        # nothing ticking in the scheduler.  One lease-sweep series per
        # shard, phase-staggered across the ping interval.
        self._sweep_timers: list[TimerHandle] = []
        self._fanout_timers: set[TimerHandle] = set()
        # Optional service-time model: requests queue in a bounded FIFO
        # and, above the admission high-watermark, are refused with a
        # DiscoveryBusy instead of queued.  Built once so the counters
        # span restarts; None (the default) keeps instant processing.
        # With shards > 1 each shard gets its own queue (independent
        # service lanes, the PR 3 model applied per partition) and
        # ``self.ingress`` stays None; datagrams are routed to a lane by
        # hashing the sender, so one sender's traffic stays FIFO.
        self.ingress: IngressQueue | None = None
        self.ingress_shards: list[IngressQueue] = []
        if self.config.service is not None:
            def _make_queue() -> IngressQueue:
                return IngressQueue(
                    self.runtime,
                    self._on_udp,
                    self.config.service,
                    trace=self.trace,
                    admit=self._admit,
                    span=self._queue_span if self._recorder is not None else None,
                )

            if self.config.shards == 1:
                self.ingress = _make_queue()
            else:
                self.ingress_shards = [
                    _make_queue() for _ in range(self.config.shards)
                ]
        # Replicated control plane (None = the paper's island BDN).
        self.replication: ReplicationState | None = None
        if self.config.replication is not None:
            self.replication = ReplicationState(self, self.config.replication)
        self._cold_pending = False
        # Counters.
        self.requests_received = 0
        self.requests_disseminated = 0
        self.credential_rejections = 0
        self.requests_shed = 0
        self.requests_refused_catchup = 0
        self.unknown_messages = 0
        # Invariant guard: counts expired advertisements that were about
        # to be used as dissemination targets.  Lease filtering in
        # :meth:`_injection_targets` must keep this at zero; the chaos
        # harness asserts it.
        self.stale_targets = 0
        # The last closest_farthest/single choice as
        # ``(stamp, valid_until, targets)``; see _injection_targets.
        self._targets_cache: tuple | None = None

    @property
    def udp_endpoint(self) -> Endpoint:
        """Where brokers register and clients send discovery requests."""
        return self.endpoint(BDN_UDP_PORT)

    @property
    def queue_depth(self) -> int:
        """Current ingress depth, summed over lanes (0 without a service model)."""
        if self.ingress is not None:
            return self.ingress.depth
        return sum(q.depth for q in self.ingress_shards)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind the UDP port and begin periodic distance sweeps.

        Re-run after a fault-injected revival; each start arms exactly
        one sweep series (the previous one is cancelled by
        :meth:`stop`).
        """
        if self.started:
            return
        super().start()
        self.alive = True
        if self.ingress is not None:
            handler = self.ingress.deliver
        elif self.ingress_shards:
            handler = self._ingress_dispatch
        else:
            handler = self._on_udp
        self.runtime.bind_udp(self.udp_endpoint, handler)
        # One sweep series per shard, phases spread evenly across the
        # ping interval so a mega-scale registry amortises its lease
        # work instead of walking every ad in one simulated instant.
        # With shards=1 the single series fires at interval, 2*interval,
        # ... -- exactly the historical schedule.
        interval = self.config.ping_interval
        shards = self.registry.shard_count
        self._sweep_timers = [
            self.runtime.call_every(
                interval,
                self._sweep_shard,
                i,
                first_delay=interval * (i + 1) / shards,
            )
            for i in range(shards)
        ]
        if self.replication is not None:
            self.replication.start(cold=self._cold_pending)
        self._cold_pending = False
        self.trace("bdn_start")

    def stop(self) -> None:
        """Take the BDN offline (fault injection); idempotent."""
        if not self.alive:
            return
        self.alive = False
        self.runtime.unbind_udp(self.udp_endpoint)
        for timer in self._sweep_timers:
            timer.cancel()
        self._sweep_timers = []
        for timer in self._fanout_timers:
            timer.cancel()
        self._fanout_timers.clear()
        if self.ingress is not None:
            self.ingress.reset()  # a dead process loses its socket buffer
        for queue in self.ingress_shards:
            queue.reset()
        if self.replication is not None:
            self.replication.stop()
        if self._network_client is not None:
            self._network_client.disconnect()
        self.trace("bdn_stop")

    def clear_registry(self) -> None:
        """Wipe the advertisement table: a *cold* restart's disk state.

        Called by the fault injector between :meth:`stop` and
        :meth:`start` to model a process whose in-memory registry (and
        dedup cache, and measured distances) did not survive.  Counters
        are kept -- they describe history, not state.  A replicated BDN
        restarted this way rejoins in catch-up mode: it pulls an
        anti-entropy delta immediately and refuses discovery requests
        (with a leader hint) until repaired or a grace period lapses.
        """
        for stored in self.store.all():
            self.pinger.forget(stored.broker_id)
        self.store.clear()
        self._registered_at.clear()
        self.dedup.reset()
        if self.replication is not None:
            self._cold_pending = True
        self.trace("bdn_cold_restart")
        self.span("cold_restart", f"bdn:{self.name}")

    def attach_to_network(self, broker: Broker) -> None:
        """Maintain an active connection into the broker network.

        The BDN connects a pub/sub client to ``broker`` and subscribes
        to the public advertisement topic, implementing section 2.3's
        second dissemination form ("the broker might send this
        advertisement over a public topic ... which all BDNs within the
        substrate subscribe to").
        """
        client = PubSubClient(
            f"{self.name}-feed", self.host, self.runtime, self.rng, tracer=self.tracer
        )
        # The client shares this BDN's host (already registered).
        client.start()
        client.subscribe(AD_TOPIC, self._on_topic_advertisement)
        client.connect(broker.client_endpoint)
        self._network_client = client

    def announce_to_network(self, broker: Broker) -> None:
        """Announce this BDN's endpoint on the broker network.

        Section 2.4: a newly added (private) BDN "must advertise its
        services to brokers within the broker network" so that brokers
        opted in via
        :func:`~repro.discovery.advertisement.enable_bdn_autoregistration`
        can re-advertise with it.  The announcement is injected at
        ``broker`` and floods the network like any control event.
        """
        event = Event(
            uuid=self.ids(),
            topic=BDN_ANNOUNCE_TOPIC,
            payload=f"{self.udp_endpoint.host}:{self.udp_endpoint.port}".encode(),
            source=self.name,
            issued_at=self.utc(),
        )
        broker.publish_local(event)
        self.trace("bdn_announced", via=broker.name)

    def _on_topic_advertisement(self, event: Event) -> None:
        if not self.alive:
            return
        # Lazy decode: the advertisement topic carries other control
        # traffic too, so check the tag before paying for a full decode.
        try:
            lazy = lazy_decode(event.payload)
            if lazy.tag != BrokerAdvertisement.kind:
                return
            message = lazy.message
        except CodecError:
            return
        self._register(message)

    # ------------------------------------------------------------------
    # UDP dispatch
    # ------------------------------------------------------------------
    def _admit(self, message: Message, src: Endpoint) -> bool:
        """Admission control, run before the ingress queue.

        Above the configured high-watermark new discovery requests are
        refused with an immediate :class:`DiscoveryBusy` -- the cheap
        "come back later" answer -- instead of being queued behind work
        the BDN cannot finish in time.  Advertisements, pings and other
        traffic are never shed here (they are what keeps the BDN's view
        of the network alive); the bounded queue still drops them when
        completely full.
        """
        watermark = self.config.admission_high_watermark
        if (
            watermark <= 0
            or not isinstance(message, DiscoveryRequest)
            or self.queue_depth < watermark
        ):
            return True
        self.requests_shed += 1
        requester = Endpoint(message.requester_host, message.requester_port)
        busy = DiscoveryBusy(
            request_uuid=message.uuid,
            bdn=self.name,
            retry_after=self.config.busy_retry_after,
            queue_depth=self.queue_depth,
            trace_flag=message.trace_flag,
            trace_hop=message.trace_hop + 1 if message.trace_flag else 0,
            leader_hint=self._leader_hint(),
        )
        self.runtime.send_udp(self.udp_endpoint, requester, busy)
        if message.trace_flag:
            self.span("shed", message.uuid, hop=message.trace_hop, depth=self.queue_depth)
            self.span("busy", message.uuid, hop=busy.trace_hop, retry_after=busy.retry_after)
        self.trace("bdn_busy", request=message.uuid, depth=self.queue_depth)
        return False

    def _ingress_dispatch(self, message: Message | LazyMessage, src: Endpoint) -> None:
        """Route a datagram to its shard's service lane (shards > 1).

        Hashing the sender keeps each sender's traffic FIFO within one
        lane, while the aggregate load spreads across the independent
        per-shard queues.
        """
        lane = self.registry.ring.shard_of(f"{src.host}:{src.port}")
        self.ingress_shards[lane].deliver(message, src)

    def _queue_span(self, event: str, message: Message) -> None:
        """Ingress-queue hook: record enqueue/dequeue of traced messages."""
        ctx = trace_context(message)
        if ctx is not None:
            self.span(event, ctx[0], hop=ctx[1], kind=type(message).__name__)

    _REPLICATION_DISPATCH = {
        LeaseClaim: "on_lease_claim",
        LeaseVote: "on_lease_vote",
        ReplicaAppend: "on_replica_append",
        ReplicaAck: "on_replica_ack",
        AntiEntropyDigest: "on_digest",
        AntiEntropyDelta: "on_delta",
    }

    def _on_udp(self, message: Message | LazyMessage, src: Endpoint) -> None:
        if not self.alive:
            return
        if type(message) is LazyMessage:
            # A runtime may hand us an unmaterialised wire view.  An
            # undecodable buffer must not crash the ingress-queue
            # handler -- count it like any other protocol error.
            try:
                message = message.message
            except CodecError as exc:
                self.unknown_messages += 1
                self.trace("bdn_unknown_message", type=f"undecodable(tag={exc.tag})")
                return
        if isinstance(message, BrokerAdvertisement):
            self._register(message, src)
        elif isinstance(message, DiscoveryRequest):
            self._handle_request(message)
        elif isinstance(message, PingResponse):
            self.pinger.on_response(message, src)
        elif type(message) in self._REPLICATION_DISPATCH and self.replication is not None:
            getattr(self.replication, self._REPLICATION_DISPATCH[type(message)])(
                message, src
            )
        else:
            # Anything else on the discovery port is a protocol error
            # (or a stale/misrouted datagram): count it and drop it
            # instead of silently ignoring it.
            self.unknown_messages += 1
            self.trace("bdn_unknown_message", type=type(message).__name__)

    def _register(self, ad: BrokerAdvertisement, src: Endpoint | None = None) -> None:
        if ad.trace_flag and self._recorder is not None:
            self.span("recv", f"ad:{ad.broker_id}", hop=ad.trace_hop, kind="BrokerAdvertisement")
        if self.store.accept(ad, self.runtime.now):
            self._registered_at.setdefault(ad.broker_id, self.runtime.now)
            self.trace("bdn_registered", broker=ad.broker_id)
            # Measure the new broker's distance right away so the
            # closest/farthest injection has data to work with.
            stored = self.store.get(ad.broker_id)
            if stored is not None:
                self.pinger.ping(stored.udp_endpoint, key=ad.broker_id)
            if self.replication is not None:
                # Ack the direct path so the broker's heartbeat can
                # re-home to the group leader, then replicate the write.
                if src is not None:
                    self.runtime.send_udp(
                        self.udp_endpoint,
                        src,
                        AdvertisementAck(
                            broker_id=ad.broker_id,
                            bdn=self.name,
                            leader_hint=self.replication.leader_hint(),
                        ),
                    )
                self.replication.on_local_write(ad)

    def apply_replicated(self, ad: BrokerAdvertisement) -> bool:
        """Apply an advertisement received via replication/anti-entropy.

        Unlike the broker-facing :meth:`_register` path this is
        *conditional*: an entry only overwrites when its lease is newer
        (newest-lease-wins), so a delayed append can never roll a
        renewed lease backwards.  Returns True if the store changed.
        """
        if not self.alive:
            return False
        now = self.runtime.now
        if not self.store.accept_if_newer(ad, now):
            return False
        self._registered_at.setdefault(ad.broker_id, now)
        self.trace("bdn_registered", broker=ad.broker_id, via="replication")
        stored = self.store.get(ad.broker_id)
        if stored is not None and self.pinger.average_rtt(ad.broker_id) is None:
            self.pinger.ping(stored.udp_endpoint, key=ad.broker_id)
        return True

    # ------------------------------------------------------------------
    # Discovery requests
    # ------------------------------------------------------------------
    def _leader_hint(self) -> str:
        """Current group leader as ``"host:port"``; ``""`` unreplicated."""
        if self.replication is None:
            return ""
        return self.replication.leader_hint()

    def _handle_request(self, request: DiscoveryRequest) -> None:
        self.requests_received += 1
        traced_req = request.trace_flag and self._recorder is not None
        if traced_req:
            self.span("recv", request.uuid, hop=request.trace_hop, kind="DiscoveryRequest")
        requester = Endpoint(request.requester_host, request.requester_port)
        if self.replication is not None and not self.replication.serving:
            # Cold-restarted member still catching up: an empty (or
            # partial) registry would disseminate to nobody and the
            # request would die here.  Redirect the client instead.
            self.requests_refused_catchup += 1
            busy = DiscoveryBusy(
                request_uuid=request.uuid,
                bdn=self.name,
                retry_after=self.config.busy_retry_after,
                queue_depth=self.queue_depth,
                trace_flag=request.trace_flag,
                trace_hop=request.trace_hop + 1 if request.trace_flag else 0,
                leader_hint=self._leader_hint(),
            )
            self.runtime.send_udp(self.udp_endpoint, requester, busy)
            if traced_req:
                self.span("busy", request.uuid, hop=busy.trace_hop, retry_after=busy.retry_after)
            self.trace("bdn_catchup_refused", request=request.uuid)
            return
        # Timely acknowledgement (section 3), even for duplicates.
        self.runtime.send_udp(self.udp_endpoint, requester, Ack(uuid=request.uuid, acked_by=self.name))
        if traced_req:
            self.span("send", request.uuid, hop=request.trace_hop, kind="Ack")
        if self.dedup.seen((request.uuid, request.attempt)):
            if traced_req:
                self.span("dup_suppressed", request.uuid, hop=request.trace_hop, kind="DiscoveryRequest")
            return  # idempotent: duplicate of an already-disseminated copy
        if self.config.required_credentials and not (
            request.credentials & self.config.required_credentials
        ):
            self.credential_rejections += 1
            self.trace("bdn_credential_reject", request=request.uuid)
            return
        self._disseminate(request)

    def _disseminate(self, request: DiscoveryRequest) -> None:
        targets = self._injection_targets()
        # Defence in depth: _injection_targets already lease-filters, so
        # an expired target here means the filtering broke.  Count it
        # (the chaos invariants assert zero) and refuse to use it.
        now = self.runtime.now
        stale = [s for s in targets if s.is_expired(now)]
        if stale:
            self.stale_targets += len(stale)
            targets = [s for s in targets if not s.is_expired(now)]
        if not targets:
            self.trace("bdn_no_brokers", request=request.uuid)
            return
        self.requests_disseminated += 1
        forwarded = request.forwarded()
        # Sequential fan-out: each destination costs CPU at the BDN, so
        # O(N) distribution (unconnected topology) is visibly linear.
        # Each pending send is tracked so stop() can cancel it -- a BDN
        # killed mid-fan-out must not keep transmitting.
        for i, stored in enumerate(targets):
            self._schedule_fanout(
                self.config.fanout_delay * (i + 1),
                stored.udp_endpoint,
                forwarded,
                broker_id=stored.broker_id,
            )
        self.trace("bdn_disseminate", request=request.uuid, targets=len(targets))

    def _schedule_fanout(
        self, delay: float, dst: Endpoint, message: Message, broker_id: str | None = None
    ) -> None:
        def fire() -> None:
            self._fanout_timers.discard(handle)
            ctx = trace_context(message) if self._recorder is not None else None
            if ctx is not None:
                self.span("inject", ctx[0], hop=ctx[1], broker=broker_id or str(dst))
            self.runtime.send_udp(self.udp_endpoint, dst, message)

        handle = self.runtime.schedule(delay, fire)
        self._fanout_timers.add(handle)

    def _injection_targets(self) -> list[StoredAdvertisement]:
        """Pick the brokers this BDN injects a request at.

        ``all``: every registered broker (O(N)), ordered by broker id.
        ``closest_farthest``: the two extremes of the measured distance
        table (section 4's scheme to make the request "propagate faster
        through the broker network"); brokers without RTT data count as
        infinitely far, and equal distances break ties by broker id.
        ``single``: just the closest broker under the same order.

        Expired leases are filtered out here, so a stale broker is never
        disseminated to even between eviction sweeps.

        The extremes are cached.  The cache is keyed on the registry's
        and the pinger's write counters and on the strategy, and lapses
        at the earliest lease deadline among the live ads, so a hit
        returns what a fresh pass would.  A miss is one unsorted pass
        over the live ads.
        """
        now = self.runtime.now
        injection = self.config.injection
        if injection == "all":
            return self.store.all(now)
        stamp = (self.store.version, self.pinger.version, injection)
        cached = self._targets_cache
        if cached is not None and cached[0] == stamp and now < cached[1]:
            return list(cached[2])
        ads = self.store.live(now)
        if not ads:
            targets: tuple[StoredAdvertisement, ...] = ()
            valid_until = math.inf
        else:
            rtt = self.pinger.averages().get
            inf = math.inf
            # broker_id is unique, so no comparison ever reaches the ad.
            keyed = [(rtt(s.broker_id, inf), s.broker_id, s) for s in ads]
            closest = min(keyed)[2]
            if injection == "single" or len(keyed) == 1:
                targets = (closest,)
            else:
                targets = (closest, max(keyed)[2])
            valid_until = min([s.expires_at for s in ads])
        self._targets_cache = (stamp, valid_until, targets)
        return list(targets)

    # ------------------------------------------------------------------
    # Distance sweeps
    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        """Ping every registered broker; evict lapsed leases and prune
        long-silent ones.  Convenience wrapper sweeping every shard at
        once; the armed timers call :meth:`_sweep_shard` individually."""
        for i in range(self.registry.shard_count):
            self._sweep_shard(i)

    def _sweep_shard(self, index: int) -> None:
        """One shard's lease sweep: evict, prune, then ping survivors.

        With a single shard this is exactly the historical global sweep.
        With many, each series owns one partition of the table, so the
        per-tick work is ~1/shards of the registry and the phases are
        staggered across the ping interval by :meth:`start`.
        """
        if not self.alive:
            return
        now = self.runtime.now
        shard = self.registry.shard(index)
        for broker_id in shard.evict_expired(now):
            self._registered_at.pop(broker_id, None)
            self.pinger.forget(broker_id)
            self.trace("bdn_lease_expired", broker=broker_id)
        horizon = _PRUNE_MISSED_SWEEPS * self.config.ping_interval
        for stored in shard.all():
            broker_id = stored.broker_id
            last = self.pinger.last_heard(broker_id)
            registered = self._registered_at.get(broker_id, now)
            reference = last if last is not None else registered
            if now - reference > horizon:
                shard.remove(broker_id)
                self._registered_at.pop(broker_id, None)
                self.pinger.forget(broker_id)
                self.trace("bdn_pruned", broker=broker_id)
                continue
            self.pinger.ping(stored.udp_endpoint, key=broker_id)

    def distance_table(self) -> dict[str, float]:
        """Measured average RTT per registered broker (seconds)."""
        table: dict[str, float] = {}
        for stored in self.store.all():
            rtt = self.pinger.average_rtt(stored.broker_id)
            if rtt is not None:
                table[stored.broker_id] = rtt
        return table
