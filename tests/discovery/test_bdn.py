"""Tests for Broker Discovery Nodes (paper sections 2-4)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BDNConfig, ClientConfig, Endpoint
from repro.core.messages import (
    Ack,
    BrokerAdvertisement,
    DiscoveryRequest,
    DiscoveryResponse,
    PingResponse,
)
from repro.discovery.advertisement import advertise_direct, advertise_on_topic
from repro.discovery.bdn import BDN
from repro.substrate.builder import BrokerNetwork, Topology
from tests.discovery.conftest import World


def send_request(world: World, uuid="req-1", attempt=0, credentials=frozenset()):
    req = DiscoveryRequest(
        uuid=uuid,
        requester_host=world.client.host,
        requester_port=7500,
        credentials=credentials,
        issued_at=world.client.utc(),
        attempt=attempt,
    )
    world.net.network.send_udp(world.client.udp_endpoint, world.bdn.udp_endpoint, req)


def inbox_of(world: World) -> list:
    box = []
    world.net.network.unbind_udp(world.client.udp_endpoint)
    world.net.network.bind_udp(world.client.udp_endpoint, lambda m, s: box.append(m))
    return box


class TestRegistration:
    def test_direct_advertisement_registers(self):
        world = World(n_brokers=3)
        assert world.bdn.store.broker_ids() == ["b0", "b1", "b2"]

    def test_optional_registration(self):
        """'It is not necessary for every broker to be registered'."""
        world = World(n_brokers=3, register=False)
        assert len(world.bdn.store) == 0
        advertise_direct(world.brokers[1], world.bdn.udp_endpoint)
        world.sim.run_for(1.0)
        assert world.bdn.store.broker_ids() == ["b1"]

    def test_registration_triggers_distance_ping(self):
        world = World(n_brokers=2)
        # settle() gave the initial pings time to come back.
        table = world.bdn.distance_table()
        assert set(table) == {"b0", "b1"}
        assert all(rtt > 0 for rtt in table.values())

    def test_topic_advertisement_reaches_attached_bdn(self):
        """Section 2.3's second dissemination form."""
        world = World(n_brokers=3, topology=Topology.LINEAR, register=False)
        world.bdn.attach_to_network(world.brokers[0])
        world.sim.run_for(2.0)
        advertise_on_topic(world.brokers[2])  # far end of the chain
        world.sim.run_for(2.0)
        assert "b2" in world.bdn.store

    def test_interest_region_filter(self):
        world = World(
            n_brokers=2,
            register=False,
            bdn_config=BDNConfig(interest_regions=frozenset({"europe"})),
        )
        advertise_direct(world.brokers[0], world.bdn.udp_endpoint, region="europe")
        advertise_direct(world.brokers[1], world.bdn.udp_endpoint, region="north-america")
        world.sim.run_for(1.0)
        assert world.bdn.store.broker_ids() == ["b0"]


class TestRequestHandling:
    def test_ack_sent_promptly(self):
        world = World(n_brokers=1)
        box = inbox_of(world)
        send_request(world)
        world.sim.run_for(0.5)
        acks = [m for m in box if isinstance(m, Ack)]
        assert len(acks) == 1
        assert acks[0].uuid == "req-1"
        assert acks[0].acked_by == "bdn0"

    def test_duplicate_request_acked_not_redisseminated(self):
        """Section 3: 'multiple requests forwarded to the same BDN would
        be idempotent'."""
        world = World(n_brokers=2)
        box = inbox_of(world)
        send_request(world)
        send_request(world)
        world.sim.run_for(1.0)
        assert len([m for m in box if isinstance(m, Ack)]) == 2
        assert world.bdn.requests_disseminated == 1

    def test_retransmission_redisseminated(self):
        world = World(n_brokers=2)
        send_request(world, attempt=0)
        send_request(world, attempt=1)
        world.sim.run_for(1.0)
        assert world.bdn.requests_disseminated == 2

    def test_no_brokers_registered_no_dissemination(self):
        world = World(n_brokers=1, register=False)
        box = inbox_of(world)
        send_request(world)
        world.sim.run_for(1.0)
        assert world.bdn.requests_disseminated == 0
        assert len([m for m in box if isinstance(m, Ack)]) == 1  # still acked


class TestInjectionStrategies:
    def test_all_reaches_every_registered_broker(self):
        world = World(n_brokers=4, injection="all")
        box = inbox_of(world)
        send_request(world)
        world.sim.run_for(2.0)
        ids = {m.broker_id for m in box if isinstance(m, DiscoveryResponse)}
        assert ids == {"b0", "b1", "b2", "b3"}

    def test_single_reaches_one_broker_only(self):
        world = World(n_brokers=4, injection="single")
        box = inbox_of(world)
        send_request(world)
        world.sim.run_for(2.0)
        ids = {m.broker_id for m in box if isinstance(m, DiscoveryResponse)}
        assert len(ids) == 1  # unconnected: nothing propagates further

    def test_closest_farthest_injects_two(self):
        world = World(n_brokers=4, injection="closest_farthest")
        box = inbox_of(world)
        send_request(world)
        world.sim.run_for(2.0)
        ids = {m.broker_id for m in box if isinstance(m, DiscoveryResponse)}
        assert len(ids) == 2

    def test_closest_farthest_picks_extremes_of_distance_table(self):
        world = World(n_brokers=3, injection="closest_farthest")
        table = world.bdn.distance_table()
        expected = {
            min(table, key=lambda b: (table[b], b)),
            max(table, key=lambda b: (table[b], b)),
        }
        targets = [s.broker_id for s in world.bdn._injection_targets()]
        assert set(targets) == expected

    def test_closest_farthest_with_single_broker(self):
        world = World(n_brokers=1, injection="closest_farthest")
        assert len(world.bdn._injection_targets()) == 1

    def test_connected_network_all_respond_via_propagation(self):
        world = World(n_brokers=4, topology=Topology.STAR, injection="closest_farthest")
        box = inbox_of(world)
        send_request(world)
        world.sim.run_for(3.0)
        ids = {m.broker_id for m in box if isinstance(m, DiscoveryResponse)}
        assert ids == {"b0", "b1", "b2", "b3"}


def reference_targets(bdn: BDN) -> list:
    """The full-sort injection choice the cached one must reproduce."""
    ads = bdn.store.all(bdn.runtime.now)
    if not ads or bdn.config.injection == "all":
        return ads
    by_distance = sorted(
        ads,
        key=lambda s: (
            bdn.pinger.average_rtt(s.broker_id)
            if bdn.pinger.average_rtt(s.broker_id) is not None
            else float("inf"),
            s.broker_id,
        ),
    )
    if bdn.config.injection == "single" or len(by_distance) == 1:
        return [by_distance[0]]
    return [by_distance[0], by_distance[-1]]


_BROKERS = [f"k{i}" for i in range(5)]
_broker = st.integers(0, len(_BROKERS) - 1)
_ops = st.lists(
    st.one_of(
        # ttl 0 never lapses; a port change makes a renewal observable.
        st.tuples(
            st.just("advertise"), _broker,
            st.sampled_from([0.0, 1.0, 3.0]), st.sampled_from([5046, 6046]),
        ),
        # Few distinct RTTs, so equal means (ties) are common.
        st.tuples(st.just("pong"), _broker, st.sampled_from([0.01, 0.02, 0.04])),
        st.tuples(st.just("advance"), st.sampled_from([0.25, 1.0, 2.5])),
        st.tuples(st.just("remove"), _broker),
        st.tuples(st.just("evict"), st.sampled_from([0.0, 2.0])),
        st.tuples(st.just("forget"), _broker),
        st.tuples(st.just("strategy"), st.sampled_from(["single", "closest_farthest"])),
        st.just(("clear_samples",)),
        st.just(("cold_restart",)),
    ),
    max_size=30,
)


class TestCachedInjectionTargets:
    """The cached closest/farthest choice equals the full sort it replaced.

    Each step applies one write (or lets time pass), then asks the BDN
    for its targets twice -- the second call is a guaranteed cache hit --
    and compares both with :func:`reference_targets`.  Each step also
    checks the version contract the cache relies on: a step that changes
    the stored table must change ``store.version``, and one that changes
    the RTT table must change ``pinger.version``.
    """

    @staticmethod
    def _bdn(shards: int, injection: str) -> tuple[BrokerNetwork, BDN]:
        net = BrokerNetwork(seed=0)
        for broker_id in _BROKERS:
            net.network.register_host(f"{broker_id}.host", "s-brokers")
        bdn = BDN(
            "bdn0",
            "bdn0.host",
            net.network,
            np.random.default_rng(1),
            config=BDNConfig(injection=injection, shards=shards, ping_interval=2.0),
            site="bdn-site",
        )
        bdn.start()
        return net, bdn

    @staticmethod
    def _apply(net: BrokerNetwork, bdn: BDN, op: tuple) -> None:
        kind = op[0]
        now = bdn.runtime.now
        if kind == "advertise":
            _, i, ttl, port = op
            ad = BrokerAdvertisement(
                broker_id=_BROKERS[i],
                hostname=f"{_BROKERS[i]}.host",
                transports=(("udp", port),),
                logical_address=f"/s/{_BROKERS[i]}",
                region="north-america",
                institution="s",
                issued_at=now,
                ttl=ttl,
            )
            bdn.store.accept(ad, now)
        elif kind == "pong":
            _, i, rtt = op
            broker_id = _BROKERS[i]
            uuid = bdn.pinger.ping(Endpoint(f"{broker_id}.host", 5046), key=broker_id)
            pong = PingResponse(uuid=uuid, sent_at=bdn.clock.raw() - rtt, broker_id=broker_id)
            bdn.pinger.on_response(pong, Endpoint(f"{broker_id}.host", 5046))
        elif kind == "advance":
            net.sim.run_for(op[1])  # leases lapse; per-shard sweeps fire
        elif kind == "remove":
            bdn.store.remove(_BROKERS[op[1]])
        elif kind == "evict":
            bdn.store.evict_expired(now + op[1])
        elif kind == "forget":
            bdn.pinger.forget(_BROKERS[op[1]])
        elif kind == "strategy":
            bdn.config = dataclasses.replace(bdn.config, injection=op[1])
        elif kind == "clear_samples":
            bdn.pinger.clear_samples()
        else:  # cold restart
            bdn.stop()
            bdn.clear_registry()
            bdn.start()

    @given(
        shards=st.sampled_from([1, 16]),
        injection=st.sampled_from(["single", "closest_farthest"]),
        ops=_ops,
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_full_sort_oracle(self, shards, injection, ops):
        net, bdn = self._bdn(shards, injection)
        for op in ops:
            table = bdn.store.all()
            rtts = dict(bdn.pinger.averages())
            store_version, pinger_version = bdn.store.version, bdn.pinger.version
            self._apply(net, bdn, op)
            if bdn.store.all() != table:
                assert bdn.store.version != store_version, op
            if dict(bdn.pinger.averages()) != rtts:
                assert bdn.pinger.version != pinger_version, op
            expected = reference_targets(bdn)
            assert bdn._injection_targets() == expected, op
            assert bdn._injection_targets() == expected, op

    def test_lease_lapse_without_a_write_refreshes_the_choice(self):
        net, bdn = self._bdn(shards=1, injection="closest_farthest")
        for op in [
            ("advertise", 0, 0.0, 5046),
            ("advertise", 1, 1.0, 5046),  # unmeasured, so farthest
            ("advertise", 2, 0.0, 5046),
            ("pong", 0, 0.01),
            ("pong", 2, 0.02),
        ]:
            self._apply(net, bdn, op)
        assert [s.broker_id for s in bdn._injection_targets()] == ["k0", "k1"]
        store_version = bdn.store.version
        net.sim.run_for(1.0)  # k1's lease lapses before the first sweep
        assert bdn.store.version == store_version and "k1" in bdn.store
        assert [s.broker_id for s in bdn._injection_targets()] == ["k0", "k2"]

    def test_strategy_switch_refreshes_the_choice(self):
        net, bdn = self._bdn(shards=1, injection="single")
        for op in [("advertise", 0, 0.0, 5046), ("advertise", 1, 0.0, 5046)]:
            self._apply(net, bdn, op)
        assert [s.broker_id for s in bdn._injection_targets()] == ["k0"]
        self._apply(net, bdn, ("strategy", "closest_farthest"))
        assert [s.broker_id for s in bdn._injection_targets()] == ["k0", "k1"]


class TestPrivateBDN:
    def test_credentials_required_for_dissemination(self):
        """Section 2.4: a private BDN requires credentials before it
        disseminates."""
        world = World(
            n_brokers=2,
            bdn_config=BDNConfig(
                injection="all", required_credentials=frozenset({"member"})
            ),
        )
        box = inbox_of(world)
        send_request(world, uuid="anon")
        send_request(world, uuid="auth", credentials=frozenset({"member"}))
        world.sim.run_for(2.0)
        responses = {m.request_uuid for m in box if isinstance(m, DiscoveryResponse)}
        assert responses == {"auth"}
        assert world.bdn.credential_rejections == 1
        # Both were acked (receipt), only one disseminated.
        assert len([m for m in box if isinstance(m, Ack)]) == 2


class TestSweepsAndPruning:
    def test_sweep_measures_distances(self):
        world = World(n_brokers=2, bdn_config=BDNConfig(injection="all", ping_interval=5.0))
        world.sim.run_for(12.0)
        assert set(world.bdn.distance_table()) == {"b0", "b1"}

    def test_dead_broker_pruned_after_silence(self):
        world = World(n_brokers=2, bdn_config=BDNConfig(injection="all", ping_interval=2.0))
        world.brokers[1].stop()
        world.sim.run_for(30.0)  # > 3 missed sweeps
        assert world.bdn.store.broker_ids() == ["b0"]

    def test_live_brokers_never_pruned(self):
        world = World(n_brokers=2, bdn_config=BDNConfig(injection="all", ping_interval=2.0))
        world.sim.run_for(60.0)
        assert world.bdn.store.broker_ids() == ["b0", "b1"]


class TestLifecycle:
    def test_stopped_bdn_ignores_requests(self):
        world = World(n_brokers=1)
        box = inbox_of(world)
        world.bdn.stop()
        send_request(world)
        world.sim.run_for(1.0)
        assert box == []

    def test_stop_is_idempotent(self):
        world = World(n_brokers=1)
        world.bdn.stop()
        world.bdn.stop()
