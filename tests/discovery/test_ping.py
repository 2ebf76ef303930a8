"""Tests for the UDP ping service."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Endpoint
from repro.core.messages import PingResponse
from repro.discovery.ping import Pinger
from repro.simnet.latency import UniformLatencyModel
from repro.simnet.loss import UniformLoss
from repro.simnet.node import Node
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator
from repro.substrate.builder import BrokerNetwork


def ping_world(loss=None):
    net = BrokerNetwork(
        latency=UniformLatencyModel(base=0.010, jitter_fraction=0.0), loss=loss
    )
    broker = net.add_broker("bk", site="s-broker")
    node = Node("pinger", "pinger.host", net.network, np.random.default_rng(3), site="s-client")
    reply = node.endpoint(9999)
    pinger = Pinger(node, reply)
    net.network.bind_udp(reply, lambda m, s: pinger.on_response(m, s))
    net.settle()
    return net, broker, pinger


class TestPinger:
    def test_rtt_measured(self):
        net, broker, pinger = ping_world()
        pinger.ping(broker.udp_endpoint, key="bk")
        net.sim.run_for(1.0)
        rtt = pinger.average_rtt("bk")
        assert rtt is not None
        assert rtt == pytest.approx(0.020, rel=0.1)  # two one-way trips

    def test_average_over_repeats(self):
        net, broker, pinger = ping_world()
        for _ in range(4):
            pinger.ping(broker.udp_endpoint, key="bk")
        net.sim.run_for(1.0)
        assert pinger.sample_count("bk") == 4
        assert pinger.pongs_received == 4

    def test_no_data_returns_none(self):
        net, broker, pinger = ping_world()
        assert pinger.average_rtt("ghost") is None
        assert pinger.sample_count("ghost") == 0

    def test_lost_pings_simply_missing(self):
        net, broker, pinger = ping_world(loss=UniformLoss(0.999))
        for _ in range(5):
            pinger.ping(broker.udp_endpoint, key="bk")
        net.sim.run_for(1.0)
        assert pinger.sample_count("bk") <= 1

    def test_unknown_response_ignored(self):
        net, broker, pinger = ping_world()
        fake = PingResponse(uuid="never-sent", sent_at=0.0, broker_id="x")
        pinger.on_response(fake, Endpoint("ghost", 1))
        assert pinger.pongs_received == 0

    def test_duplicate_response_ignored(self):
        net, broker, pinger = ping_world()
        uuid = pinger.ping(broker.udp_endpoint, key="bk")
        net.sim.run_for(1.0)
        # Replay the same pong: the outstanding entry is gone.
        fake = PingResponse(uuid=uuid, sent_at=0.0, broker_id="bk")
        pinger.on_response(fake, Endpoint("ghost", 1))
        assert pinger.sample_count("bk") == 1

    def test_default_key_is_target_host(self):
        net, broker, pinger = ping_world()
        pinger.ping(broker.udp_endpoint)
        net.sim.run_for(1.0)
        assert pinger.average_rtt(broker.host) is not None

    def test_sample_window_bounded(self):
        net, broker, pinger = ping_world()
        pinger._max_samples = 3
        for _ in range(6):
            pinger.ping(broker.udp_endpoint, key="bk")
        net.sim.run_for(1.0)
        assert pinger.sample_count("bk") == 3

    def test_last_heard_tracked(self):
        net, broker, pinger = ping_world()
        assert pinger.last_heard("bk") is None
        pinger.ping(broker.udp_endpoint, key="bk")
        net.sim.run_for(1.0)
        assert pinger.last_heard("bk") == pytest.approx(net.sim.now, abs=1.0)

    def test_on_rtt_callback(self):
        net, broker, pinger = ping_world()
        seen = []
        pinger.on_rtt = lambda key, rtt: seen.append((key, rtt))
        pinger.ping(broker.udp_endpoint, key="bk")
        net.sim.run_for(1.0)
        assert len(seen) == 1
        assert seen[0][0] == "bk"

    def test_forget_and_clear(self):
        net, broker, pinger = ping_world()
        pinger.ping(broker.udp_endpoint, key="bk")
        net.sim.run_for(1.0)
        pinger.forget("bk")
        assert pinger.average_rtt("bk") is None
        assert pinger.last_heard("bk") is None

    def test_known_keys(self):
        net, broker, pinger = ping_world()
        pinger.ping(broker.udp_endpoint, key="zz")
        pinger.ping(broker.udp_endpoint, key="aa")
        net.sim.run_for(1.0)
        assert pinger.known_keys() == ["aa", "zz"]

    def test_invalid_max_samples(self):
        net, broker, _ = ping_world()
        node = Node("p2", "p2.host", net.network, np.random.default_rng(0), site="sx")
        with pytest.raises(ValueError):
            Pinger(node, node.endpoint(1), max_samples=0)

    def test_invalid_outstanding_timeout(self):
        net, broker, _ = ping_world()
        node = Node("p3", "p3.host", net.network, np.random.default_rng(0), site="sx")
        with pytest.raises(ValueError):
            Pinger(node, node.endpoint(1), outstanding_timeout=0.0)


class TestOutstandingExpiry:
    def test_lost_pings_do_not_accumulate(self):
        """The leak: with every pong lost, the outstanding table used to
        grow by one entry per ping, forever."""
        net, broker, pinger = ping_world(loss=UniformLoss(0.999))
        for _ in range(50):
            pinger.ping(broker.udp_endpoint, key="bk")
            net.sim.run_for(1.0)  # default timeout is 30 s
        assert len(pinger._outstanding) <= 31
        assert pinger.pings_expired >= 19
        net.sim.run_for(31.0)
        pinger.ping(broker.udp_endpoint, key="bk")
        assert len(pinger._outstanding) == 1

    def test_answered_pings_do_not_expire(self):
        net, broker, pinger = ping_world()
        for _ in range(5):
            pinger.ping(broker.udp_endpoint, key="bk")
            net.sim.run_for(1.0)
        assert pinger.pings_expired == 0
        assert pinger.pongs_received == 5
        assert len(pinger._outstanding) == 0

    def test_pong_after_deadline_ignored(self):
        net, broker, pinger = ping_world(loss=UniformLoss(0.999))
        uuid = pinger.ping(broker.udp_endpoint, key="bk")
        net.sim.run_for(31.0)  # past the 30 s deadline
        late = PingResponse(uuid=uuid, sent_at=0.0, broker_id="bk")
        pinger.on_response(late, Endpoint("ghost", 1))
        assert pinger.sample_count("bk") == 0
        assert pinger.pongs_received == 0
        assert pinger.pings_expired == 1


def inject_pong(pinger: Pinger, key: str, rtt: float) -> None:
    """Answer a fresh ping to ``key`` as if it measured ``rtt``.

    The ping goes to an unbound port on the pinger's own host, so no real
    pong can race the injected one.
    """
    target = Endpoint(pinger._node.host, 1)
    uuid = pinger.ping(target, key=key)
    pong = PingResponse(uuid=uuid, sent_at=pinger._node.clock.raw() - rtt, broker_id=key)
    pinger.on_response(pong, target)


class TestStoredMean:
    """``average_rtt`` is stored on each sample and must stay bit-equal
    to the mean of the retained window, recomputed from scratch."""

    @given(
        max_samples=st.integers(1, 6),
        rtts=st.lists(
            st.tuples(st.sampled_from(["a", "b"]), st.floats(1e-6, 2.0)),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_mean_bit_equal_after_roll_off(self, max_samples, rtts):
        net, broker, pinger = ping_world()
        pinger._max_samples = max_samples
        seen: dict[str, list[float]] = {"a": [], "b": []}
        pinger.on_rtt = lambda key, rtt: seen[key].append(rtt)
        for key, rtt in rtts:
            inject_pong(pinger, key, rtt)
            for k, history in seen.items():
                window = history[-max_samples:]
                expected = sum(window) / len(window) if window else None
                assert pinger.average_rtt(k) == expected

    def test_forget_and_clear_samples(self):
        net, broker, pinger = ping_world()
        seen: list[tuple[str, float]] = []
        pinger.on_rtt = lambda key, rtt: seen.append((key, rtt))

        def mean(key: str) -> float:
            window = [rtt for k, rtt in seen if k == key]
            return sum(window) / len(window)

        for key, rtt in [("a", 0.1), ("a", 0.2), ("b", 0.3), ("a", 0.7)]:
            inject_pong(pinger, key, rtt)
        version = pinger.version
        pinger.forget("a")
        assert pinger.version > version
        assert dict(pinger.averages()) == {"b": mean("b")}
        seen[:] = [(k, rtt) for k, rtt in seen if k != "a"]
        inject_pong(pinger, "a", 0.4)
        inject_pong(pinger, "a", 0.15)
        assert pinger.average_rtt("a") == mean("a")
        version = pinger.version
        pinger.clear_samples()
        assert pinger.version > version
        assert dict(pinger.averages()) == {}
        seen.clear()
        inject_pong(pinger, "b", 0.25)
        inject_pong(pinger, "b", 0.5)
        assert dict(pinger.averages()) == {"b": mean("b")}

    def test_negative_rtt_changes_neither_mean_nor_version(self):
        net, broker, pinger = ping_world()
        inject_pong(pinger, "a", 0.1)
        mean, version = pinger.average_rtt("a"), pinger.version
        inject_pong(pinger, "a", -0.5)  # clock stepped mid-flight
        assert pinger.average_rtt("a") == mean
        assert pinger.version == version
        assert pinger.sample_count("a") == 1
