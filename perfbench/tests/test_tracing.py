import numpy as np
import pytest

import tracing


def test_self_time_subtracts_nested_children():
    # root [0, 100) -> a [10, 40) -> a1 [15, 25)
    #               -> b [50, 90)
    # other root [100, 130)
    start = [0, 10, 15, 50, 100]
    end = [100, 40, 25, 90, 130]
    parent = [-1, 0, 1, 0, -1]
    own = tracing.self_times(start, end, parent)
    assert own.tolist() == [100 - 30 - 40, 30 - 10, 10, 40, 30]
    # Self times partition the covered time exactly.
    assert own.sum() == 100 + 30


def test_store_aggregates_calls_and_self_time_per_label():
    store = tracing.SpanStore()
    outer, inner = store.label_id("m:outer"), store.label_id("m:inner")
    store.recording = True
    i = store.enter(outer, ())
    j = store.enter(inner, ())
    store.exit(j)
    k = store.enter(inner, ())
    store.exit(k)
    store.exit(i)
    # Replace the clock readings with a known tree.
    store.start[:] = store.start.__class__("q", [0, 10, 30])
    store.end[:] = store.end.__class__("q", [50, 20, 45])
    assert list(store.parent) == [-1, 0, 0]
    agg = store.aggregate()
    assert agg == {"m:outer": (1, 50 - 10 - 15), "m:inner": (2, 25)}
    assert store.root_ns() == 50


def test_store_records_nothing_outside_the_timed_region():
    store = tracing.SpanStore()
    label = store.label_id("m:f")
    assert store.enter(label, ()) == -1
    store.exit(-1)
    assert len(store) == 0


def test_truncate_drops_an_overflowing_episode():
    store = tracing.SpanStore(max_spans=3)
    label = store.label_id("m:f")
    store.recording = True
    for _ in range(5):
        store.exit(store.enter(label, ()))
    assert len(store) == 3 and store.full
    store.truncate(1)
    assert len(store) == 1 and not store.full


def test_install_attributes_spans_to_layers_and_uninstalls():
    import repro.core.codec as codec
    import repro.simnet.network as network_module
    from repro.core.config import Endpoint
    from repro.core.messages import DiscoveryRequest
    from repro.simnet.network import Network
    from repro.simnet.simulator import Simulator

    originals = (codec.wire_size, network_module.wire_size, Network.send_udp, Simulator.__init__)
    store = tracing.SpanStore()
    uninstall = tracing.install(store)
    try:
        sim = Simulator()
        net = Network(sim, rng=np.random.default_rng(0))
        net.register_host("a", site="s")
        net.register_host("b", site="s")
        got = []

        def handler(message, src):
            got.append(message.uuid)

        net.bind_udp(Endpoint("b", 1), handler)
        store.recording = True
        request = DiscoveryRequest(uuid="req-1", requester_host="a", requester_port=1)
        net.send_udp(Endpoint("a", 1), Endpoint("b", 1), request)
        sim.run()
        store.recording = False
    finally:
        uninstall()
    assert got == ["req-1"]
    restored = (codec.wire_size, network_module.wire_size, Network.send_udp, Simulator.__init__)
    assert restored == originals
    agg = store.aggregate()
    assert agg["repro.simnet.network:Network.send_udp"][0] == 1
    assert agg["repro.core.codec:wire_size"][0] == 1
    assert agg["repro.simnet.network:Network._deliver_udp"][0] == 1
    # The handler is attributed to the module that defines it.
    this_test = test_install_attributes_spans_to_layers_and_uninstalls.__qualname__
    assert agg[f"{__name__}:{this_test}.<locals>.handler"][0] == 1
    # Every span of the datagram carries the request's UUID; the
    # scheduler loop that delivered it belongs to no request.
    labels = [store.labels[i] for i in store.label]
    assert store.trace_ids == ["req-1"]
    assert {
        label: trace for label, trace in zip(labels, store.trace)
    } == {label: (-1 if label.endswith("Simulator.run") else 0) for label in labels}
    # wire_size ran inside send_udp: it is a child there.
    child = labels.index("repro.core.codec:wire_size")
    assert labels[store.parent[child]] == "repro.simnet.network:Network.send_udp"


def test_install_rebinds_imported_codec_names():
    import repro.core.codec as codec
    import repro.runtime.aio as aio

    store = tracing.SpanStore()
    uninstall = tracing.install(store)
    try:
        assert aio.encode_message is codec.encode_message
        assert hasattr(aio.encode_message, "__wrapped__")
    finally:
        uninstall()
    assert not hasattr(aio.encode_message, "__wrapped__")


@pytest.mark.parametrize("n", [0, 1])
def test_aggregate_handles_tiny_stores(n):
    store = tracing.SpanStore()
    label = store.label_id("m:f")
    store.recording = True
    for _ in range(n):
        store.exit(store.enter(label, ()))
    agg = store.aggregate()
    assert (agg.get("m:f", (0, 0))[0]) == n
