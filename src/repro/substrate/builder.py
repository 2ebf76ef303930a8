"""Assembling broker networks in the paper's topologies.

The evaluation (section 9) exercises three five-broker topologies:

* **unconnected** (Figure 1) -- brokers registered with the BDN but not
  linked to each other, forcing O(N) distribution by the BDN;
* **star** (Figure 8) -- a hub broker disseminates to the spokes;
* **linear** (Figure 10) -- a chain, where only the head broker is
  registered and requests crawl down the line.

:class:`BrokerNetwork` owns the simulator, the fabric and the brokers,
wires any of those topologies (plus ring/mesh/random extras used by the
ablations), and provides the ``settle()`` warm-up that lets TCP links
establish and NTP synchronisation complete -- the paper's "3-5 seconds
before the local clock offsets are computed".
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.core.config import BrokerConfig
from repro.obs import Observability
from repro.simnet.latency import LatencyModel
from repro.simnet.loss import LossModel
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator
from repro.simnet.trace import Tracer
from repro.substrate.broker import Broker
from repro.substrate.routing import SpanningTreeRouting

__all__ = ["Topology", "BrokerNetwork"]


class Topology:
    """Symbolic names for the supported link layouts."""

    UNCONNECTED = "unconnected"
    STAR = "star"
    LINEAR = "linear"
    RING = "ring"
    MESH = "mesh"
    RANDOM_TREE = "random_tree"

    ALL = (UNCONNECTED, STAR, LINEAR, RING, MESH, RANDOM_TREE)


class BrokerNetwork:
    """A simulator, a fabric, and a set of linked brokers.

    Parameters
    ----------
    seed:
        Master seed; every broker gets an independent child generator,
        so whole experiments are reproducible from this one number.
    latency / loss:
        Models installed on the fabric.
    keep_trace:
        Whether to retain full trace records (counters always on).
    observe:
        Attach a shared :class:`~repro.obs.Observability` (flight
        recorders + metrics registry on the virtual clock) to every
        broker built here.  Off by default: observed worlds mark
        discovery traffic on the wire, which perturbs byte-level
        determinism digests.
    """

    def __init__(
        self,
        seed: int = 0,
        latency: LatencyModel | None = None,
        loss: LossModel | None = None,
        keep_trace: bool = False,
        observe: bool = False,
    ) -> None:
        self.sim = Simulator()
        self.master_rng = np.random.default_rng(seed)
        self.obs = Observability(clock=lambda: self.sim.now) if observe else None
        self.tracer = Tracer(lambda: self.sim.now, keep_records=keep_trace)
        self.network = Network(
            self.sim,
            latency=latency,
            loss=loss,
            rng=self._child_rng(),
            tracer=self.tracer,
        )
        self.brokers: dict[str, Broker] = {}
        self._edges: set[tuple[str, str]] = set()

    def _child_rng(self) -> np.random.Generator:
        return np.random.default_rng(self.master_rng.integers(0, 2**63))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_broker(
        self,
        name: str,
        site: str,
        host: str | None = None,
        realm: str | None = None,
        config: BrokerConfig | None = None,
        multicast_enabled: bool = True,
        start: bool = True,
    ) -> Broker:
        """Create (and by default start) one broker.

        ``host`` defaults to ``"<name>.<site>"`` so every broker lives
        on its own host.
        """
        if name in self.brokers:
            raise ValueError(f"broker {name!r} already exists")
        broker = Broker(
            name,
            host if host is not None else f"{name}.{site}",
            self.network,
            self._child_rng(),
            config=config,
            site=site,
            realm=realm,
            multicast_enabled=multicast_enabled,
            tracer=self.tracer,
            obs=self.obs,
        )
        self.brokers[name] = broker
        if start:
            broker.start()
        return broker

    def link(self, a: str, b: str, persistent: bool = False) -> None:
        """Request a link between brokers ``a`` and ``b`` (completes in settle).

        With ``persistent=True`` the initiating broker treats ``b`` as a
        configured neighbour and keeps re-establishing the link after
        failures (see :meth:`repro.substrate.broker.Broker.link_to`).
        """
        if a == b:
            raise ValueError("cannot link a broker to itself")
        broker_a, broker_b = self.brokers[a], self.brokers[b]
        edge = (min(a, b), max(a, b))
        if edge in self._edges:
            return
        self._edges.add(edge)
        broker_a.link_to(broker_b, persistent=persistent)

    def apply_topology(
        self, kind: str, names: list[str] | None = None, persistent: bool = False
    ) -> None:
        """Link the named brokers (default: all, in insertion order).

        ``star`` uses the first name as hub; ``linear`` chains in list
        order; ``random_tree`` draws a uniform random labelled tree from
        the master RNG.  ``persistent`` makes every link self-healing.
        """
        ordered = list(self.brokers) if names is None else list(names)
        if kind == Topology.UNCONNECTED:
            return
        if len(ordered) < 2:
            raise ValueError(f"topology {kind!r} needs at least 2 brokers")
        if kind == Topology.STAR:
            hub = ordered[0]
            for spoke in ordered[1:]:
                self.link(hub, spoke, persistent=persistent)
        elif kind == Topology.LINEAR:
            for a, b in zip(ordered, ordered[1:]):
                self.link(a, b, persistent=persistent)
        elif kind == Topology.RING:
            if len(ordered) < 3:
                raise ValueError("ring needs at least 3 brokers")
            for a, b in zip(ordered, ordered[1:] + ordered[:1]):
                self.link(a, b, persistent=persistent)
        elif kind == Topology.MESH:
            for i, a in enumerate(ordered):
                for b in ordered[i + 1 :]:
                    self.link(a, b, persistent=persistent)
        elif kind == Topology.RANDOM_TREE:
            seed = int(self.master_rng.integers(0, 2**31))
            tree = nx.random_labeled_tree(len(ordered), seed=seed)
            for i, j in tree.edges:
                self.link(ordered[i], ordered[j], persistent=persistent)
        else:
            raise ValueError(f"unknown topology {kind!r} (choose from {Topology.ALL})")

    # ------------------------------------------------------------------
    # Introspection & routing
    # ------------------------------------------------------------------
    def graph(self) -> nx.Graph:
        """The requested link graph (edges include links still handshaking)."""
        g = nx.Graph()
        g.add_nodes_from(self.brokers)
        g.add_edges_from(self._edges)
        return g

    def install_spanning_tree_routing(self) -> SpanningTreeRouting:
        """Switch every broker to spanning-tree ("optimized") routing.

        One BFS tree per connected component; isolated brokers simply
        forward nowhere.  Returns the shared strategy instance.
        """
        g = self.graph()
        strategy = SpanningTreeRouting()
        for component in nx.connected_components(g):
            nodes = sorted(component)
            root = nodes[0]
            for a, b in nx.bfs_edges(g.subgraph(component), root):
                strategy.add_edge(a, b)
        for broker in self.brokers.values():
            broker.routing = strategy
        return strategy

    def settle(self, duration: float = 6.0) -> None:
        """Run the simulation long enough for links and NTP to be ready.

        6 s clears the worst-case 5 s NTP initialisation plus the TCP
        handshakes of every requested link.
        """
        self.sim.run_for(duration)

    def broker_list(self) -> list[Broker]:
        """Brokers in insertion order."""
        return list(self.brokers.values())
