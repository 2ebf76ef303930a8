"""Declarative setups for every evaluation of the paper.

A :class:`ScenarioSpec` captures one experiment's knobs; a
:class:`DiscoveryScenario` builds the whole simulated world from it:
the Table 1 WAN, five brokers with discovery responders, a BDN in
Bloomington, and a discovery client at the requested site.

Defaults follow the paper:

* **unconnected** (Figures 1-7): every broker registered, BDN fans the
  request out to each one (O(N) distribution, ``injection="all"``).
* **star** (Figures 8-9): every broker registered, hub first;
  the BDN injects at the measured closest+farthest brokers and the
  network disseminates the rest.
* **linear** (Figures 10-11): "only one broker is registered with the
  BDN" -- the head of the chain; the request crawls down the line.
* **multicast-only** (Figure 12): no BDN in play; the client multicasts
  into its realm, and only in-realm ("in the lab") brokers can hear it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.config import BDNConfig, BrokerConfig, ClientConfig, Endpoint
from repro.core.metrics import WeightConfig
from repro.discovery.advertisement import start_periodic_advertisement
from repro.discovery.bdn import BDN
from repro.discovery.requester import DiscoveryClient, DiscoveryOutcome
from repro.discovery.responder import DiscoveryResponder
from repro.experiments.harness import repeat_discovery
from repro.simnet.loss import NoLoss, PerHopLoss
from repro.substrate.builder import BrokerNetwork, Topology
from repro.topology.sites import TABLE1_MACHINES, paper_latency_model

__all__ = ["ScenarioSpec", "DiscoveryScenario"]

#: Realm name used for "inside the lab" multicast scenarios.
LAB_REALM = "lab"


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """All knobs of one discovery experiment.

    Attributes
    ----------
    topology:
        One of :class:`~repro.substrate.builder.Topology`.
    client_site:
        Site the discovery client runs at (Figures 3-7 vary this).
    seed:
        Master seed for full reproducibility.
    injection:
        BDN injection strategy; ``None`` picks the paper default for
        the topology (``all`` for unconnected, ``closest_farthest``
        otherwise).
    register:
        Which brokers advertise with the BDN: ``"all"`` or ``"head"``
        (the linear topology registers only the chain head).
    use_bdn:
        False for the multicast-only experiment.
    lab_sites:
        Sites placed in the client's multicast realm (the "lab").
        Only meaningful when the client multicasts; WAN multicast is
        administratively scoped to one realm.
    response_timeout / max_responses / min_responses / target_set_size
    / ping_repeats / ping_timeout / retransmit_interval /
    max_retransmits:
        Client configuration; ``max_responses=None`` defaults to the
        broker count (the client knows it wants "the first N").
    per_hop_loss:
        Per-router-hop UDP drop probability (0 disables loss).
    jitter_sigma:
        WAN latency jitter.
    weights:
        Selection weight factors.
    credentials:
        Credentials the client presents.
    broker_config:
        Applied to every broker (response policies etc.).
    star_hub / linear_order:
        Optional topology shape overrides (broker *site* names).
    bdn_fanout_delay:
        Override for the BDN's per-destination dispatch cost (None =
        the calibrated 2005-JVM default in :class:`BDNConfig`).
    """

    topology: str = Topology.UNCONNECTED
    client_site: str = "bloomington"
    seed: int = 0
    injection: str | None = None
    register: str = "all"
    use_bdn: bool = True
    lab_sites: tuple[str, ...] = ()
    response_timeout: float = 4.5
    max_responses: int | None = None
    min_responses: int = 1
    target_set_size: int = 3
    ping_repeats: int = 2
    ping_timeout: float = 1.5
    retransmit_interval: float = 2.0
    max_retransmits: int = 2
    per_hop_loss: float = 0.001
    jitter_sigma: float = 0.08
    weights: WeightConfig = field(default_factory=WeightConfig)
    credentials: frozenset[str] = frozenset()
    broker_config: BrokerConfig = field(default_factory=BrokerConfig)
    star_hub: str | None = None
    linear_order: tuple[str, ...] | None = None
    bdn_fanout_delay: float | None = None

    def resolved_injection(self) -> str:
        """The BDN injection strategy this spec implies."""
        if self.injection is not None:
            return self.injection
        return "all" if self.topology == Topology.UNCONNECTED else "closest_farthest"

    # Paper-default constructors -------------------------------------

    @classmethod
    def unconnected(cls, client_site: str = "bloomington", seed: int = 0, **kw) -> "ScenarioSpec":
        """Figure 1/2 setup (and Figures 3-7 with varying client sites)."""
        return cls(topology=Topology.UNCONNECTED, client_site=client_site, seed=seed, **kw)

    @classmethod
    def star(cls, client_site: str = "bloomington", seed: int = 0, **kw) -> "ScenarioSpec":
        """Figure 8/9 setup."""
        return cls(topology=Topology.STAR, client_site=client_site, seed=seed, **kw)

    @classmethod
    def linear(cls, client_site: str = "bloomington", seed: int = 0, **kw) -> "ScenarioSpec":
        """Figure 10/11 setup: only the chain head registers."""
        kw.setdefault("register", "head")
        return cls(topology=Topology.LINEAR, client_site=client_site, seed=seed, **kw)

    @classmethod
    def multicast_only(
        cls,
        client_site: str = "bloomington",
        seed: int = 0,
        lab_sites: tuple[str, ...] = ("bloomington", "indianapolis"),
        **kw,
    ) -> "ScenarioSpec":
        """Figure 12 setup: no BDN; multicast reaches the lab realm only.

        Since only in-realm brokers can hear the request, the client's
        ``max_responses`` defaults to the number of lab brokers -- it
        "specif[ies] that only the first N responses must be
        considered" rather than waiting a full timeout for brokers
        multicast can never reach.
        """
        lab = lab_sites if client_site in lab_sites else lab_sites + (client_site,)
        broker_sites = {s.name for s in TABLE1_MACHINES}
        reachable = len([s for s in lab if s in broker_sites])
        kw.setdefault("max_responses", max(1, reachable))
        kw.setdefault("target_set_size", max(1, reachable))
        return cls(
            topology=Topology.UNCONNECTED,
            client_site=client_site,
            seed=seed,
            use_bdn=False,
            lab_sites=lab,
            **kw,
        )


class DiscoveryScenario:
    """A fully built experiment world, ready to run discoveries.

    Attributes
    ----------
    net:
        The broker network (simulator, fabric, brokers).
    brokers:
        Brokers in site order (matches ``TABLE1_MACHINES``).
    responders:
        The attached discovery responders, by broker name.
    bdn:
        The Bloomington BDN (None for multicast-only scenarios).
    client:
        The discovery client.

    Parameters
    ----------
    keep_trace:
        Retain full :class:`~repro.simnet.trace.Tracer` records; the
        determinism tests compare them byte for byte.
    observe:
        Attach a shared :class:`~repro.obs.Observability` to every node
        (brokers, BDN, client), so each discovery run leaves a
        cross-node flight-recorder timeline behind.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        keep_trace: bool = False,
        observe: bool = False,
    ) -> None:
        self.spec = spec
        self.net = BrokerNetwork(
            seed=spec.seed,
            latency=paper_latency_model(jitter_sigma=spec.jitter_sigma),
            loss=PerHopLoss(spec.per_hop_loss) if spec.per_hop_loss > 0 else NoLoss(),
            keep_trace=keep_trace,
            observe=observe,
        )
        self.obs = self.net.obs
        self.brokers = []
        self.responders: dict[str, DiscoveryResponder] = {}
        for site_spec in TABLE1_MACHINES:
            realm = LAB_REALM if site_spec.name in spec.lab_sites else None
            broker = self.net.add_broker(
                f"broker-{site_spec.name}",
                site=site_spec.name,
                host=site_spec.machine,
                realm=realm,
                config=spec.broker_config,
            )
            self.responders[broker.name] = DiscoveryResponder(broker)
            self.brokers.append(broker)
        self._apply_topology()
        self.bdn = self._build_bdn() if spec.use_bdn else None
        self.client = self._build_client()
        # Let TCP links establish, NTP converge, and the BDN measure
        # its first broker distances before any discovery.
        self.net.settle(8.0)

    # ------------------------------------------------------------------
    # Construction details
    # ------------------------------------------------------------------
    def _broker_order(self) -> list[str]:
        names = [b.name for b in self.brokers]
        if self.spec.topology == Topology.STAR and self.spec.star_hub:
            hub = f"broker-{self.spec.star_hub}"
            names.remove(hub)
            names.insert(0, hub)
        if self.spec.topology == Topology.LINEAR and self.spec.linear_order:
            names = [f"broker-{site}" for site in self.spec.linear_order]
        return names

    def _apply_topology(self) -> None:
        self.net.apply_topology(self.spec.topology, self._broker_order())

    def _build_bdn(self) -> BDN:
        if self.spec.bdn_fanout_delay is not None:
            bdn_config = BDNConfig(
                injection=self.spec.resolved_injection(),
                fanout_delay=self.spec.bdn_fanout_delay,
            )
        else:
            bdn_config = BDNConfig(injection=self.spec.resolved_injection())
        bdn = BDN(
            "bdn-bloomington",
            "gridservicelocator.org",
            self.net.network,
            np.random.default_rng(self.spec.seed + 104729),
            config=bdn_config,
            site="bloomington",
            realm=LAB_REALM if "bloomington" in self.spec.lab_sites else None,
            obs=self.obs,
        )
        bdn.start()
        if self.spec.register == "head":
            registered = [self.net.brokers[self._broker_order()[0]]]
        else:
            registered = self.brokers
        for broker in registered:
            # Burst + periodic re-advertisement: a single lost UDP
            # registration must not make a broker permanently invisible.
            start_periodic_advertisement(broker, bdn.udp_endpoint)
        return bdn

    def _build_client(self) -> DiscoveryClient:
        spec = self.spec
        max_responses = spec.max_responses if spec.max_responses is not None else len(self.brokers)
        config = ClientConfig(
            bdn_endpoints=(self.bdn.udp_endpoint,) if self.bdn is not None else (),
            response_timeout=spec.response_timeout,
            max_responses=max_responses,
            min_responses=spec.min_responses,
            target_set_size=min(spec.target_set_size, max_responses),
            ping_repeats=spec.ping_repeats,
            ping_timeout=spec.ping_timeout,
            retransmit_interval=spec.retransmit_interval,
            max_retransmits=spec.max_retransmits,
            weights=spec.weights,
            credentials=spec.credentials,
        )
        realm = LAB_REALM if spec.client_site in spec.lab_sites else None
        client = DiscoveryClient(
            "requesting-node",
            f"client.{spec.client_site}.example",
            self.net.network,
            np.random.default_rng(spec.seed + 224737),
            config=config,
            site=spec.client_site,
            realm=realm,
            obs=self.obs,
        )
        client.start()
        return client

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, runs: int = 120, gap: float = 0.5) -> list[DiscoveryOutcome]:
        """Sequential discoveries, the paper's 120-run loop."""
        return repeat_discovery(self.client, runs, gap=gap)

    def run_one(self) -> DiscoveryOutcome:
        """A single discovery (examples and quick tests)."""
        return self.run(runs=1)[0]

    # ------------------------------------------------------------------
    # Derived data for the figures
    # ------------------------------------------------------------------
    @staticmethod
    def total_times_ms(outcomes: list[DiscoveryOutcome]) -> list[float]:
        """Total discovery times in milliseconds (successful runs)."""
        return [o.total_time * 1000.0 for o in outcomes if o.success]

    @staticmethod
    def mean_phase_percentages(outcomes: list[DiscoveryOutcome]) -> dict[str, float]:
        """Average per-phase percentage breakdown over successful runs.

        This is what Figures 2, 9 and 11 plot.
        """
        sums: dict[str, float] = {}
        n = 0
        for outcome in outcomes:
            if not outcome.success:
                continue
            n += 1
            for name, pct in outcome.phases.percentages().items():
                sums[name] = sums.get(name, 0.0) + pct
        if n == 0:
            return {}
        return {name: total / n for name, total in sums.items()}
