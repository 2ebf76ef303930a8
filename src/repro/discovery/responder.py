"""Broker-side discovery: request processing and response generation.

Paper sections 4 and 5.  A :class:`DiscoveryResponder` is attached to a
broker and does four things when a discovery request arrives (over UDP
from a BDN or multicast, or inside a control-topic event from a peer
broker):

1. **Deduplicate** -- the broker "keeps track of the last 1000 broker
   discovery requests so that additional CPU/network cycles are not
   expended on previously processed requests".  The key includes the
   retransmission attempt, so a retransmitted request *is* re-processed
   (that is how the scheme survives lost responses, section 7).
2. **Propagate** -- wrap the request in an event on a predefined topic
   and publish it into the broker network ("the brokers also propagate
   discovery requests on a predefined topic thus guaranteeing that the
   request can reach each broker connected in the network",
   section 10).  Requests that arrived *as* control events are already
   being forwarded by normal event routing, so only UDP arrivals are
   wrapped here.
3. **Apply the response policy** -- credentials and origin realm
   (section 5).
4. **Respond over UDP** -- with the NTP timestamp, broker process
   information, and usage metrics (section 5.1), after a small
   simulated processing delay.
"""

from __future__ import annotations

from repro.core.codec import encode_message, lazy_decode
from repro.core.config import Endpoint
from repro.core.dedup import DedupCache
from repro.core.errors import CodecError, UnknownHostError
from repro.core.messages import DiscoveryRequest, DiscoveryResponse, Event
from repro.runtime.api import TimerHandle
from repro.substrate.broker import BROKER_TCP_PORT, BROKER_UDP_PORT, Broker

__all__ = ["REQUEST_TOPIC", "DiscoveryResponder"]

#: The predefined control topic discovery requests propagate on.
REQUEST_TOPIC = "Services/BrokerDiscovery/Request"

# Simulated per-request processing cost at a broker (policy check,
# metric snapshot, response construction on a 2005-era JVM), drawn
# uniformly per request.
_PROCESS_DELAY_RANGE = (0.002, 0.008)


class DiscoveryResponder:
    """Attaches discovery behaviour to one broker.

    Parameters
    ----------
    broker:
        The broker to serve.  The responder installs a UDP handler for
        :class:`DiscoveryRequest` and a control handler for
        :data:`REQUEST_TOPIC`.

    Attributes
    ----------
    requests_processed:
        Distinct (uuid, attempt) requests handled.
    responses_sent:
        Responses actually issued (policy permitting).
    policy_rejections:
        Requests the response policy declined to answer.
    responses_suppressed:
        Responses withheld because the broker's ingress queue was at or
        above ``response_suppress_depth`` when the response came due.
    active:
        Whether the responder is answering requests.  Responders start
        active; :meth:`stop` deactivates (and cancels every pending
        response and heartbeat), :meth:`start` reactivates.  Both are
        idempotent.
    """

    def __init__(self, broker: Broker) -> None:
        self.broker = broker
        self.dedup = DedupCache(broker.config.dedup_capacity)
        self.requests_processed = 0
        self.responses_sent = 0
        self.policy_rejections = 0
        self.responses_suppressed = 0
        self.active = True
        #: Draining (see :meth:`drain`): in-flight responses finish,
        #: new requests are ignored, the registration is withdrawn.
        self.draining = False
        #: Withdrawal advertisements sent by the last :meth:`drain`.
        self.withdrawals_sent = 0
        self._heartbeats: list = []
        #: Set by :meth:`attach_group_heartbeat`; its leader belief is
        #: echoed in responses as ``leader_hint``.
        self.group_heartbeat = None
        self._response_timers: set[TimerHandle] = set()
        broker.add_udp_handler(DiscoveryRequest, self._on_udp_request)
        broker.add_control_handler(REQUEST_TOPIC, self._on_control_event)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """(Re)activate the responder; idempotent.

        Clears any drain in progress.  Heartbeats detached by
        :meth:`stop` or :meth:`drain` are *not* re-armed here -- call
        :meth:`attach_heartbeat` again with the desired schedule.
        """
        self.active = True
        self.draining = False

    def stop(self) -> None:
        """Deactivate the responder; idempotent.

        After this returns the responder sends nothing: new requests are
        ignored, every not-yet-fired response timer is cancelled, and
        every registration heartbeat is detached.
        """
        if not self.active:
            return
        self.active = False
        self.draining = False
        for timer in self._response_timers:
            timer.cancel()
        self._response_timers.clear()
        self.detach_heartbeat()
        self.broker.trace("responder_stop")

    def drain(self, withdraw_endpoints=()) -> None:
        """Begin a graceful drain; idempotent.

        The SIGTERM half of the responder lifecycle: new requests are
        ignored from this call on, but responses already scheduled (the
        paper's per-request processing delay is pending) still fire --
        a client that was promised an answer gets it.  The registration
        heartbeats stop first and a withdrawal advertisement (see
        :func:`~repro.discovery.advertisement.withdraw_registration`)
        goes to every endpoint in ``withdraw_endpoints``, so BDNs stop
        handing out this broker before its lease would have lapsed.

        Callers poll :attr:`pending_responses` for zero, then
        :meth:`stop` and exit.
        """
        if self.draining or not self.active:
            return
        self.draining = True
        self.detach_heartbeat()
        if withdraw_endpoints and self.broker.config.advertise and self.broker.alive:
            from repro.discovery.advertisement import withdraw_registration

            self.withdrawals_sent = withdraw_registration(
                self.broker, tuple(withdraw_endpoints)
            )
        self.broker.trace("responder_drain", pending=len(self._response_timers))

    @property
    def pending_responses(self) -> int:
        """Responses scheduled but not yet sent (the drain barrier)."""
        return len(self._response_timers)

    # ------------------------------------------------------------------
    # Registration heartbeats
    # ------------------------------------------------------------------
    def attach_heartbeat(
        self,
        bdn_endpoints,
        interval: float = 30.0,
        ttl: float | None = None,
        region: str = "",
    ) -> None:
        """Maintain leased registrations with every listed BDN.

        Starts one periodic advertisement series per BDN endpoint (see
        :func:`~repro.discovery.advertisement.start_periodic_advertisement`;
        ``ttl`` defaults to three intervals there).  Heartbeats pause
        while the broker is dead and resume when it is revived, so a
        revived broker re-acquires its leases within one interval
        without any extra wiring.
        """
        from repro.discovery.advertisement import start_periodic_advertisement

        if not self.broker.config.advertise:
            return
        for endpoint in bdn_endpoints:
            self._heartbeats.append(
                start_periodic_advertisement(
                    self.broker, endpoint, interval=interval, region=region, ttl=ttl
                )
            )

    def attach_group_heartbeat(
        self,
        group_endpoints,
        interval: float = 30.0,
        ttl: float | None = None,
        region: str = "",
    ) -> None:
        """Maintain one leased registration with a *replicated* BDN group.

        Unlike :meth:`attach_heartbeat` (one independent series per
        endpoint) this starts a single
        :class:`~repro.discovery.advertisement.GroupHeartbeat` that
        follows the group's leader: it broadcasts until an ack names
        the leader, renews there only, and re-homes (or falls back to
        broadcast) on takeover.  The broker's current leader belief is
        also echoed as ``leader_hint`` in every discovery response, so
        clients learn where the group's write path lives.
        """
        from repro.discovery.advertisement import start_group_heartbeat

        if not self.broker.config.advertise:
            return
        hb = start_group_heartbeat(
            self.broker, tuple(group_endpoints), interval=interval, region=region, ttl=ttl
        )
        self.group_heartbeat = hb
        self._heartbeats.append(hb)

    def detach_heartbeat(self) -> None:
        """Cancel every registration heartbeat started by this responder."""
        for series in self._heartbeats:
            series.cancel()
        self._heartbeats.clear()
        self.group_heartbeat = None

    # ------------------------------------------------------------------
    # Arrival paths
    # ------------------------------------------------------------------
    def _on_udp_request(self, request: DiscoveryRequest, src: Endpoint) -> None:
        """Request arrived over UDP (from a BDN, multicast, or a cached
        target-set retry) -- process it and inject it into the broker
        network for propagation."""
        self._process(request, propagate=True)

    def _on_control_event(self, event: Event, from_peer: str | None) -> None:
        """Request arrived inside a control event from a peer broker.

        Event routing is already forwarding the event onward, so the
        responder must not re-publish it (that would double-propagate).

        This is the hottest decode site in a discovery run -- a flooded
        request reaches every broker's responder -- so it runs the
        lazy-decode dedup protocol: pull only the ``(uuid, attempt)``
        key from the wire buffer, consult the LRU, and materialise the
        full request only on first sighting.  A duplicate is
        materialised only when a flight recorder wants its
        ``recv``/``dup_suppressed`` spans.
        """
        try:
            lazy = lazy_decode(event.payload)
        except CodecError:
            self.broker.trace("discovery_bad_payload", topic=event.topic)
            return
        if lazy.tag != DiscoveryRequest.kind:
            return
        if not self.active or self.draining or not self.broker.alive:
            return
        try:
            key = lazy.request_key()
        except CodecError:
            self.broker.trace("discovery_bad_payload", topic=event.topic)
            return
        if self.dedup.seen(key):
            if self.broker._recorder is not None:
                try:
                    request = lazy.message
                except CodecError:
                    self.broker.trace("discovery_bad_payload", topic=event.topic)
                    return
                if request.trace_flag:
                    self._span("recv", request, via="topic")
                    self._span("dup_suppressed", request)
            return
        try:
            request = lazy.message
        except CodecError:
            # Structurally sound enough to yield a key, but the body
            # failed validation: forget the key so a clean retransmit of
            # the same (uuid, attempt) is not treated as a duplicate.
            self.dedup.discard(key)
            self.broker.trace("discovery_bad_payload", topic=event.topic)
            return
        self._process(request, propagate=False, _deduped=True)

    # ------------------------------------------------------------------
    # Core processing
    # ------------------------------------------------------------------
    @staticmethod
    def request_key(request: DiscoveryRequest) -> tuple[str, int]:
        """Dedup key: the UUID plus the retransmission attempt.

        Duplicates of one transmission are suppressed; an explicit
        retransmission (attempt+1) is deliberately re-processed so that
        brokers re-respond after response loss.
        """
        return (request.uuid, request.attempt)

    def _process(
        self, request: DiscoveryRequest, propagate: bool, _deduped: bool = False
    ) -> None:
        if not self.active or self.draining or not self.broker.alive:
            return
        traced = request.trace_flag and self.broker._recorder is not None
        if traced:
            self._span("recv", request, via="udp" if propagate else "topic")
        # _deduped: the lazy fast path already consulted the LRU before
        # materialising the request, so don't charge a second lookup.
        if not _deduped and self.dedup.seen(self.request_key(request)):
            if traced:
                self._span("dup_suppressed", request)
            return
        self.requests_processed += 1
        if propagate:
            self._propagate(request)
        realm = self._requester_realm(request)
        if not self.broker.config.response_policy.permits(request.credentials, realm):
            self.policy_rejections += 1
            self.broker.trace("discovery_policy_reject", request=request.uuid)
            return
        delay = float(self.broker.rng.uniform(*_PROCESS_DELAY_RANGE))
        self._schedule_response(delay, request)

    def _span(self, event: str, request: DiscoveryRequest, **detail) -> None:
        self.broker.span(
            event, request.uuid, hop=request.trace_hop, kind="DiscoveryRequest", **detail
        )

    def _schedule_response(self, delay: float, request: DiscoveryRequest) -> None:
        def fire() -> None:
            self._response_timers.discard(handle)
            self._respond(request)

        handle = self.broker.runtime.schedule(delay, fire)
        self._response_timers.add(handle)

    def _requester_realm(self, request: DiscoveryRequest) -> str:
        if request.realm:
            return request.realm
        try:
            return self.broker.runtime.realm_of(request.requester_host)
        except UnknownHostError:
            return ""

    def _propagate(self, request: DiscoveryRequest) -> None:
        """Wrap the request in a control event and flood it onward.

        The event UUID is derived from (request UUID, attempt) so that
        event-level dedup at peer brokers aligns with request-level
        dedup here.
        """
        forwarded = request.forwarded()
        event = Event(
            uuid=f"{request.uuid}#{request.attempt}",
            topic=REQUEST_TOPIC,
            payload=encode_message(forwarded),
            source=self.broker.name,
            issued_at=self.broker.utc(),
        )
        if request.trace_flag:
            self.broker.span("inject", request.uuid, hop=forwarded.trace_hop, via="topic")
        self.broker.publish_local(event)

    def _respond(self, request: DiscoveryRequest) -> None:
        if not self.active or not self.broker.alive:
            return
        suppress_depth = self.broker.config.response_suppress_depth
        if suppress_depth > 0 and self.broker.queue_depth >= suppress_depth:
            # Under load, attracting a new client would make things
            # worse: withhold the response and let an idle broker win
            # the selection instead (the policy "may also dictate that
            # responses be issued only if" conditions hold -- here the
            # condition is headroom).
            self.responses_suppressed += 1
            if request.trace_flag:
                self.broker.span(
                    "suppressed",
                    request.uuid,
                    hop=request.trace_hop,
                    broker=self.broker.name,
                    depth=self.broker.queue_depth,
                )
            self.broker.trace(
                "discovery_response_suppressed",
                request=request.uuid,
                depth=self.broker.queue_depth,
            )
            return
        hb = self.group_heartbeat
        leader_hint = (
            str(hb.leader) if hb is not None and hb.leader is not None else ""
        )
        response = DiscoveryResponse(
            request_uuid=request.uuid,
            broker_id=self.broker.name,
            hostname=self.broker.host,
            transports=(("tcp", BROKER_TCP_PORT), ("udp", BROKER_UDP_PORT)),
            issued_at=self.broker.utc(),
            metrics=self.broker.usage_metrics(),
            trace_flag=request.trace_flag,
            trace_hop=request.trace_hop + 1 if request.trace_flag else 0,
            leader_hint=leader_hint,
        )
        self.broker.send_udp(
            Endpoint(request.requester_host, request.requester_port), response
        )
        self.responses_sent += 1
        if request.trace_flag:
            self.broker.span(
                "respond", request.uuid, hop=response.trace_hop, broker=self.broker.name
            )
        self.broker.trace("discovery_response", request=request.uuid)
