"""UDP ping measurement.

Both ends of the discovery scheme measure distances with UDP pings:

* the **BDN** pings its registered brokers to learn which are closest
  and farthest, steering request injection (section 4: "this
  information could easily be constructed by issuing ping request to
  brokers and computing the delays from the issued responses");
* the **requesting node** pings its target set to find the broker with
  the lowest true RTT (section 6), repeating the ping to average out
  jitter (section 10).

Pings ride UDP for the same reasons responses do: cheap, connectionless
and usefully lossy.  RTTs are computed entirely on the *sender's* clock
(the ping response echoes the request's timestamp), so no NTP error is
involved -- which is exactly why the final selection trusts pings over
timestamp-derived estimates.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from types import MappingProxyType

from repro.core.config import Endpoint
from repro.core.messages import PingRequest, PingResponse
from repro.simnet.node import Node

__all__ = ["Pinger"]

RttCallback = Callable[[str, float], None]


class Pinger:
    """Issues pings and aggregates RTT samples per target key.

    The owner node routes incoming :class:`PingResponse` messages to
    :meth:`on_response` (the pinger does not own a port binding, so BDNs
    and clients can multiplex it on their existing UDP endpoint).

    Parameters
    ----------
    node:
        The owning node; supplies the clock and runtime.
    reply_endpoint:
        Endpoint ping responses should come back to.
    max_samples:
        RTT samples retained per key (older ones roll off).
    outstanding_timeout:
        Seconds an unanswered ping stays tracked.  UDP pings are lossy
        by design, so without a deadline every lost pong would leave its
        UUID in the outstanding table forever -- a slow leak on
        long-lived BDNs that ping every registered broker periodically.
        Expiry is lazy (checked on the next ping/response, no timers),
        so it cannot perturb the event schedule.
    """

    def __init__(
        self,
        node: Node,
        reply_endpoint: Endpoint,
        max_samples: int = 16,
        outstanding_timeout: float = 30.0,
    ) -> None:
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        if outstanding_timeout <= 0:
            raise ValueError("outstanding_timeout must be positive")
        self._node = node
        self._reply = reply_endpoint
        self._max_samples = max_samples
        self._outstanding_timeout = outstanding_timeout
        # ping uuid -> (target key, expiry deadline, trace id).  Insertion
        # order is deadline order (the timeout is constant), so expiry
        # only ever needs to pop from the front.
        self._outstanding: dict[str, tuple[str, float, str | None]] = {}
        self._samples: dict[str, list[float]] = {}
        # Per-key mean of the retained samples, refreshed whenever a
        # sample is stored, so average_rtt is a dict lookup.
        self._means: dict[str, float] = {}
        self._last_heard: dict[str, float] = {}
        self.on_rtt: RttCallback | None = None
        self.pings_sent = 0
        self.pongs_received = 0
        self.pings_expired = 0
        #: Bumped whenever the RTT table changes (a sample stored, a key
        #: forgotten, samples cleared): a reader caching a choice made
        #: from :meth:`averages` compares it to detect staleness.
        self.version = 0

    def _expire_outstanding(self) -> None:
        """Drop outstanding pings whose deadline has passed."""
        now = self._node.runtime.now
        while self._outstanding:
            uuid = next(iter(self._outstanding))
            if self._outstanding[uuid][1] > now:
                break
            del self._outstanding[uuid]
            self.pings_expired += 1

    def ping(
        self, target: Endpoint, key: str | None = None, trace_id: str | None = None
    ) -> str:
        """Send one ping to ``target``; returns the ping UUID.

        ``key`` is the aggregation bucket (defaults to the target's
        host); pass the broker id when known so RTTs can be looked up
        by broker.  ``trace_id`` (with observability attached to the
        owning node) marks the ping on the wire and emits ``send`` /
        ``recv`` spans, so a discovery request's ping phase appears in
        its flight-recorder timeline.
        """
        self._expire_outstanding()
        uuid = self._node.ids()
        deadline = self._node.runtime.now + self._outstanding_timeout
        resolved_key = key if key is not None else target.host
        traced = trace_id is not None and self._node._recorder is not None
        self._outstanding[uuid] = (resolved_key, deadline, trace_id if traced else None)
        request = PingRequest(
            uuid=uuid,
            sent_at=self._node.clock.raw(),
            reply_host=self._reply.host,
            reply_port=self._reply.port,
            trace_flag=traced,
        )
        self._node.runtime.send_udp(self._reply, target, request)
        self.pings_sent += 1
        if traced:
            self._node.span("send", trace_id, kind="PingRequest", broker=resolved_key)
        return uuid

    def on_response(self, response: PingResponse, src: Endpoint) -> None:
        """Record the RTT carried by one ping response.

        Unknown UUIDs (stale or duplicated responses) are ignored, and
        so are pongs arriving after their ping's deadline.
        """
        self._expire_outstanding()
        entry = self._outstanding.pop(response.uuid, None)
        if entry is None:
            return
        key, _, trace_id = entry
        rtt = self._node.clock.raw() - response.sent_at
        if rtt < 0:
            return  # clock was stepped mid-flight; drop the sample
        if trace_id is not None:
            self._node.span(
                "recv", trace_id, hop=response.trace_hop, kind="PingResponse", broker=key
            )
        samples = self._samples.setdefault(key, [])
        samples.append(rtt)
        if len(samples) > self._max_samples:
            del samples[0]
        self._means[key] = sum(samples) / len(samples)
        self.version += 1
        self._last_heard[key] = self._node.runtime.now
        self.pongs_received += 1
        if self.on_rtt is not None:
            self.on_rtt(key, rtt)

    def average_rtt(self, key: str) -> float | None:
        """Mean RTT over retained samples for ``key`` (None if no data)."""
        return self._means.get(key)

    def averages(self) -> Mapping[str, float]:
        """Read-only live view of every measured key's mean RTT."""
        return MappingProxyType(self._means)

    def sample_count(self, key: str) -> int:
        """Number of retained samples for ``key``."""
        return len(self._samples.get(key, ()))

    def last_heard(self, key: str) -> float | None:
        """Runtime time the last response for ``key`` arrived (None if never)."""
        return self._last_heard.get(key)

    def known_keys(self) -> list[str]:
        """Keys with at least one recorded sample, sorted."""
        return sorted(self._samples)

    def forget(self, key: str) -> None:
        """Drop all state for ``key``."""
        self._samples.pop(key, None)
        self._means.pop(key, None)
        self._last_heard.pop(key, None)
        self.version += 1

    def clear_samples(self) -> None:
        """Drop every RTT sample but keep outstanding pings."""
        self._samples.clear()
        self._means.clear()
        self.version += 1
