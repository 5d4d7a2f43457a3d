"""The simulated network: node registry, unicast and broadcast fan-out.

The paper realises globally distributed data "by a message broadcast
facility that allows each access message to be seen by [all entities]"
(Section 2, Figure 1).  :class:`Network` is that facility's transport:
a broadcast is modelled as one independent hop per destination, each with
its own sampled latency and fault decision — exactly the conditions under
which copies arrive at different members in different orders, which the
ordering protocols above must repair.

A hop carries a *frame*: one envelope normally, or — when a burst of sends
was corked (:meth:`Network.cork`) — everything one source sent one
destination, in send order.  A frame is late, lost or duplicated as a
unit, and lands whole: the destination node takes it in one call
(:meth:`~repro.sim.node.SimNode.on_frame`).  The paper's ordering comes
from ``Occurs-After``, not from the transport, so the transport is free
to coalesce.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, MembershipError
from repro.net.faults import FaultPlan, RELIABLE
from repro.net.latency import ConstantLatency, LatencyModel
from repro.sim.node import SimNode
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceRecorder
from repro.types import Envelope, EntityId


class Network:
    """A set of nodes joined by a broadcast-capable transport.

    Parameters
    ----------
    scheduler:
        The discrete-event loop delivering hops.
    latency:
        Hop latency model (default: constant 1.0).
    faults:
        Fault plan (default: reliable).
    rng:
        Registry from which the latency/fault streams are drawn.
    trace:
        Optional shared trace recorder; a fresh one is created if omitted.
    service_time:
        CPU cost of processing one arrival at a node.  Each node is a
        single server: arrivals queue FIFO and each occupies the node for
        ``service_time`` before being handed to the protocol.  The
        default 0 models infinitely fast nodes (arrival order only);
        a positive value makes *message-processing load* visible —
        protocols that send O(N) messages per request saturate nodes as
        the group grows.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        latency: Optional[LatencyModel] = None,
        faults: Optional[FaultPlan] = None,
        rng: Optional[RngRegistry] = None,
        trace: Optional[TraceRecorder] = None,
        service_time: float = 0.0,
    ) -> None:
        if service_time < 0:
            raise ConfigurationError(
                f"service_time must be >= 0, got {service_time}"
            )
        self.scheduler = scheduler
        self.latency = latency if latency is not None else ConstantLatency(1.0)
        self.faults = faults if faults is not None else RELIABLE
        rng = rng if rng is not None else RngRegistry(0)
        self._latency_rng = rng.stream("net.latency")
        self._fault_rng = rng.stream("net.faults")
        self.trace = trace if trace is not None else TraceRecorder()
        self.service_time = service_time
        self._node_free_at: Dict[EntityId, float] = {}
        self._nodes: Dict[EntityId, SimNode] = {}
        #: The three ``hops_*`` counters count envelopes, ``frames_sent``
        #: the hops that carried them (equal unless sends were corked).
        self.hops_sent = 0
        self.hops_delivered = 0
        self.hops_dropped = 0
        self.frames_sent = 0
        #: (source, destination) -> envelopes parked in send order while
        #: corked; ``None`` while sends go straight out (see `cork`).
        self._parked: Optional[
            Dict[Tuple[EntityId, EntityId], List[Envelope]]
        ] = None

    # -- membership -----------------------------------------------------------

    def register(self, node: SimNode) -> SimNode:
        """Attach ``node`` to this network.  Returns the node for chaining."""
        if node.entity_id in self._nodes:
            raise ConfigurationError(
                f"duplicate entity id: {node.entity_id!r}"
            )
        self._nodes[node.entity_id] = node
        node.attach(self)
        return node

    def deregister(self, entity_id: EntityId) -> SimNode:
        """Detach a node (simulating a crash).

        Hops already in flight toward the node are silently dropped on
        arrival; future broadcasts simply no longer fan out to it.
        """
        try:
            return self._nodes.pop(entity_id)
        except KeyError:
            raise MembershipError(f"unknown entity: {entity_id!r}") from None

    def node(self, entity_id: EntityId) -> SimNode:
        try:
            return self._nodes[entity_id]
        except KeyError:
            raise MembershipError(f"unknown entity: {entity_id!r}") from None

    @property
    def entity_ids(self) -> List[EntityId]:
        """All registered entity ids, in registration order."""
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    # -- transport -------------------------------------------------------------

    def unicast(
        self, source: EntityId, destination: EntityId, envelope: Envelope
    ) -> None:
        """Queue one hop from ``source`` to ``destination``."""
        if destination not in self._nodes:
            raise MembershipError(f"unknown destination: {destination!r}")
        if self._parked is None:
            self._transmit(source, destination, (envelope,))
        else:
            self._parked.setdefault((source, destination), []).append(envelope)

    def broadcast(self, source: EntityId, envelope: Envelope) -> None:
        """Queue one hop to every registered node, including the sender.

        Each hop samples latency and faults independently, so destinations
        generally observe broadcasts in different relative orders.
        """
        if self.trace.enabled:
            self.trace.record(
                self.scheduler.now,
                "send",
                source=source,
                msg_id=envelope.msg_id,
                operation=envelope.message.operation,
            )
        parked = self._parked
        for destination in self._nodes:
            if parked is None:
                self._transmit(source, destination, (envelope,))
            else:
                parked.setdefault((source, destination), []).append(envelope)

    def cork(self) -> None:
        """Park sends until the scheduler's next event, then frame them.

        For a caller that issues a burst of sends from *outside* the
        simulation, between two drives: what each source sends each
        destination while corked leaves as one frame, in send order, at
        the simulated instant it was sent.  The flush is itself a
        scheduler event at the current time, so whoever drives next
        flushes first and nothing can stay parked.  Idempotent.
        """
        if self._parked is None:
            self._parked = {}
            self.scheduler.call_now(self.flush)

    def flush(self) -> None:
        """Send everything parked since :meth:`cork`, one frame per link."""
        parked, self._parked = self._parked, None
        if parked:
            for (source, destination), envelopes in parked.items():
                self._transmit(source, destination, envelopes)

    def _transmit(
        self,
        source: EntityId,
        destination: EntityId,
        envelopes: Sequence[Envelope],
    ) -> None:
        """Send one frame: ``envelopes`` share the hop's whole fate.

        One crash check, one fault decision, one latency draw and one
        scheduler event, however many envelopes ride along — an ordinary
        hop is the frame of one.  The ``hops_*`` counters count envelopes.
        """
        origin = self._nodes.get(source)
        if origin is not None and origin.crashed:
            # A crashed node emits nothing (crash-stop); control agents
            # whose timers slipped past the node guards land here, and so
            # does whatever a node parked before it went down.
            self.hops_dropped += len(envelopes)
            return
        self.hops_sent += len(envelopes)
        self.frames_sent += 1
        copies, blocked = self.faults.decide(
            source, destination, self._fault_rng
        )
        if copies == 0:
            self.hops_dropped += len(envelopes)
            if self.trace.enabled:
                for envelope in envelopes:
                    self.trace.record(
                        self.scheduler.now,
                        "drop",
                        source=source,
                        destination=destination,
                        msg_id=envelope.msg_id,
                        blocked=blocked,
                    )
            return
        # With no service time a frame is taken the moment it lands.
        land = self._queue if self.service_time else self._arrive
        for _ in range(copies):
            delay = self.latency.sample(source, destination, self._latency_rng)
            self.scheduler.call_in(delay, land, source, destination, envelopes)

    def _queue(
        self,
        source: EntityId,
        destination: EntityId,
        envelopes: Sequence[Envelope],
    ) -> None:
        """A frame lands at a node with a positive ``service_time``: each
        envelope queues for the node on its own and arrives as a frame of
        one."""
        for envelope in envelopes:
            now = self.scheduler.now
            start = max(now, self._node_free_at.get(destination, 0.0))
            done = start + self.service_time
            self._node_free_at[destination] = done
            self.scheduler.call_at(
                done, self._arrive, source, destination, (envelope,)
            )

    def _arrive(
        self,
        source: EntityId,
        destination: EntityId,
        envelopes: Sequence[Envelope],
    ) -> None:
        """A frame lands: the node takes it whole, in send order.

        One crash check and one node lookup a frame, then the whole frame
        goes to :meth:`SimNode.on_frame <repro.sim.node.SimNode.on_frame>`,
        which takes the envelopes one by one and stops at a crash
        mid-frame: the rest are dropped, as hops to a crashed node are.
        """
        node = self._nodes.get(destination)
        if node is None or node.crashed:
            # Destination departed (or is down) while the hop was in
            # flight: crash-stop nodes receive nothing.
            self.hops_dropped += len(envelopes)
            return
        taken = node.on_frame(source, envelopes)
        self.hops_delivered += taken
        self.hops_dropped += len(envelopes) - taken
