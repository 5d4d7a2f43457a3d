"""Failure-driven membership: detector suspicion → view change.

Glues the :class:`~repro.group.failure_detector.HeartbeatFailureDetector`
to the :class:`~repro.group.view_sync.ViewSyncAgent`: each member
broadcasts periodic heartbeats; when a member falls silent past the
detector's timeout, the lowest-ranked *live* member proposes its removal
and the flush protocol installs the shrunken view (the departed member is
excluded from the flush quorum).

This closes the loop the paper leaves to the group substrate: the
computation keeps running, with stable points and consistency intact,
after a member crashes.  Three properties make it robust enough for the
chaos campaigns:

* **The monitored set tracks the view.**  The manager subscribes to view
  installs: joiners are monitored from the moment they enter (grace clock
  starting at the install), removed members are forgotten instead of
  staying suspected forever.
* **Proposals survive in-flight flushes.**  A removal is proposed with
  ``force=True``: the view-sync tie-break serialises it against whatever
  flush is running, and leaves win — which is exactly what unblocks a
  flush stuck waiting on the crashed member's FLUSH_OK.
* **A deterministic fallback proposer.**  Only the lowest-ranked live
  member proposes, but each live member schedules its own re-check at
  ``rank × fallback_delay``: if the primary proposer crashes before its
  proposal lands, its own re-check timer dies with it (crash-guarded),
  the next-lowest member's timer finds the suspect still present and
  proposes instead.  Re-checks repeat (bounded) until the suspect leaves
  the view or speaks again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.group.failure_detector import HeartbeatFailureDetector
from repro.group.membership import GroupView
from repro.group.view_sync import ViewSyncAgent
from repro.types import Envelope, EntityId, Message, MessageIdAllocator

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from repro.broadcast.base import BroadcastProtocol

HEARTBEAT_OPERATION = "__heartbeat__"

#: Bounded re-checks per suspicion: enough for every fallback rank plus
#: retries across superseding flushes, small enough to terminate runs.
MAX_PROPOSAL_ATTEMPTS = 10


class MembershipManager:
    """Heartbeats + suspicion + automatic leave proposal for one member."""

    operations = (HEARTBEAT_OPERATION,)

    def __init__(
        self,
        protocol: "BroadcastProtocol",
        view_sync: ViewSyncAgent,
        heartbeat_interval: float = 1.0,
        suspicion_timeout: float = 4.0,
        fallback_delay: Optional[float] = None,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ProtocolError("heartbeat_interval must be positive")
        self.protocol = protocol
        self.view_sync = view_sync
        self.heartbeat_interval = heartbeat_interval
        # How long a live member at fallback rank r waits before checking
        # whether the removal it expected has happened (r × delay).
        self.fallback_delay = (
            fallback_delay if fallback_delay is not None else suspicion_timeout
        )
        self._allocator = MessageIdAllocator(f"{protocol.entity_id}!hb")
        others = [
            m
            for m in protocol.group.view.members
            if m != protocol.entity_id
        ]
        self.detector = HeartbeatFailureDetector(
            protocol.scheduler,
            others,
            timeout=suspicion_timeout,
            # The tick re-arms off the raw scheduler (it must survive our
            # crash), but a crashed member must not accrue suspicions.
            active=lambda: not protocol.crashed,
        )
        self.detector.subscribe(self._on_suspicion)
        self._running = False
        self._deadline: Optional[float] = None
        self.removals_proposed = 0
        #: Durable audit: (suspect, time first suspected this episode);
        #: the chaos harness derives suspicion latency from it.
        self.suspicion_log: List[Tuple[EntityId, float]] = []
        protocol.add_interceptor(self)
        protocol.group.subscribe(self._on_view_installed)

    # -- lifecycle ----------------------------------------------------------

    def start(self, duration: float) -> None:
        """Heartbeat (and monitor) for ``duration`` simulated time.

        Bounded so simulations terminate; production deployments would
        run unbounded.
        """
        if self._running:
            return
        self._running = True
        self._deadline = self.protocol.scheduler.now + duration
        self.detector.start()
        self._arm_beat()
        # The stop must fire even if we are crashed at the deadline —
        # otherwise the detector tick re-arms forever and the scheduler
        # never quiesces — so it bypasses the crash guard.
        self.protocol.scheduler.call_in(duration, self._stop)

    def _stop(self) -> None:
        self._running = False
        self.detector.stop()

    def _arm_beat(self) -> None:
        # Crash-guarded self-rearming chain: it dies with a crash (a
        # crashed member is silent, which is the point) and is re-armed
        # by `reset_volatile` when the member restarts.
        self.protocol.call_in(self.heartbeat_interval, self._tick_beat)

    def _tick_beat(self) -> None:
        if not self._running:
            return
        self._beat()
        self._arm_beat()

    def _beat(self) -> None:
        if self.protocol.entity_id not in self.protocol.group.view:
            return  # removed members have no business heartbeating
        message = Message(
            self._allocator.next_id(), HEARTBEAT_OPERATION, None
        )
        self.protocol.network.broadcast(
            self.protocol.entity_id, Envelope(message)
        )

    def reset_volatile(self) -> None:
        """Re-seed the detector and heartbeat chain after a restart.

        Interceptor hook, called by the chassis's restart path.  The
        detector's silence clocks are amnesiac state — every peer gets a
        fresh grace period — and the crash killed the guarded heartbeat
        chain, so restart it if the manager is still within its run.
        """
        self.detector.reset_clocks()
        self._sync_monitored(self.protocol.group.view)
        if self._running and (
            self._deadline is None
            or self.protocol.scheduler.now < self._deadline
        ):
            self._arm_beat()

    # -- monitored-set maintenance -------------------------------------------

    def _on_view_installed(self, view: GroupView) -> None:
        self._sync_monitored(view)

    def _sync_monitored(self, view: GroupView) -> None:
        wanted = {m for m in view.members if m != self.protocol.entity_id}
        for entity in wanted:
            self.detector.monitor(entity)
        for entity in self.detector.monitored - wanted:
            self.detector.forget(entity)

    # -- control plane ---------------------------------------------------------

    def intercept(self, sender: EntityId, envelope: Envelope) -> None:
        if sender != self.protocol.entity_id and self.detector.is_monitored(
            sender
        ):
            self.detector.heartbeat(sender)

    # -- suspicion handling -------------------------------------------------------

    def _live_members(self) -> list:
        return [
            m
            for m in self.protocol.group.view.members
            if m == self.protocol.entity_id or not self.detector.is_suspected(m)
        ]

    def _on_suspicion(self, suspect: EntityId) -> None:
        if self.protocol.crashed:
            return
        if suspect not in self.protocol.group.view:
            return
        self.suspicion_log.append((suspect, self.protocol.scheduler.now))
        self._propose_or_fallback(suspect, MAX_PROPOSAL_ATTEMPTS)

    def _propose_or_fallback(self, suspect: EntityId, attempts: int) -> None:
        """Propose the removal if we lead, else stand by as fallback.

        The lowest-ranked live member proposes immediately; every other
        live member schedules a re-check at ``rank × fallback_delay``.
        All re-check timers are crash-guarded, so a proposer that crashes
        mid-removal silently drops out and the next-lowest survivor's
        timer — which finds the suspect still in the view — takes over.
        The proposer itself also re-checks (its proposal could lose a
        tie-break whose winner does not remove the suspect).
        """
        if not self._running or attempts <= 0:
            return
        if self.protocol.crashed:
            return
        if self.protocol.entity_id not in self.protocol.group.view:
            return  # we were removed ourselves (e.g. partitioned away)
        if suspect not in self.protocol.group.view:
            return  # removal already installed
        if not self.detector.is_suspected(suspect):
            return  # the suspect spoke; stand down
        live = self._live_members()
        rank = live.index(self.protocol.entity_id)
        if rank == 0:
            self._propose_removal(suspect)
            delay = self.fallback_delay
        else:
            delay = rank * self.fallback_delay
        self.protocol.call_in(
            delay, self._propose_or_fallback, suspect, attempts - 1
        )

    def _propose_removal(self, suspect: EntityId) -> None:
        pending = self.view_sync._pending_change
        in_flight = (
            pending is not None
            and pending.kind == "leave"
            and pending.entity == suspect
        ) or any(
            change.kind == "leave" and change.entity == suspect
            for change in self.view_sync._deferred
        )
        if in_flight:
            return  # already proposed (by us or a peer); let it flush
        self.removals_proposed += 1
        self.view_sync.propose("leave", suspect, force=True)


def manage_membership(
    protocols: Dict[EntityId, "BroadcastProtocol"],
    view_sync_agents: Dict[EntityId, ViewSyncAgent],
    heartbeat_interval: float = 1.0,
    suspicion_timeout: float = 4.0,
    fallback_delay: Optional[float] = None,
) -> Dict[EntityId, MembershipManager]:
    """One manager per member (does not start them)."""
    return {
        entity: MembershipManager(
            protocol,
            view_sync_agents[entity],
            heartbeat_interval=heartbeat_interval,
            suspicion_timeout=suspicion_timeout,
            fallback_delay=fallback_delay,
        )
        for entity, protocol in protocols.items()
    }
