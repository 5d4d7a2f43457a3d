"""A group of replicas over a causal-broadcast substrate, and its controls.

:class:`ReplicaGroup` is the unit the paper's model is built from
(Sections 2 and 6.1).  Per member it wires the complete stack the paper
assumes of its substrate — an ordering protocol, NACK/anti-entropy
recovery, stability-driven store compaction, view-synchronous membership
and a heartbeat failure detector whose suspicions become automatic
``leave`` proposals (so a crash mid-flush un-wedges itself) — on one
network, and owns what an operator can do to it: crash and restart,
partitions and loss, membership churn, and the one repair loop.

It records no ground truth and runs no campaign.  Which labels are
application data, and what they depended on, is the caller's knowledge:
:class:`~repro.chaos.cluster.ChaosCluster` keeps it per send,
:class:`~repro.shard.cluster.ShardedCluster` in its ledger.  Import it
from this module; the :mod:`repro.group` package does not re-export it.
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.broadcast import (
    ASendTotalOrder,
    CbcastBroadcast,
    FifoBroadcast,
    LamportTotalOrder,
    OSendBroadcast,
    RstBroadcast,
    SequencerTotalOrder,
    UnorderedBroadcast,
)
from repro.broadcast.gc import StabilityTracker
from repro.broadcast.recovery import RecoveryAgent
from repro.errors import (
    ConfigurationError,
    MembershipError,
    ProtocolError,
    SimulationError,
)
from repro.group.auto_membership import MembershipManager, manage_membership
from repro.group.membership import GroupMembership
from repro.group.view_sync import ViewSyncAgent, attach_view_sync
from repro.net.faults import FaultPlan
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceRecorder
from repro.types import EntityId, MessageId, Violation

#: Every protocol the repo ships, by name.  A group can only be built on
#: one that declares ``crash_eligible`` (its members get crashed and
#: restarted); ``asend`` opts out.
PROTOCOLS = {
    cls.protocol_name: cls
    for cls in (
        UnorderedBroadcast,
        FifoBroadcast,
        CbcastBroadcast,
        OSendBroadcast,
        RstBroadcast,
        LamportTotalOrder,
        SequencerTotalOrder,
        ASendTotalOrder,
    )
}

#: How many times a membership proposal, or a rejoining member's wake-up,
#: is retried one simulated second apart before it is given up.
MEMBERSHIP_RETRIES = 60

#: Safety cap per scheduler drain.  The event-driven protocol timers all
#: disarm themselves (recovery scans stop when nothing is chaseable,
#: flush checks ride delivery hooks), so a queue that does not empty
#: within the cap is a liveness bug, not a long run.
MAX_EVENTS_PER_DRAIN = 2_000_000


def drive(scheduler: Scheduler, until: Optional[float] = None) -> Optional[str]:
    """Run ``scheduler`` to quiescence, or to sim time ``until``.

    Tripping the event cap returns the error as a message (``None``
    means it quiesced) instead of raising, so the caller can report the
    livelock as a violation next to every other invariant.
    """
    try:
        if until is None:
            scheduler.run(MAX_EVENTS_PER_DRAIN)
        else:
            scheduler.run_until(until, MAX_EVENTS_PER_DRAIN)
    except SimulationError as exc:
        return str(exc)
    return None


def settle(
    cluster, max_rounds: int, converged: Callable[[], bool], repair: Callable[[], None]
) -> Tuple[List[Violation], int]:
    """Repair rounds until ``converged()`` or the round budget.

    What a round repairs and what counts as converged are the caller's;
    ``cluster`` owns the drive (``livelock``, ``drain()``) and reports who
    is stuck (``liveness_violation(rounds)``).  Returns the violations —
    a livelocked drive or non-convergence — and the rounds used.
    """
    for round_number in range(1, max_rounds + 1):
        if cluster.livelock is not None:
            return (
                [Violation(
                    "liveness",
                    None,
                    f"scheduler failed to quiesce: {cluster.livelock}",
                )],
                round_number - 1,
            )
        if converged():
            return [], round_number - 1
        repair()
        cluster.drain()
    if converged():
        return [], max_rounds
    return [cluster.liveness_violation(max_rounds)], max_rounds


class ReplicaGroup:
    """Fully equipped stacks on one network, plus their fault controls."""

    def __init__(
        self,
        protocol: str = "cbcast",
        members: Sequence[EntityId] = ("a", "b", "c", "d"),
        seed: int = 0,
        overlap: bool = False,
        auto_membership: bool = True,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        protocol_cls = PROTOCOLS.get(protocol)
        if protocol_cls is None:
            raise ConfigurationError(
                f"unknown protocol {protocol!r}; choose from {sorted(PROTOCOLS)}"
            )
        if not protocol_cls.crash_eligible:
            raise ConfigurationError(
                f"protocol {protocol!r} declares crash_eligible=False "
                "and cannot run in a group whose members crash and restart"
            )
        if len(members) < 2:
            raise ConfigurationError("a replica group needs >= 2 members")
        self.protocol_name = protocol
        self.members: Tuple[EntityId, ...] = tuple(members)
        # An external scheduler lets several groups share one simulated
        # timeline — each remains its own replication group on its own
        # network (`repro.shard` runs one group per shard this way).
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.faults = FaultPlan()
        # A group records no trace: campaigns are judged from protocol
        # state and ground truth, the server reads none, and every hop
        # would otherwise leave events behind that nothing reads.
        self.network = Network(
            self.scheduler,
            latency=UniformLatency(0.2, 1.8),
            faults=self.faults,
            rng=RngRegistry(seed),
            trace=TraceRecorder(enabled=False),
        )
        self.group = GroupMembership(self.members)
        self.stacks: Dict[EntityId, "BroadcastProtocol"] = {}
        for member in self.members:
            stack = protocol_cls(member, self.group)
            self.network.register(stack)
            self.stacks[member] = stack
        self.recoveries: Dict[EntityId, RecoveryAgent] = {}
        for member, stack in self.stacks.items():
            agent = RecoveryAgent(stack)
            agent.start()
            self.recoveries[member] = agent
        self.trackers: Dict[EntityId, StabilityTracker] = {
            member: StabilityTracker(stack)
            for member, stack in self.stacks.items()
        }
        self.view_syncs: Dict[EntityId, ViewSyncAgent] = attach_view_sync(
            self.stacks
        )
        #: Overlapping-disturbance mode: crashes are not deferred past
        #: in-flight flushes or other members' outages (beyond the
        #: two-up floor) — the failure detector is expected to repair
        #: whatever the overlap wedges.
        self.overlap = overlap
        self.managers: Dict[EntityId, MembershipManager] = {}
        if auto_membership:
            self.managers = manage_membership(
                self.stacks, self.view_syncs, suspicion_timeout=5.0
            )
        self.crashes = 0
        self.restarts = 0
        #: Latest crash time per member, for suspicion-delay and
        #: handoff-delay accounting.
        self.crash_log: Dict[EntityId, float] = {}
        #: Set when a scheduler drain trips the event cap: the repair
        #: machinery livelocked instead of quiescing.
        self.livelock: Optional[str] = None

    # -- fault controls ------------------------------------------------------

    def crash(self, member: EntityId) -> None:
        self.stacks[member].crash()
        self.crashes += 1
        self.crash_log[member] = self.scheduler.now

    def restart(self, member: EntityId) -> None:
        self.stacks[member].restart()
        self.restarts += 1

    def partition(self, *groups: Sequence[EntityId]) -> None:
        self.faults.partition(*groups)

    def heal(self) -> None:
        self.faults.heal()

    def set_loss(self, probability: float) -> None:
        self.faults.drop_probability = probability

    def set_duplicate(self, probability: float) -> None:
        self.faults.duplicate_probability = probability

    def clear_faults(self) -> None:
        """Heal every partition and switch loss and duplication off."""
        self.heal()
        self.set_loss(0.0)
        self.set_duplicate(0.0)

    # -- membership churn ----------------------------------------------------

    def _flushing(self) -> bool:
        return any(
            agent._pending_change is not None
            for agent in self.view_syncs.values()
        )

    def propose_with_retry(self, kind: str, entity: EntityId) -> None:
        """Propose ``kind``/``entity``, retrying while a flush is busy.

        Proposal goes through the first up-and-in-view member (other than
        ``entity``) with no pending change; if none qualifies right now,
        retry after a delay, up to ``MEMBERSHIP_RETRIES`` times.
        """

        def attempt(remaining: int) -> None:
            view = self.group.view
            if kind == "join" and entity in view:
                return
            if kind == "leave" and entity not in view:
                return
            proposer = next(
                (
                    m
                    for m in view.members
                    if m != entity
                    and not self.stacks[m].crashed
                    and self.view_syncs[m]._pending_change is None
                ),
                None,
            )
            if proposer is not None:
                try:
                    self.view_syncs[proposer].propose(kind, entity)
                    return
                except (ProtocolError, MembershipError):
                    pass
            if remaining > 0:
                self.scheduler.call_in(1.0, attempt, remaining - 1)

        attempt(MEMBERSHIP_RETRIES)

    def remove(self, member: EntityId) -> None:
        """Crash ``member`` and propose its removal from the view."""
        if not self.stacks[member].crashed:
            self.crash(member)
        self.propose_with_retry("leave", member)

    def rejoin(self, member: EntityId) -> None:
        """Propose re-adding ``member``; restart it once the join installs.

        The restart is deliberately deferred until the member is back in
        the view: a node that wakes *before* the join flush completes
        would receive in-flight old-view traffic whose ordering metadata
        does not account for it (the RST sent-matrix records owed counts
        per *view member*).
        """
        self.propose_with_retry("join", member)

        def wake(remaining: int) -> None:
            if member in self.group.view:
                if self.stacks[member].crashed:
                    self.restart(member)
                return
            if remaining > 0:
                self.scheduler.call_in(1.0, wake, remaining - 1)

        self.scheduler.call_in(1.0, wake, MEMBERSHIP_RETRIES)

    # -- scripted faults -----------------------------------------------------

    def apply_fault(self, action: str, arg: object) -> None:
        """Apply one scripted fault (a campaign event's action and arg)."""
        if action == "crash":
            self._crash_when_safe(arg)
        elif action == "restart":
            if self.stacks[arg].crashed:
                if arg in self.group.view:
                    self.restart(arg)
                else:
                    # The failure detector already removed this plainly
                    # crashed member; it must come back through a join
                    # flush, not wake inside a view it is no longer in.
                    self.rejoin(arg)
        elif action == "remove":
            self.remove(arg)
        elif action == "rejoin":
            self.rejoin(arg)
        elif action == "partition":
            self.partition(*arg)
        elif action == "heal":
            self.heal()
        elif action == "loss":
            self.set_loss(arg)
        elif action == "dup":
            self.set_duplicate(arg)

    def _crash_when_safe(self, member: EntityId, attempts: int = 50) -> None:
        """Crash ``member``, deferring only as far as the mode requires.

        Serial mode keeps at most one member down and never kills a
        member mid-flush; the runner enforces both by deferring the
        crash, bounded so a wedged flush cannot postpone it forever — it
        is dropped instead.  Overlap mode crashes straight into in-flight
        flushes and other members' outages (the failure detector is the
        repair path) and defers only for the two-up floor, below which no
        flush quorum could ever re-form.
        """
        others_up = sum(1 for m in self.up_members() if m != member)
        if self.overlap:
            safe = others_up >= 2
        else:
            safe = others_up == len(self.stacks) - 1 and not self._flushing()
        if safe:
            if not self.stacks[member].crashed:
                self.crash(member)
        elif attempts > 0:
            self.scheduler.call_in(1.0, self._crash_when_safe, member, attempts - 1)

    # -- repair --------------------------------------------------------------

    def drain(self, until: Optional[float] = None) -> None:
        """Run the scheduler to quiescence (or to sim time ``until``),
        recording a livelock if any; a livelocked group stays put."""
        if self.livelock is None:
            self.livelock = drive(self.scheduler, until)

    def up_members(self) -> List[EntityId]:
        return [m for m, stack in self.stacks.items() if not stack.crashed]

    def serving(self) -> List[EntityId]:
        """The members that are up and in the current view."""
        return [stack.entity_id for stack in self.senders()]

    def senders(
        self, preferred: Optional[EntityId] = None
    ) -> Iterator["BroadcastProtocol"]:
        """The stacks of the `serving` members, ``preferred`` first if it
        serves, lazily: a send the first one takes looks at no other."""
        view = self.group.view.members
        first = self.stacks.get(preferred)  # type: ignore[arg-type]
        if first is not None and preferred in view and not first.crashed:
            yield first
        for member, stack in self.stacks.items():
            if member != preferred and member in view and not stack.crashed:
                yield stack

    def _restart_in_view(self) -> None:
        for member, stack in self.stacks.items():
            if stack.crashed and member in self.group.view:
                self.restart(member)

    def revive(self) -> None:
        """Restart crashed in-view members; rejoin the evicted ones."""
        self._restart_in_view()
        for member in self.members:
            if member not in self.group.view:
                self.rejoin(member)

    def repair_membership(self) -> None:
        """Undo membership damage that surfaced after ``revive`` ran.

        A deferred leave can install *during* settling (its proposal was
        queued behind the tie-break winner), evicting a member that
        ``revive`` already brought back; runs must end with the full
        group, so re-propose the join and restart anyone crashed yet
        still in the view.
        """
        self._restart_in_view()
        # Re-announce wedged flushes: a participant that crashed mid-flush
        # forgot it was flushing, and the others' bounded FLUSH_OK resends
        # may be long exhausted.  The nudge makes the amnesiac adopt the
        # change and makes everyone who already flushed re-send one
        # FLUSH_OK — both idempotent.
        for agent in self.view_syncs.values():
            if agent._pending_change is not None and not agent.protocol.crashed:
                agent.nudge()
        for member in self.members:
            if member in self.group.view:
                continue
            join_in_flight = any(
                agent._pending_change is not None
                and agent._pending_change.kind == "join"
                and agent._pending_change.entity == member
                for agent in self.view_syncs.values()
            )
            if not join_in_flight:
                self.rejoin(member)

    def repair_round(self) -> None:
        """One anti-entropy digest, which carries the settled prefix too,
        from every up member (the caller drains the scheduler)."""
        for member in self.up_members():
            self.recoveries[member].anti_entropy_round()

    def settled(
        self, member: EntityId, labels: Collection[MessageId]
    ) -> Set[MessageId]:
        """Which of ``labels`` ``member`` delivered or skip-settled."""
        return set(filter(self.stacks[member].has_settled, labels))

    def converged(self, labels: Collection[MessageId]) -> bool:
        """Full view, nobody down or flushing, and every member has
        settled the same subset of ``labels`` with none held back."""
        if frozenset(self.group.view.members) != frozenset(self.members):
            return False
        if any(stack.crashed for stack in self.stacks.values()):
            return False
        if self._flushing():
            return False
        settled = [self.settled(member, labels) for member in self.members]
        if any(each != settled[0] for each in settled):
            return False
        return not any(
            e.msg_id in labels
            for stack in self.stacks.values()
            for e in stack.holdback_envelopes
        )
