"""N replication groups, one simulated timeline, one object space.

:class:`ShardedCluster` composes one
:class:`~repro.group.replica_group.ReplicaGroup` per shard — each its
own ``OSend`` causal-broadcast group with recovery, GC, view-sync and
auto-membership, on its own network — all sharing a single
:class:`~repro.sim.scheduler.Scheduler`.  No ordering machinery spans
groups: cross-shard causality travels only as explicit ``Occurs-After``
ancestors injected by the session layer (:mod:`repro.shard.router`) and
as audit-only ``cross_deps`` stamps, which is exactly the paper's bet —
application-declared precedence needs no system-wide clocks.

The groups hold replicas and nothing else; the cluster's ledger
(:mod:`repro.shard.ledger`) is the only ground truth: every issued
operation, its dependency sets, and the global dependency graph over
both edge kinds.  On top of that ride the barrier reads
(:mod:`repro.shard.barrier`), slot moves (:mod:`repro.shard.rebalance`)
and the post-campaign audit, all derived from the ledger: one
:class:`~repro.analysis.invariants.InvariantMonitor` battery per group
plus the cross-shard causal-consistency check
(:class:`~repro.analysis.invariants.CrossShardChecker`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.invariants import InvariantMonitor, Violation
from repro.chaos.campaign import ChaosCampaign, ChaosEvent
from repro.errors import ConfigurationError, ProtocolError
from repro.group.replica_group import ReplicaGroup, drive, settle
from repro.shard.frontier import FrontierTracker
from repro.shard.ledger import Ledger
from repro.shard.map import ShardMap
from repro.shard.rebalance import Rebalancer
from repro.shard.router import ShardRouter
from repro.sim.scheduler import Scheduler
from repro.types import EntityId, MessageId


@dataclass
class ShardedResult:
    """Outcome of one sharded campaign run."""

    name: str
    shards: int
    violations: List[Violation]
    ops: int
    ops_skipped: int
    reads: int
    reads_failed: int
    rebalances: int
    rebalances_aborted: int
    crashes: int
    restarts: int
    data_messages: int
    settle_rounds: int
    sim_time: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        return (
            f"{self.name:<16s} shards={self.shards} {status:<16s} "
            f"ops={self.ops} skipped={self.ops_skipped} "
            f"reads={self.reads}/{self.reads + self.reads_failed} "
            f"moves={self.rebalances}"
            + (f"(-{self.rebalances_aborted})" if self.rebalances_aborted else "")
            + f" crashes={self.crashes} settle_rounds={self.settle_rounds} "
            f"t={self.sim_time:.1f}"
        )


class ShardedCluster:
    """A sharded object space over independent causal-broadcast groups."""

    def __init__(
        self,
        shards: int = 2,
        members_per_shard: int = 3,
        seed: int = 0,
        *,
        hop_events: str = "full",
    ) -> None:
        if shards < 1:
            raise ConfigurationError("a sharded cluster needs >= 1 shard")
        self.scheduler = Scheduler()
        self.shard_map = ShardMap(shards, num_slots=16)
        self.shard_ids: Tuple[int, ...] = tuple(range(shards))
        self.groups: Dict[int, ReplicaGroup] = {}
        self.shard_of_member: Dict[EntityId, int] = {}
        for shard in self.shard_ids:
            members = tuple(
                f"s{shard}n{index}" for index in range(members_per_shard)
            )
            # Distinct derived seeds: each group gets its own RNG registry
            # (shared streams would entangle the shards' latency draws).
            group = ReplicaGroup(
                protocol="osend",
                members=members,
                seed=seed * 1_000_003 + shard,
                scheduler=self.scheduler,
                hop_events=hop_events,
            )
            self.groups[shard] = group
            for member in members:
                self.shard_of_member[member] = shard
        #: The ground truth: every issued operation and everything derived
        #: from it (see repro.shard.ledger).
        self.ledger = Ledger(self.shard_ids)
        self.graph = self.ledger.graph
        #: label -> callbacks fired on its first delivery anywhere.
        self._watchers: Dict[MessageId, List[Callable[[EntityId], None]]] = {}
        #: member -> running maximal frontier of its settled ledger
        #: labels, maintained incrementally by the delivery hook (via
        #: :class:`~repro.shard.frontier.FrontierTracker`) so
        #: `delivered_frontier` is O(frontier) instead of a maximal scan
        #: over the member's whole delivered history.
        self._frontiers: Dict[EntityId, FrontierTracker] = {}
        #: member -> `_settled_version` the frontier was last synced at; a
        #: mismatch means `_delivered_ids` mutated outside delivery
        #: (restart wipe, stable-prefix skip, state transfer) and the
        #: frontier must be rebuilt from scratch.
        self._frontier_sync: Dict[EntityId, int] = {}
        #: Members whose frontier is maintained incrementally by the
        #: delivery hook.  Only queried members (the per-shard contacts,
        #: in practice) pay the per-delivery frontier update; the rest
        #: join on their first `delivered_frontier` query with one
        #: rebuild from their settled set.
        self._frontier_active: Set[EntityId] = set()
        for shard, group in self.groups.items():
            for member, stack in group.stacks.items():
                self._frontiers[member] = FrontierTracker(
                    self.ledger.precedes, self.ledger.index_of
                )
                self._frontier_sync[member] = stack._settled_version
                stack.on_deliver(self._delivery_hook(member, shard))
        self.router = ShardRouter(self)
        self.rebalancer = Rebalancer(self)
        #: shard -> round-robin cursor of `read_replica`.
        self._read_cursor: Dict[int, int] = {}
        #: `read_replica` calls that found no member to serve.
        self.read_misses = 0
        self.barriers_started = 0
        self.reads_failed = 0
        #: Set when a drain trips the event cap (see ``drive``).
        self.livelock: Optional[str] = None

    # -- delivery plumbing -------------------------------------------------

    def _delivery_hook(self, member: EntityId, shard: int):
        tracker = self._frontiers[member]
        data_labels = self.ledger.labels(shard)
        active = self._frontier_active

        def hook(envelope) -> None:
            label = envelope.msg_id
            if label in data_labels and member in active:
                # Incremental maximal: causal delivery means no in-group
                # ancestor of `label` arrives after it, so `label` either
                # shadows frontier members (via its global causal past) or
                # is itself shadowed by one that got here first through a
                # cross-shard edge (see repro.shard.frontier for why the
                # issue-index guard makes this sound).
                tracker.note(label)
            watchers = self._watchers.pop(label, None)
            if watchers:
                for watcher in watchers:
                    watcher(member)

        return hook

    def watch(
        self, label: MessageId, callback: Callable[[EntityId], None]
    ) -> None:
        """Invoke ``callback`` on ``label``'s first delivery anywhere.

        Fires immediately if some member of the label's group already
        settled it (delivered, or skip-settled via a stable prefix).
        """
        shard = self.ledger.shard_of(label)
        for member, stack in self.groups[shard].stacks.items():
            if label in stack._delivered_ids:
                callback(member)
                return
        self._watchers.setdefault(label, []).append(callback)

    # -- sending -----------------------------------------------------------

    def shard_send(
        self,
        shard: int,
        kind: str,
        payload: object,
        *,
        occurs_after: Iterable[MessageId],
        cross_deps: Iterable[MessageId],
        session: Optional[str],
        key: Optional[str] = None,
        slot: Optional[int] = None,
        preferred: Optional[EntityId] = None,
    ) -> Optional[MessageId]:
        """Broadcast one operation in ``shard``'s group and record it.

        Tries each up, in-view member (``preferred`` first) until one
        accepts the send; returns ``None`` if none can right now (all
        crashed, evicted, or flush-frozen) — callers retry on a timer.

        Issued while the scheduler is idle (a serving cycle's puts, an
        example's or a test's, back to back before one ``drain()``), the
        send is corked: everything a member sends a peer before the next
        drive leaves as one frame, in send order
        (:meth:`~repro.net.network.Network.cork`).  Sends issued from
        inside a drive — campaign ops, barrier rounds, retries — go out
        hop by hop as they always did.
        """
        group = self.groups[shard]
        if not self.scheduler.running:
            group.network.cork()
        deps = frozenset(occurs_after)
        cross = frozenset(cross_deps)
        self.ledger.check_stamp(shard, deps, cross)
        order = group.serving()
        if preferred in order:
            order.remove(preferred)
            order.insert(0, preferred)
        for member in order:
            try:
                label = group.stacks[member].bcast(
                    kind, payload, occurs_after=deps, cross_deps=cross
                )
            except ProtocolError:
                # Flush-frozen: try the next member.
                continue
            self.ledger.record(
                label, shard=shard, kind=kind, key=key, slot=slot,
                value=payload, deps=deps, cross_deps=cross, session=session,
            )
            return label
        return None

    # -- causal-order utilities -------------------------------------------

    def maximal(self, labels: Iterable[MessageId]) -> FrozenSet[MessageId]:
        """Prune ``labels`` to its maximal elements under the graph."""
        return self.ledger.maximal(labels)

    def project(
        self, labels: Iterable[MessageId], shard: int
    ) -> FrozenSet[MessageId]:
        """``labels``' transitive causal past, restricted to ``shard``."""
        return self.ledger.project(labels, shard)

    def _lagging(self, shard: int, member: EntityId) -> bool:
        """Is ``member`` an amnesiac — settled prefix empty of data?

        A just-restarted replica whose state transfer has not landed yet
        has wiped `_delivered_ids`; until anti-entropy refills it, the
        member has delivered *none* of the group's data labels.  The
        `isdisjoint` is O(1) expected for a healthy member (its first
        settled label hits) and cheap for an amnesiac (small settled
        set scanned against the data-label set).  A reference question,
        kept for ``contact`` and ``bench/replay.py``: the server's rule
        is `read_replica`, which decides it inline.
        """
        labels = self.ledger.labels(shard)
        if not labels:
            return False
        stack = self.groups[shard].stacks[member]
        return stack._delivered_ids.isdisjoint(labels)

    def contact(self, shard: int) -> Optional[EntityId]:
        """The first up, in-view, non-amnesiac member of ``shard``, if any.

        Falls back to the first up in-view member when every candidate
        is amnesiac (a freshly restarted group still needs *a* contact
        to rebuild through).
        """
        serving = self.groups[shard].serving()
        for member in serving:
            if not self._lagging(shard, member):
                return member
        return serving[0] if serving else None

    def read_members(self, shard: int) -> List[EntityId]:
        """Members of ``shard`` eligible to serve replica reads.

        Up, in-view, and caught up past amnesia; when *every* up member
        is amnesiac they are all returned (the coverage gate still
        protects correctness — an empty settled set covers nothing).  A
        reference question, kept for ``bench/replay.py``: the server's
        rule is `read_replica`, which decides it inline.
        """
        serving = self.groups[shard].serving()
        fresh = [m for m in serving if not self._lagging(shard, m)]
        return fresh or serving

    def covers(
        self, shard: int, member: EntityId, labels: Iterable[MessageId]
    ) -> bool:
        """Has ``member`` settled every label in ``labels``?

        The replica-read eligibility gate: a member may serve a session's
        read of a shard iff it has delivered the session frontier's
        projection onto that shard (plus any migration handoff).  Checked
        against the raw settled set — no frontier activation, no closure
        walks — so probing many members stays cheap.  A reference
        question, kept for ``bench/replay.py``: the server's rule is
        `read_replica`, which decides it inline.
        """
        delivered = self.groups[shard].stacks[member]._delivered_ids
        return all(label in delivered for label in labels)

    def member_read(
        self, shard: int, member: EntityId, key: str
    ) -> Tuple[Optional[object], Optional[MessageId]]:
        """``key``'s newest write ``member`` has settled, as (value, label)."""
        return self.ledger.newest_settled_write(
            shard, key, self.groups[shard].stacks[member]._delivered_ids
        )

    def read_replica(
        self, shard: int, floor: Collection[MessageId]
    ) -> Optional[EntityId]:
        """The member that serves the next read of ``shard`` under ``floor``.

        The one selection rule, in one pass over the members: round-robin
        on the shard's cursor over the `read_members` that `covers` the
        floor, so reads spread over every covering copy and a lagging
        replica stays inside the audited read set.  ``None`` (a read
        miss) while no up member covers the floor.
        """
        group = self.groups[shard]
        view, labels = group.group.view.members, self.ledger.labels(shard)
        eligible: List[EntityId] = []
        amnesiacs: List[EntityId] = []
        fresh = False
        for member, stack in group.stacks.items():
            if stack.crashed or member not in view:
                continue
            settled = stack._delivered_ids
            amnesiac = labels and settled.isdisjoint(labels)
            fresh = fresh or not amnesiac
            if settled.issuperset(floor):
                (amnesiacs if amnesiac else eligible).append(member)
        if not fresh:
            # Every up, in-view member is amnesiac: any that covers serves.
            eligible = amnesiacs
        if not eligible:
            self.read_misses += 1
            return None
        cursor = self._read_cursor.get(shard, 0)
        self._read_cursor[shard] = cursor + 1
        return eligible[cursor % len(eligible)]

    def delivered_frontier(
        self, shard: int, member: EntityId
    ) -> FrozenSet[MessageId]:
        """Maximal ledger labels ``member`` has settled in its group."""
        stack = self.groups[shard].stacks[member]
        tracker = self._frontiers[member]
        version = stack._settled_version
        if member not in self._frontier_active:
            # First query for this member: the delivery hook has been
            # skipping its frontier, so activate it and force a rebuild.
            self._frontier_active.add(member)
            self._frontier_sync[member] = version - 1
        if self._frontier_sync[member] != version:
            # `_delivered_ids` mutated outside delivery (restart wipe,
            # stable-prefix skip, state transfer) or the member was just
            # activated: the incremental frontier is stale, so rebuild it
            # from the full settled set — delivered ∪ skip-settled — and
            # resync.  `maximal` is one mask scan; the tracker adopts its
            # result as-is.
            ledger = self.ledger
            tracker.reset({
                label: ledger.index_of(label)
                for label in ledger.maximal(
                    stack._delivered_ids & ledger.labels(shard)
                )
            })
            self._frontier_sync[member] = version
        return tracker.labels()

    def gauges(self) -> Dict[str, int]:
        """What the ``stats`` verb samples on demand: graph and transport.

        ``graph_nodes`` (the ledger's dependency graph) grows with the
        ops served; ``graph_closures`` / ``graph_closure_kb`` count its
        memoised reachability closures and what they hold.  The members'
        graphs are not sampled: each is a view derived when asked, and a
        probe must not be what builds six of them.  ``net_envelopes`` and
        ``net_frames`` are the envelopes sent over every group's network
        and the hops that carried them (their ratio is the packing
        factor: about 30 when cycles are full, 1 at depth 1);
        ``holdback_peak`` is the deepest hold-back queue any member has
        seen; ``read_misses`` counts the gets `read_replica` found no
        member for, one per attempt.  Walks each cache: meant for a
        ``stats`` request, not for the per-op path.
        """
        groups = self.groups.values()
        stacks = [stack for g in groups for stack in g.stacks.values()]
        closures, closure_bytes = self.graph.closure_footprint()
        return {
            "graph_nodes": len(self.graph),
            "graph_closures": closures,
            "graph_closure_kb": closure_bytes // 1024,
            "net_frames": sum(g.network.frames_sent for g in groups),
            "net_envelopes": sum(g.network.hops_sent for g in groups),
            "holdback_peak": max(stack.max_holdback for stack in stacks),
            "read_misses": self.read_misses,
        }

    # -- campaign execution ------------------------------------------------

    def _apply_sharded(self, event: ChaosEvent) -> None:
        action = event.action
        if action == "op":
            session, key, value = event.arg
            self.router.session(session).put(key, value)
        elif action == "read":
            session, shards = event.arg
            self.router.session(session).read(shards)
        elif action == "rebalance":
            slot, dest = event.arg
            self.rebalancer.move_slot(slot, dest)
        else:
            shard, arg = event.arg
            self.groups[shard].apply_fault(action, arg)

    def run_campaign(
        self,
        campaign: ChaosCampaign,
        max_settle_rounds: int = 80,
        check_invariants: bool = True,
    ) -> ShardedResult:
        """Execute ``campaign``, drive repair to convergence, audit."""
        for group in self.groups.values():
            for manager in group.managers.values():
                manager.start(campaign.duration)
        for event in campaign.events:
            self.scheduler.call_at(event.time, self._apply_sharded, event)
        self.drain(until=campaign.duration)
        # End-of-campaign cleanup across every group.
        for group in self.groups.values():
            group.clear_faults()
        self.drain()
        for group in self.groups.values():
            group.revive()
        self.drain()
        violations, rounds = self.settle(max_settle_rounds)
        if check_invariants:
            violations = violations + self.check_invariants()
        sessions = self.router.sessions.values()
        moves = self.rebalancer.moves
        return ShardedResult(
            name=campaign.name,
            shards=len(self.shard_ids),
            violations=violations,
            ops=sum(s.ops_issued for s in sessions),
            ops_skipped=sum(s.ops_skipped for s in sessions),
            reads=len(self.ledger.barrier_reads),
            reads_failed=self.reads_failed,
            rebalances=sum(1 for m in moves if m.phase == "done"),
            rebalances_aborted=sum(1 for m in moves if m.phase == "aborted"),
            crashes=sum(g.crashes for g in self.groups.values()),
            restarts=sum(g.restarts for g in self.groups.values()),
            data_messages=len(self.ledger),
            settle_rounds=rounds,
            sim_time=self.scheduler.now,
        )

    def drain(self, until: Optional[float] = None) -> None:
        """Run the shared scheduler to quiescence, or to sim time ``until``."""
        if self.livelock is None:
            self.livelock = drive(self.scheduler, until)

    # -- repair-to-convergence --------------------------------------------

    def converged(self) -> bool:
        if any(
            not group.converged(self.ledger.labels(shard))
            for shard, group in self.groups.items()
        ):
            return False
        if self.router.busy():
            return False
        if self.rebalancer.active():
            return False
        return True

    def settle(self, max_rounds: int = 80) -> Tuple[List[Violation], int]:
        """Repair rounds (per group) until global convergence.

        Convergence additionally requires the session layer to be idle:
        every queued write issued or dropped, every barrier read
        completed or aborted, no slot frozen — liveness of the *sharded*
        machinery is audited, not just of each group.
        """
        return settle(self, max_rounds, self.converged, self._repair)

    def _repair(self) -> None:
        for group in self.groups.values():
            group.repair_membership()
            group.repair_round()
        self.router.kick()

    def liveness_violation(self, rounds: int) -> Violation:
        report = []
        for shard, group in self.groups.items():
            if not group.converged(self.ledger.labels(shard)):
                view = group.group.view
                report.append(
                    f"shard {shard} not converged "
                    f"(view={view.view_id}:{','.join(view.members)})"
                )
        report.extend(self.router.stuck_report())
        if self.rebalancer.active():
            report.append("rebalance in flight")
        return Violation(
            "liveness",
            None,
            f"no convergence after {rounds} repair rounds "
            f"({'; '.join(report)})",
        )

    # -- auditing ----------------------------------------------------------

    def check_invariants(self) -> List[Violation]:
        """Per-group batteries, cross-shard CC, snapshot and routing audits."""
        violations: List[Violation] = []
        for shard, group in self.groups.items():
            # The single-group battery, fed from the ledger: a record's
            # in-group ``Occurs-After`` set is its dependency set.
            violations.extend(InvariantMonitor(
                group.stacks,
                dependencies=self.ledger.dependencies(shard),
                data_labels=self.ledger.labels(shard),
                view_syncs=group.view_syncs,
                trackers=group.trackers,
                expected_members=group.members,
            ).check_all())
        protocols = {
            m: s for g in self.groups.values() for m, s in g.stacks.items()
        }
        ledger = self.ledger
        violations.extend(ledger.check_cross_shard(protocols, self.shard_of_member))
        violations.extend(ledger.check_snapshot_closure())
        violations.extend(ledger.check_routing(self.rebalancer.moves))
        return violations
