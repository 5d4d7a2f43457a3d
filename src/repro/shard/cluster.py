"""N replication groups, one simulated timeline, one object space.

:class:`ShardedCluster` composes one
:class:`~repro.group.replica_group.ReplicaGroup` per shard — each its
own ``OSend`` causal-broadcast group with recovery, GC, view-sync and
auto-membership, on its own network — all sharing a single
:class:`~repro.sim.scheduler.Scheduler`.  No ordering machinery spans
groups: cross-shard causality travels only as explicit ``Occurs-After``
ancestors injected by the session layer (:mod:`repro.shard.router`), with
the foreign labels themselves filed as audit-only ``cross_deps`` in the
ledger, never on an envelope — which is exactly the paper's bet:
application-declared precedence needs no system-wide clocks.

The groups hold replicas and nothing else; the cluster's ledger
(:mod:`repro.shard.ledger`) is the only ground truth: every issued
operation, its dependency sets, and the global dependency graph over
both edge kinds.  On top of that ride the barrier reads
(:mod:`repro.shard.barrier`), slot moves (:mod:`repro.shard.rebalance`)
and the post-campaign audit, all derived from the ledger: one
:class:`~repro.analysis.invariants.InvariantMonitor` battery per group
plus the cross-shard causal-consistency check
(:class:`~repro.analysis.invariants.CrossShardChecker`).  The audit
batteries load when an audit runs, not with the cluster: a serving
process pays for them only at its drain audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Collection, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.broadcast.base import covering
from repro.broadcast.cut import Cut
from repro.errors import ConfigurationError, ProtocolError
from repro.graph.depgraph import DependencyGraph
from repro.group.replica_group import ReplicaGroup, drive, settle
from repro.shard.ledger import Ledger
from repro.shard.map import ShardMap
from repro.shard.rebalance import Rebalancer
from repro.shard.router import ShardRouter
from repro.sim.scheduler import Scheduler
from repro.types import EntityId, MessageId, Violation

if TYPE_CHECKING:  # pragma: no cover - the chaos harness is not data plane
    from repro.chaos.campaign import ChaosCampaign, ChaosEvent

#: Repair rounds a campaign (and a serving drain's heal) gets to
#: converge; the liveness violation prints the count.
SETTLE_ROUNDS = 80


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
    """A sharded object space over independent causal-broadcast groups.

    Its groups record no trace (see
    :class:`~repro.group.replica_group.ReplicaGroup`).  ``hop_events``
    accepts only ``"off"``: ``bench/replay.py`` still passes it, and the
    keyword goes when that caller drops it (ROADMAP 9(c)).
    """

    def __init__(
        self,
        shards: int = 2,
        members_per_shard: int = 3,
        seed: int = 0,
        *,
        hop_events: str = "off",
    ) -> None:
        if shards < 1:
            raise ConfigurationError("a sharded cluster needs >= 1 shard")
        if hop_events != "off":
            raise ValueError(f"hop_events must be 'off', got {hop_events!r}")
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
            )
            self.groups[shard] = group
            for member in members:
                self.shard_of_member[member] = shard
        #: The ground truth: every issued operation and everything derived
        #: from it (see repro.shard.ledger).
        self.ledger = Ledger(self.shard_ids)
        #: shard -> label -> callbacks fired on the label's first
        #: delivery anywhere.
        self._watchers: Dict[
            int, Dict[MessageId, List[Callable[[EntityId], None]]]
        ] = {shard: {} for shard in self.shard_ids}
        #: member -> its settled ledger labels as (heads, holes): the
        #: maximal ones, and the ledger labels below them it has not
        #: settled — empty unless a stable-prefix skip or a snapshot
        #: install settled a label without its past.  A view of the
        #: member's settled set, caught up by `delivered_frontier`.
        self._settled_views: Dict[EntityId, Tuple[Set[MessageId], Set[MessageId]]] = {}
        #: member -> (`_settled_version`, delivery-log length) at the
        #: view's last catch-up.
        self._frontier_sync: Dict[EntityId, Tuple[int, int]] = {}
        for shard, group in self.groups.items():
            for member, stack in group.stacks.items():
                hook, quiet = self._watcher_hook(member, shard)
                stack.on_deliver(hook, quiet=quiet)
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

    @property
    def graph(self) -> DependencyGraph:
        """The ledger's dependency graph, caught up by the read
        (:attr:`Ledger.graph <repro.shard.ledger.Ledger.graph>`)."""
        return self.ledger.graph

    # -- delivery plumbing -------------------------------------------------

    def _watcher_hook(self, member: EntityId, shard: int):
        """The member's delivery hook, which fires the watchers of the
        label it delivers, and its ``quiet`` check: no watcher waits on
        a label of the shard."""
        watching = self._watchers[shard]

        def hook(envelope) -> None:
            watchers = watching.pop(envelope.msg_id, None)
            if watchers:
                for watcher in watchers:
                    watcher(member)

        return hook, lambda: not watching

    def watch(
        self, label: MessageId, callback: Callable[[EntityId], None]
    ) -> None:
        """Invoke ``callback`` on ``label``'s first delivery anywhere.

        Fires immediately if some member of the label's group already
        settled it (delivered, or skip-settled via a stable prefix).
        """
        shard = self.ledger.shard_of(label)
        for member, stack in self.groups[shard].stacks.items():
            if stack.has_settled(label):
                callback(member)
                return
        self._watchers[shard].setdefault(label, []).append(callback)

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

        The one issuing entry (puts, barriers, migrations): checks the
        stamp, tries each up, in-view member (``preferred`` first; see
        ``ReplicaGroup.senders``) until one's ``bcast`` — stamp, then
        ``send_logged`` — takes it, and records the label in the ledger.
        Returns ``None`` if none can right now (all crashed, evicted, or
        flush-frozen) — callers retry on a timer.

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
        for stack in group.senders(preferred):
            try:
                label = stack.bcast(kind, payload, occurs_after=deps)
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

        A just-restarted replica has wiped its settled set; until
        anti-entropy refills it, the member has settled *none* of the
        group's data labels.
        """
        labels = self.ledger.labels(shard)
        stack = self.groups[shard].stacks[member]
        return bool(labels) and not stack.settles_any(labels)

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
        rule is `read_replica`.
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
        projection onto that shard (plus any migration handoff).  A
        reference question, kept for ``bench/replay.py``: the server's
        rule is `read_replica`, which asks the whole group at once.
        """
        return all(map(self.groups[shard].stacks[member].has_settled, labels))

    def member_read(
        self, shard: int, member: EntityId, key: str
    ) -> Tuple[Optional[object], Optional[MessageId]]:
        """``key``'s newest write ``member`` has settled, as (value, label)."""
        return self.ledger.newest_settled_write(
            shard, key, self.groups[shard].stacks[member].has_settled
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
        view = group.group.view.members
        # Covering a floor means settling one of the shard's labels, so
        # only an empty floor leaves amnesia to `read_members`.
        eligible = [
            stack.entity_id
            for stack in covering(group.stacks.values(), floor)
            if not stack.crashed and stack.entity_id in view
        ] if floor else self.read_members(shard)
        if not eligible:
            self.read_misses += 1
            return None
        cursor = self._read_cursor.get(shard, 0)
        self._read_cursor[shard] = cursor + 1
        return eligible[cursor % len(eligible)]

    def delivered_frontier(
        self, shard: int, member: EntityId
    ) -> FrozenSet[MessageId]:
        """Maximal ledger labels ``member`` has settled in its group.

        The ledger labels the member delivered since the last query are
        noted in delivery order: causal delivery settles a label's
        in-group ``deps`` before it, so a delivered label evicts exactly
        the heads among its ``deps`` and becomes one — unless it was a
        hole, below a head already.  The first query, and any after the
        settled set changed outside delivery (restart wipe, stable-prefix
        skip, state transfer: `_settled_version` moved), rebuilds from the
        shard's settled labels — delivered ∪ skip-settled — instead: a
        head is a settled label no settled label or hole names in its
        ``deps``, and a hole is an unsettled label some settled label or
        hole names there.  No question goes to the ledger's graph: a
        label's causal past on its own shard is the closure of its
        ``deps`` (``tests/shard/test_stamp_closure.py`` holds every
        campaign to that).
        """
        stack = self.groups[shard].stacks[member]
        version = stack._settled_version
        log = stack._delivered_envelopes
        ops = self.ledger.ops
        synced, logged = self._frontier_sync.get(member, (None, 0))
        if synced != version:
            self._settled_views[member] = self._rebuild_view(shard, stack)
        heads, holes = self._settled_views[member]
        if synced == version:
            for envelope in log[logged:]:
                record = ops.get(envelope.msg_id)
                if record is None:
                    continue  # control traffic
                label = record.label
                if label in holes:
                    holes.discard(label)
                    continue
                heads.difference_update(record.deps)
                heads.add(label)
        self._frontier_sync[member] = (version, len(log))
        return self.ledger.in_issue_order(heads)

    def _rebuild_view(
        self, shard: int, stack
    ) -> Tuple[Set[MessageId], Set[MessageId]]:
        """``stack``'s (heads, holes) from its settled set: one pass over
        the shard's labels, then a walk down from each hole."""
        ops = self.ledger.ops
        has_settled = stack.has_settled
        settled = [label for label in self.ledger.labels(shard) if has_settled(label)]
        below: Set[MessageId] = set()
        for label in settled:
            below.update(ops[label].deps)
        walk = [label for label in below if not has_settled(label)]
        holes = set(walk)
        while walk:
            for dep in ops[walk.pop()].deps:
                below.add(dep)
                if dep not in holes and not has_settled(dep):
                    holes.add(dep)
                    walk.append(dep)
        return set(settled).difference(below), holes

    def settled_cut(self, shard: int, member: EntityId) -> Cut:
        """Everything ``member`` has settled, plus the holes below it: the
        in-group closure of :meth:`delivered_frontier`, as of its last
        answer (ask that first)."""
        cut = self.groups[shard].stacks[member].cut()
        holes = self._settled_views[member][1]
        return Cut(cut.prefix, cut.above | holes) if holes else cut

    def gauges(self) -> Dict[str, int]:
        """What the ``stats`` verb samples on demand: graph and transport.

        ``graph_nodes`` counts the ledger's records — the nodes its
        dependency graph has once built — and grows with the ops served;
        ``graph_closures`` / ``graph_closure_kb`` count the memoised
        reachability closures of the graph as built so far and what they
        hold; ``graph_catchups`` counts the catch-ups that filed records
        into it, one per question that found it behind (a put-only
        server reads 0).  Sampling builds no graph: the ledger's is a
        view caught up by the questions that need it, and each member's
        is a view derived when asked — a probe must not be what builds
        them.  ``net_envelopes`` and
        ``net_frames`` are the envelopes sent over every group's network
        and the hops that carried them (their ratio is the packing
        factor: about 30 when cycles are full, 1 at depth 1);
        ``run_deliveries`` the deliveries made a run at a time (see
        ``repro.broadcast.base``);
        ``holdback_peak`` is the deepest hold-back queue any member has
        seen; ``read_misses`` counts the gets `read_replica` found no
        member for, one per attempt; ``stale_gets`` the served gets the
        ledger's get audit has flagged so far (it judges each get as it
        is served, so a stale one shows here before any drain).  Walks
        each cache: meant for a ``stats`` request, not for the per-op
        path.
        """
        groups = self.groups.values()
        stacks = [stack for g in groups for stack in g.stacks.values()]
        ledger = self.ledger
        closures, closure_bytes = ledger.closure_footprint()
        return {
            "graph_nodes": len(ledger),
            "graph_closures": closures,
            "graph_closure_kb": closure_bytes // 1024,
            "graph_catchups": ledger.catchups,
            "net_frames": sum(g.network.frames_sent for g in groups),
            "net_envelopes": sum(g.network.hops_sent for g in groups),
            "run_deliveries": sum(stack.run_deliveries for stack in stacks),
            "holdback_peak": max(stack.max_holdback for stack in stacks),
            "read_misses": self.read_misses,
            "stale_gets": len(ledger.get_violations()),
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

    def run_campaign(self, campaign: ChaosCampaign) -> ShardedResult:
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
        violations, rounds = self.settle()
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

    def settle(
        self, max_rounds: int = SETTLE_ROUNDS
    ) -> Tuple[List[Violation], int]:
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
        """Per-group batteries, session order, cross-shard CC, snapshot
        and routing audits."""
        from repro.analysis.invariants import CrossShardChecker, InvariantMonitor

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
        violations.extend(
            Violation("session-guarantee", None, str(v))
            for v in ledger.session_order_violations()
        )
        violations.extend(
            CrossShardChecker(protocols, ledger, self.shard_of_member).check()
        )
        violations.extend(ledger.check_snapshot_closure())
        violations.extend(ledger.check_routing(self.rebalancer.moves))
        return violations
