"""Slot rebalancing: drain -> transfer -> cutover.

Moving a slot between replication groups without breaking causal
consistency takes three phases:

``drain``
    The router freezes the slot — sessions whose head operation targets
    it wait in place (preserving session order) — and a single-shard
    :class:`~repro.shard.barrier.StablePointBarrier` runs on the source
    group.  Its stable point fences every write the move must carry:
    what the contact has delivered, and every write to the slot already
    issued there — a put still in flight to the contact included.

``transfer``
    The barrier's snapshot is restricted to the moving slot through
    :func:`repro.core.state_transfer.restrict_snapshot` — the same
    machinery late joiners bootstrap from, applied to a key range
    instead of a whole replica.

``cutover``
    A non-commutative ``migrate`` operation is broadcast on the
    *destination* group carrying the slot's entries, with ``cross_deps``
    = the moved labels (the migration is causally *after* everything it
    carries; the stamp makes that auditable).  Then the shard map is
    bumped, and the router unfreezes the slot with the migrate label as
    its *handoff dependency*: every later write to the slot — from any
    session, involved in the move or not — names the migrate record in
    its ``Occurs-After``, so no destination member can deliver a
    post-move write before the state it overwrites.

A rebalance that cannot finish (no contact reachable within the retry
budget) aborts: the slot unfreezes with the map unchanged, and the move
is recorded as ``aborted`` for the audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.shard.barrier import BarrierRead, StablePointBarrier
from repro.types import MessageId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.state_transfer import Snapshot
    from repro.shard.cluster import ShardedCluster

#: One-second retries for the cutover broadcast before the move aborts.
MIGRATE_ATTEMPTS = 240


@dataclass
class MoveRecord:
    """One slot move, through its phases."""

    slot: int
    source: int
    dest: int
    started: float
    phase: str = "drain"  # drain | transfer | done | aborted
    migrate_label: Optional[MessageId] = None
    moved_labels: int = 0
    entries: int = 0
    cutover_time: Optional[float] = None
    #: Global issue index of the first post-cutover operation; the
    #: routing audit flags any later put for this slot that still went
    #: to the source group.
    cutover_index: Optional[int] = None


class Rebalancer:
    """Executes slot moves against a :class:`ShardedCluster`."""

    def __init__(self, cluster: "ShardedCluster") -> None:
        self.cluster = cluster
        self.moves: List[MoveRecord] = []

    def active(self) -> bool:
        return any(m.phase in ("drain", "transfer") for m in self.moves)

    # -- phases ------------------------------------------------------------

    def move_slot(self, slot: int, dest: int) -> MoveRecord:
        """Begin moving ``slot`` to shard ``dest`` (asynchronous)."""
        cluster = self.cluster
        source = cluster.shard_map.shard_for_slot(slot)
        record = MoveRecord(
            slot=slot, source=source, dest=dest, started=cluster.scheduler.now
        )
        self.moves.append(record)
        if source == dest:
            record.phase = "done"
            record.cutover_time = cluster.scheduler.now
            record.cutover_index = len(cluster.ledger)
            return record
        cluster.router.freeze_slot(slot)
        StablePointBarrier(
            cluster,
            (source,),
            on_complete=lambda read, record=record: self._transfer(
                record, read
            ),
            session=f"rebalance-{slot}.{len(self.moves)}",
            # A put issued before the freeze may not have reached the
            # contact yet; the snapshot must carry it all the same.
            baseline={source: cluster.ledger.slot_writes(source, slot)},
        ).start()
        return record

    def _transfer(
        self, record: MoveRecord, read: Optional["BarrierRead"]
    ) -> None:
        cluster = self.cluster
        if read is None:
            record.phase = "aborted"
            cluster.router.unfreeze_slot(record.slot)
            return
        # State transfer runs only when a slot moves; a serving process
        # that never rebalances never loads it.
        from repro.core.state_transfer import Snapshot, restrict_snapshot

        record.phase = "transfer"
        full = Snapshot(
            state=dict(read.value),
            covered=read.covered[record.source],
            donor=f"shard{record.source}",
            stable_index=record.slot,
        )
        moved = restrict_snapshot(
            full,
            select_key=lambda key: cluster.shard_map.slot_of(key)
            == record.slot,
            select_label=lambda label: cluster.ledger.slot_of(label)
            == record.slot,
        )
        record.moved_labels = len(moved.covered)
        record.entries = len(moved.state)
        self._cutover(record, moved, MIGRATE_ATTEMPTS)

    def _cutover(
        self, record: MoveRecord, moved: Snapshot, attempts: int
    ) -> None:
        cluster = self.cluster
        contact = cluster.contact(record.dest)
        label = None
        if contact is not None:
            # The moved writes may themselves causally follow earlier
            # destination-group writes (a session that wrote dest first,
            # then the moving slot).  The migrate record must be ordered
            # after that projected past too, or a destination member
            # could deliver the migration before state it depends on.
            deps = set(cluster.delivered_frontier(record.dest, contact))
            deps |= cluster.project(moved.covered, record.dest)
            label = cluster.shard_send(
                record.dest,
                "migrate",
                {
                    "slot": record.slot,
                    "entries": dict(moved.state),
                    "from": record.source,
                },
                occurs_after=cluster.maximal(deps),
                cross_deps=cluster.maximal(moved.covered),
                session=None,
                slot=record.slot,
                preferred=contact,
            )
        if label is None:
            if attempts <= 0:
                record.phase = "aborted"
                cluster.router.unfreeze_slot(record.slot)
                return
            cluster.scheduler.call_in(
                1.0, self._cutover, record, moved, attempts - 1
            )
            return
        record.migrate_label = label
        record.phase = "done"
        record.cutover_time = cluster.scheduler.now
        record.cutover_index = cluster.ledger.index_of(label) + 1
        cluster.shard_map = cluster.shard_map.reassign(record.slot, record.dest)
        cluster.router.unfreeze_slot(record.slot, handoff=label)
