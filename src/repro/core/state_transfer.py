"""State transfer for late joiners.

A member joining an existing group cannot replay history it never
received; it bootstraps from a *snapshot*: an existing replica's state
fenced at a synchronization point, together with the set of labels the
snapshot covers.  After installation the joiner processes only messages
outside the covered set, which the donor's protocol hands over as
replayable envelopes.

This fills in the dynamic-membership corner the paper leaves to the
group substrate ("organizing various entities as members of a group",
Section 3): view change + snapshot + replay = a joiner that converges
with the group without observing the full history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, List

from repro.broadcast.base import BroadcastProtocol
from repro.core.replica import Replica
from repro.errors import ProtocolError
from repro.types import Envelope, MessageId


@dataclass(frozen=True)
class Snapshot:
    """A replica's state fenced at a point in its delivery sequence."""

    state: Any
    covered: FrozenSet[MessageId]
    donor: str
    stable_index: int


def take_snapshot(replica: Replica, at_stable_point: bool = True) -> Snapshot:
    """Capture a snapshot from ``replica``.

    With ``at_stable_point`` (default) the snapshot is the latest agreed
    value ``VAL(m)`` and covers exactly that sync message's causal cut —
    any member's snapshot at the same stable point is interchangeable.
    Otherwise the current live state is captured, covering everything the
    replica has delivered (fine for a quiescent group, donor-specific
    otherwise).
    """
    if at_stable_point:
        if not replica.stable_states:
            raise ProtocolError(
                "replica has not reached a stable point to snapshot at"
            )
        point, state = replica.stable_states[-1]
        graph = getattr(replica.protocol, "graph", None)
        if graph is not None and point.msg_id in graph:
            covered = set(graph.causal_past(point.msg_id))
            covered.add(point.msg_id)
        else:
            covered = {
                record.msg_id
                for record in replica.protocol.delivery_log
                if record.position <= point.position
            }
        return Snapshot(
            state=state,
            covered=frozenset(covered),
            donor=replica.entity_id,
            stable_index=point.index,
        )
    covered = frozenset(replica.protocol.delivered)
    return Snapshot(
        state=replica.read_now(),
        covered=covered,
        donor=replica.entity_id,
        stable_index=-1,
    )


def restrict_snapshot(
    snapshot: Snapshot,
    select_key: Callable[[Any], bool],
    select_label: Callable[[MessageId], bool],
) -> Snapshot:
    """Project a mapping-state snapshot onto a key subset.

    Shard rebalancing (:mod:`repro.shard.rebalance`) transfers only the
    moving slot's fraction of a group's object space: the donor snapshot
    is fenced at a stable point as usual, then restricted to the keys the
    moving slot owns (``select_key``) and the labels that wrote them
    (``select_label``).  The restriction of a causally-fenced snapshot is
    itself consistent: a stable point covers a causal cut, and dropping
    whole keys removes complete per-key write histories, never a prefix
    of one.

    Raises :class:`~repro.errors.ProtocolError` if the snapshot's state
    is not a mapping.
    """
    if not isinstance(snapshot.state, dict):
        raise ProtocolError(
            "restrict_snapshot requires a mapping-state snapshot, got "
            f"{type(snapshot.state).__name__}"
        )
    return Snapshot(
        state={k: v for k, v in snapshot.state.items() if select_key(k)},
        covered=frozenset(l for l in snapshot.covered if select_label(l)),
        donor=snapshot.donor,
        stable_index=snapshot.stable_index,
    )


def replayable_envelopes(
    protocol: BroadcastProtocol, snapshot: Snapshot
) -> List[Envelope]:
    """Delivered envelopes the snapshot does *not* cover, in donor order."""
    return [
        envelope
        for envelope in protocol.delivered_envelopes
        if envelope.msg_id not in snapshot.covered
    ]


def install_snapshot(replica: Replica, snapshot: Snapshot) -> None:
    """Install ``snapshot`` into a fresh joiner replica.

    The joiner's protocol is marked as having delivered every covered
    label so that (a) later messages whose ``Occurs-After`` references
    covered history become deliverable, and (b) re-broadcast copies of
    covered messages are discarded as duplicates (``has_seen``) instead
    of being applied twice.
    """
    protocol = replica.protocol
    if protocol.delivered:
        raise ProtocolError(
            "snapshot must be installed into a fresh replica "
            f"({protocol.entity_id!r} has already delivered messages)"
        )
    replica._state = snapshot.state
    replica._stable_fold_state = snapshot.state
    replica._stable_fold_labels = set(snapshot.covered)
    protocol.install_settled(snapshot.covered)
    graph = getattr(protocol, "graph", None)
    if graph is not None:
        for label in snapshot.covered:
            if label not in graph:
                # Ancestry inside the covered set is irrelevant: all of it
                # is already applied.  Register bare nodes so later
                # extraction and rendering see them.
                graph.add(label)


def bootstrap_joiner(
    joiner: Replica, donor: Replica
) -> Snapshot:
    """Full join flow: snapshot the donor, install, replay the remainder.

    Returns the snapshot used.  The donor's post-snapshot envelopes are
    replayed through the joiner's normal receive path, so ordering
    predicates and the state machine run exactly as for live traffic.
    """
    snapshot = take_snapshot(donor, at_stable_point=bool(donor.stable_states))
    install_snapshot(joiner, snapshot)
    for envelope in replayable_envelopes(donor.protocol, snapshot):
        joiner.protocol.on_receive(snapshot.donor, envelope)
    return snapshot
