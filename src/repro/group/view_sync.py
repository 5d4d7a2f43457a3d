"""View-synchronous membership change (flush protocol).

The paper's model assumes a group substrate in which "members can
deterministically process messages ... and have the same view of
application level state at every distinct point in logical time"
(Section 3).  When membership changes, that requires *view synchrony*:
every message broadcast in the old view is delivered at every surviving
member **before** the new view takes effect, so the view change is itself
a synchronization point.

The flush protocol here is the classic one:

1. any member proposes a change by broadcasting ``VCHG(change)``;
2. on delivering the proposal, each member **freezes** its application
   sending and waits for its hold-back queue to drain;
3. once drained, it broadcasts ``FLUSH_OK`` carrying a *digest*: the cut
   (:class:`~repro.broadcast.cut.Cut`, a prefix per origin plus the
   labels above it) of every label it knows exists — settled, held, or
   stored, its own sends among them.  Senders always know their own
   broadcasts, so the cut union of all digests covers the complete
   old-view traffic;
4. when a member has collected ``FLUSH_OK`` from every old-view member
   *and* has itself settled the cut union (a prefix test per origin),
   it installs the new view, unfreezes, and notifies listeners.

Step 4's delivery condition is what makes the change view-synchronous:
every member delivers exactly the same old-view message set before the
new view, even for messages still in flight when the flush began.

Concurrent proposals for the *same* old view are serialised by a
deterministic tie-break (:meth:`ViewSyncAgent._priority`): every member
flushes the same winner first and re-proposes the losers against the new
view after installation.  Without the tie-break, two members that each
adopted "their" change first would wait forever for each other's
FLUSH_OK — the deadlock pinned by
``test_concurrent_proposals_converge`` in ``tests/group/test_view_sync.py``.

Control traffic goes straight to the agent, by operation, like the
recovery layer's, so it composes with every ordering protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.broadcast.cut import Cut
from repro.errors import MembershipError, ProtocolError

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.broadcast.base import BroadcastProtocol
from repro.group.membership import GroupView
from repro.types import Envelope, EntityId, Message, MessageIdAllocator

VCHG_OPERATION = "__vchg__"
FLUSH_OK_OPERATION = "__flushok__"

#: FLUSH_OK re-broadcast: the gap between copies (sim time) and how many
#: copies follow the first before the member stops resending.
FLUSH_RESEND_INTERVAL = 3.0
MAX_FLUSH_RESENDS = 25


@dataclass(frozen=True)
class ViewChange:
    """A proposed membership change."""

    kind: str  # "join" | "leave"
    entity: EntityId
    old_view_id: int

    def __post_init__(self) -> None:
        if self.kind not in ("join", "leave"):
            raise ProtocolError(f"unknown view-change kind: {self.kind}")


@dataclass(frozen=True)
class InstallRecord:
    """Audit trail of one installed view (for the invariant monitor).

    ``snapshot`` is the member's settled set at install time and
    ``digest_union`` the cut union of the FLUSH_OK digests, both cuts
    (O(origins + above) each); view synchrony requires
    ``snapshot >= digest_union``.
    """

    view_id: int
    change: ViewChange
    snapshot: Cut
    digest_union: Cut
    incarnation: int
    time: float
    #: How long this member was frozen before the install (from first
    #: adopting a proposal for the old view to installation) — the
    #: flush-unblock latency the chaos report aggregates.
    flush_duration: float = 0.0


InstallListener = Callable[[GroupView], None]


class ViewSyncAgent:
    """Runs the flush protocol for one member.

    All members of a simulated group share one
    :class:`~repro.group.membership.GroupMembership`; the *first* agent to
    complete the flush installs the change there (subsequent completions
    see it already applied).  What the protocol guarantees — and the tests
    verify — is the view-synchrony property: at installation, every
    member's settled set for the old view covers the digest union.
    """

    operations = (VCHG_OPERATION, FLUSH_OK_OPERATION)

    def __init__(self, protocol: "BroadcastProtocol") -> None:
        self.protocol = protocol
        self._allocator = MessageIdAllocator(f"{protocol.entity_id}!vs")
        self._listeners: List[InstallListener] = []
        self.changes_installed = 0
        # Durable audit log: survives restarts so post-mortem invariant
        # checks can reconstruct what each incarnation installed.
        self.install_history: List[InstallRecord] = []
        self._init_volatile()
        protocol.add_interceptor(self)
        # Event-driven flush progress: the hold-back queue shrinks only on
        # delivery or stable-prefix skip, and the digest union likewise
        # only becomes settled through those events, so both checks hang
        # off them.  A poll timer here would re-arm forever while a flush
        # is blocked on in-flight repair, livelocking any run-to-quiescence
        # driver (the scheduler's queue would never empty).
        # Outside a flush a delivery has nothing to progress: runs may
        # pass it by.
        protocol.on_deliver(
            self._on_delivery, quiet=lambda: self._pending_change is None
        )
        # The membership object is shared across the simulated group, so a
        # peer completing the flush first advances our view out from under
        # a still-pending change; finalize it instead of waiting forever
        # for FLUSH_OK re-broadcasts the installers have stopped sending.
        protocol.group.subscribe(self._on_view_installed)

    def _init_volatile(self) -> None:
        """The flush state, abandoned when the member restarts: survivors
        make progress by excluding us (a ``leave`` proposal) or by
        re-sending FLUSH_OK until we catch up."""
        self.frozen = False
        self._pending_change: Optional[ViewChange] = None
        # Same-view proposals that lost the tie-break; re-proposed against
        # the new view after the winner installs.
        self._deferred: List[ViewChange] = []
        # Each acker's latest digest, and their cut union.
        self._digests: Dict[EntityId, Cut] = {}
        self._digest_union = Cut()
        self._old_members: Tuple[EntityId, ...] = ()
        self._sent_flush_ok = False
        # Settled-set cut taken at install time (diagnostics).
        self.flush_snapshot: Optional[Cut] = None
        # When this member first froze for the currently pending flush
        # chain (rival adoptions keep the original start time).
        self._flush_started: Optional[float] = None

    # -- API --------------------------------------------------------------

    def on_install(self, listener: InstallListener) -> None:
        self._listeners.append(listener)

    def propose(self, kind: str, entity: EntityId, force: bool = False) -> None:
        """Propose a membership change to the group.

        With ``force=True`` a proposal is broadcast even while another
        change is in flight: concurrent same-view proposals are exactly
        what the deterministic tie-break serialises, and a failure
        detector *must* be able to inject a ``leave`` into a flush that is
        stuck waiting on the crashed member (leaves win the tie-break, so
        the removal flushes first and unblocks the rest).
        """
        if self._pending_change is not None and not force:
            raise ProtocolError("a view change is already in progress")
        view = self.protocol.group.view
        if kind == "join" and entity in view:
            raise MembershipError(f"{entity!r} is already a member")
        if kind == "leave" and entity not in view:
            raise MembershipError(f"{entity!r} is not a member")
        change = ViewChange(kind, entity, view.view_id)
        message = Message(self._allocator.next_id(), VCHG_OPERATION, change)
        self.protocol.network.broadcast(
            self.protocol.entity_id, Envelope(message)
        )

    def nudge(self) -> None:
        """Re-broadcast the pending proposal to restart a wedged flush.

        A flush can stall forever if a participant crashed mid-flush and
        lost its pending state on restart (it no longer knows a flush is
        running, so it never sends FLUSH_OK) after the bounded FLUSH_OK
        re-broadcasts of the others were exhausted.  Re-announcing the
        pending VCHG is idempotent — members already flushing treat the
        duplicate as a FLUSH_OK re-send prompt (see `_on_proposal`), and
        the amnesiac member adopts the change afresh and flushes.
        """
        change = self._pending_change
        if change is None or self.protocol.crashed:
            return
        message = Message(self._allocator.next_id(), VCHG_OPERATION, change)
        self.protocol.network.broadcast(
            self.protocol.entity_id, Envelope(message)
        )

    def guard_send(self) -> None:
        """Raise if application sends are frozen mid-flush.

        The chassis calls this at the top of every ``bcast``, before a
        label is allocated (the agent registers through
        ``add_interceptor``); ``send_logged`` is not guarded.
        """
        if self.frozen:
            raise ProtocolError(
                f"{self.protocol.entity_id}: sends are frozen during a "
                "view change flush"
            )

    # -- control plane ------------------------------------------------------

    def intercept(self, sender: EntityId, envelope: Envelope) -> None:
        message = envelope.message
        if message.operation == VCHG_OPERATION:
            self._on_proposal(message.payload)
        else:
            self._on_flush_ok(message.payload)

    def _on_proposal(self, change: ViewChange) -> None:
        self._consider(change)
        if change == self._pending_change and self._sent_flush_ok:
            # A duplicate announcement of the change we already flushed
            # for means someone is still missing our FLUSH_OK (e.g. a
            # `nudge` on behalf of a restarted participant after our
            # bounded re-sends ran out).  Answer with exactly one re-send
            # here — NOT in `_consider`, which `_on_flush_ok` also calls:
            # that would turn every FLUSH_OK receipt into a re-broadcast
            # storm.
            self._send_flush_ok(change, resends_left=0)

    @staticmethod
    def _priority(change: ViewChange) -> Tuple[int, EntityId]:
        """Total order over same-view proposals; the minimum wins.

        Leaves beat joins — removing a (presumed crashed) member is what
        unblocks a stuck flush, so it must never queue behind a join —
        and ties break on the lowest affected entity.  Every member
        computes the same winner from the same candidate set, so
        concurrent proposals converge on one flush instead of deadlocking
        on each other's FLUSH_OK.
        """
        return (0 if change.kind == "leave" else 1, change.entity)

    def _consider(self, change: ViewChange) -> None:
        current = self.protocol.group.view
        if change.old_view_id != current.view_id:
            return  # stale proposal for an already-changed view
        if self.protocol.entity_id not in current.members:
            # Not an old-view member (e.g. the entity being joined, or a
            # crashed member that restarted out of the group): flushes are
            # among old-view members only.
            return
        if change.kind == "leave" and len(current.members) == 1:
            # Refusing to empty the group: cascaded detector removals can
            # shrink the view to one member while a leave for it is still
            # in flight (e.g. mutual suspicion across a partition).  The
            # last member stays; every member computes the same refusal
            # from the same (change, view) pair, so nobody flushes for it.
            return
        if change == self._pending_change or change in self._deferred:
            return
        if self._pending_change is None:
            self._adopt(change)
        elif self._priority(change) < self._priority(self._pending_change):
            # A higher-priority rival: shelve the current flush target and
            # restart the flush for the winner (acks and digests are
            # per-change, so none of the collected state carries over).
            self._defer(self._pending_change)
            self._adopt(change)
        else:
            self._defer(change)

    def _adopt(self, change: ViewChange) -> None:
        self._pending_change = change
        self._old_members = self.protocol.group.view.members
        self._digests = {}
        self._digest_union = Cut()
        self._sent_flush_ok = False
        self.frozen = True
        if self._flush_started is None:
            self._flush_started = self.protocol.now
        self._check_drained()

    def _defer(self, change: ViewChange) -> None:
        if change not in self._deferred:
            self._deferred.append(change)

    def _on_delivery(self, _envelope: Envelope) -> None:
        # Outside a flush a delivery has nothing to progress.
        if self._pending_change is not None:
            self._on_progress()

    def _on_progress(self) -> None:
        """Re-check flush progress after a delivery or stable-skip."""
        self._check_drained()
        self._try_install()
        self._finalize_if_stale()

    def on_stable_skip(self, origin: EntityId, frontier: int) -> None:
        # Interceptor hook: a stable-prefix skip can settle labels (and
        # empty the hold-back queue) without any delivery firing.
        self._on_progress()

    def _check_drained(self) -> None:
        if self._pending_change is None or self._sent_flush_ok:
            return
        if self.protocol.holdback_size == 0:
            self._sent_flush_ok = True
            self._send_flush_ok(
                self._pending_change, resends_left=MAX_FLUSH_RESENDS
            )

    def _send_flush_ok(self, change: ViewChange, resends_left: int) -> None:
        """Broadcast FLUSH_OK, re-broadcasting until the change installs.

        FLUSH_OK is control traffic outside the ordering protocol's
        repair store, so a lossy network can eat it; the digest payload
        is idempotent, so bounded re-broadcast is the simple cure.
        """
        if self._pending_change != change:
            return  # installed meanwhile, or a rival won the tie-break
        # The digest: every label this member knows exists.
        protocol = self.protocol
        message = Message(
            self._allocator.next_id(),
            FLUSH_OK_OPERATION,
            (protocol.entity_id, change, protocol.known_cut()),
        )
        self.protocol.network.broadcast(
            self.protocol.entity_id, Envelope(message)
        )
        if resends_left > 0:
            self.protocol.call_in(
                FLUSH_RESEND_INTERVAL,
                self._send_flush_ok,
                change,
                resends_left - 1,
            )

    def _on_flush_ok(self, payload: Tuple[EntityId, ViewChange, Cut]) -> None:
        member, change, digest = payload
        # A FLUSH_OK can overtake its VCHG (reordering) or name a rival
        # proposal we have not heard: run it through the same adoption
        # path first.
        self._consider(change)
        if self._pending_change != change:
            return
        if change.old_view_id != self.protocol.group.view.view_id:
            self._finalize_if_stale()  # applied already: settle its cut
            return
        self._digests[member] = digest
        self._digest_union = reduce(or_, self._digests.values())
        self._try_install()

    def _required_ackers(self) -> Set[EntityId]:
        """Old-view members whose FLUSH_OK we must collect.

        A member being removed — by the pending change *or by any
        deferred leave* — is presumed unable to participate (the common
        reason for removal is a crash), so it is excluded: the survivors'
        digests still cover everything it can ever deliver.  Without the
        deferred-leave exclusion, a flush for the tie-break winner could
        wait forever on the crashed member a losing proposal was trying
        to remove.
        """
        assert self._pending_change is not None
        required = set(self._old_members)
        for change in (self._pending_change, *self._deferred):
            if change.kind == "leave":
                required.discard(change.entity)
        return required

    def _try_install(self) -> None:
        if self._pending_change is None:
            return
        if not self._required_ackers() <= self._digests.keys():
            return
        self._install_if_settled()

    def _install_if_settled(self) -> None:
        """Install once the digests' cut union is settled here (skipped
        labels too: a rejoiner's digest may name compacted history);
        until then old-view traffic is in flight or under repair, and
        each delivery re-checks."""
        if self.protocol.settles_all(self._digest_union):
            self.flush_snapshot = self.protocol.cut()
            self._install(self._digest_union)

    def _install(self, digest_union: Cut) -> None:
        change = self._pending_change
        assert change is not None
        membership = self.protocol.group
        if membership.view.view_id == change.old_view_id:
            # First completed agent applies the (shared) change, and
            # leaves its digest union for the members that adopt it late.
            if change.kind == "join":
                membership.join(change.entity)
            else:
                membership.leave(change.entity)
            membership.install_cuts[membership.view.view_id] = digest_union
        view = membership.view
        started = self._flush_started
        self._end_flush()
        self.changes_installed += 1
        self.install_history.append(
            InstallRecord(
                view_id=view.view_id,
                change=change,
                snapshot=self.flush_snapshot,
                digest_union=digest_union,
                incarnation=self.protocol.incarnation,
                time=self.protocol.now,
                flush_duration=(
                    self.protocol.now - started if started is not None else 0.0
                ),
            )
        )
        for listener in self._listeners:
            listener(view)
        self._repropose_deferred(view)

    def _on_view_installed(self, view: GroupView) -> None:
        # Deferred a tick: the first installer fires this synchronously
        # from inside its own `_install`, before clearing its pending
        # change — by the time the callback runs, a completed flush has
        # cleaned up after itself and the check is a no-op.
        self.protocol.call_in(0.0, self._finalize_if_stale)

    def _finalize_if_stale(self) -> None:
        """Resolve a pending change the shared view has moved past.

        If the new view already reflects the change, a peer that
        collected the FLUSH_OKs first completed it — adopt the outcome
        once this member has settled the installer's digest union (the
        recovery layer repairs the stragglers; each delivery re-runs this
        check), and file that union.  If the view changed some *other*
        way, the pending change lost a race it never saw; re-propose it
        against the new view.
        """
        change = self._pending_change
        if change is None:
            return
        view = self.protocol.group.view
        if view.view_id == change.old_view_id:
            return
        satisfied = (
            (change.kind == "join" and change.entity in view)
            or (change.kind == "leave" and change.entity not in view)
        )
        if not satisfied:
            self._defer(change)
            self._end_flush()
            self._repropose_deferred(view)
            return
        cut = self.protocol.group.install_cuts.get(change.old_view_id + 1)
        if cut is not None:
            self._digest_union = cut
        self._install_if_settled()

    def _end_flush(self) -> None:
        """Leave the flush: nothing pending, sends thawed."""
        self._pending_change = None
        self._digests = {}
        self._digest_union = Cut()
        self._sent_flush_ok = False
        self.frozen = False
        self._flush_started = None

    def _repropose_deferred(self, view: GroupView) -> None:
        """Re-propose tie-break losers against the freshly installed view.

        Every member re-broadcasts the same (frozen, equality-comparable)
        change, so duplicates collapse in :meth:`_consider`; changes made
        moot by the installed winner are dropped.
        """
        deferred, self._deferred = self._deferred, []
        for old in deferred:
            if old.kind == "join" and old.entity in view:
                continue
            if old.kind == "leave" and old.entity not in view:
                continue
            change = ViewChange(old.kind, old.entity, view.view_id)
            message = Message(
                self._allocator.next_id(), VCHG_OPERATION, change
            )
            self.protocol.network.broadcast(
                self.protocol.entity_id, Envelope(message)
            )


def attach_view_sync(
    protocols: Dict[EntityId, "BroadcastProtocol"],
) -> Dict[EntityId, ViewSyncAgent]:
    """One agent per stack; each stack's ``bcast`` asks its agent's
    :meth:`~ViewSyncAgent.guard_send` first."""
    return {
        entity: ViewSyncAgent(protocol)
        for entity, protocol in protocols.items()
    }
