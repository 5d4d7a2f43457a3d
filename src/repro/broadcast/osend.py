"""``OSend`` — the paper's explicit-graph causal broadcast primitive.

Section 3.1::

    OSend(Msg, G, Occurs-After(m))

The sender names the *exact* causal ancestors of each message; members
deliver a message once every named ancestor has been delivered locally.
Unlike clock-based causal broadcast, ordering reflects the application's
*semantic* causality, not whatever the sender happened to have seen
("incidental ordering", footnote 1) — so unrelated messages stay
concurrent and can be processed with maximum asynchrony.

Every member can also *extract the message dependency graph* from the
traffic (Section 3.2: the stable graph "is extractable by observing [the]
execution behaviour").  Extraction is literal: nothing on the receive path
builds a graph; :attr:`OSendBroadcast.graph` derives it, when somebody
asks, from what the member has observed — the envelopes it delivered and
the ones it still holds back.  The graph is shared knowledge: because the
same labels and ancestor sets reach every member, each member's extracted
graph converges to the same DAG, which is what makes stable points locally
detectable (Section 4.2).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Union

from repro.broadcast.base import BroadcastProtocol, WakeKey, after_event
from repro.errors import ProtocolError
from repro.graph.depgraph import DependencyGraph
from repro.graph.predicates import OccursAfter
from repro.group.membership import GroupMembership
from repro.types import Envelope, EntityId, MessageId, freeze_ancestors

AncestorSpec = Union[None, MessageId, Iterable[MessageId], OccursAfter]


class OSendBroadcast(BroadcastProtocol):
    """Causal broadcast with application-declared dependencies."""

    protocol_name = "osend"

    def __init__(self, entity_id: EntityId, group: GroupMembership) -> None:
        super().__init__(entity_id, group)
        # The extracted graph is a view (see `graph`): what was derived
        # so far, and how much of the delivery log it already covers.
        self._graph = DependencyGraph()
        self._graph_cursor = 0

    # -- sending ---------------------------------------------------------

    def osend(
        self,
        operation: str,
        payload: object = None,
        occurs_after: AncestorSpec = None,
        cross_deps: AncestorSpec = None,
    ) -> MessageId:
        """Broadcast ``operation`` constrained by ``Occurs-After``.

        ``occurs_after`` may be ``None`` (spontaneous message), a single
        label, an iterable of labels (AND dependency, relation (3)), or a
        prebuilt :class:`OccursAfter`.

        ``cross_deps`` declares causal ancestors that live in *other*
        replication groups (``repro.shard``): they are stamped onto the
        envelope for observation and audit, but the local delivery
        predicate ignores them — a foreign label is never delivered in
        this group, so the sender must discharge such precedence before
        issuing the send (by projecting the foreign ancestor's in-group
        causal past into ``occurs_after``; see ``docs/SHARDING.md``).
        """
        return self.bcast(
            operation, payload, occurs_after=occurs_after, cross_deps=cross_deps
        )

    def _stamp(self, envelope: Envelope, **options: object) -> Envelope:
        occurs_after = options.pop("occurs_after", None)
        cross_deps = freeze_ancestors(options.pop("cross_deps", None))
        if options:
            raise ProtocolError(f"unknown OSend options: {options}")
        if isinstance(occurs_after, OccursAfter):
            predicate = occurs_after
        else:
            predicate = OccursAfter.after(occurs_after)  # type: ignore[arg-type]
        if envelope.msg_id in predicate.ancestors:
            raise ProtocolError(
                f"{envelope.msg_id} cannot occur after itself"
            )
        if cross_deps & predicate.ancestors:
            raise ProtocolError(
                "a label cannot be both an in-group Occurs-After ancestor "
                f"and a cross-group dependency: "
                f"{sorted(map(str, cross_deps & predicate.ancestors))}"
            )
        if cross_deps:
            return envelope.with_metadata(
                occurs_after=predicate, cross_deps=cross_deps
            )
        return envelope.with_metadata(occurs_after=predicate)

    # -- receiving ---------------------------------------------------------

    def _predicate_of(self, envelope: Envelope) -> OccursAfter:
        predicate = envelope.metadata.get("occurs_after")
        if not isinstance(predicate, OccursAfter):
            raise ProtocolError(
                f"envelope {envelope.msg_id} lacks an Occurs-After predicate"
            )
        return predicate

    def _deliverable(self, envelope: Envelope) -> bool:
        return self._predicate_of(envelope).satisfied_by(self._delivered_ids)

    def _reset_volatile(self) -> None:
        # The extracted graph is re-derived from what this incarnation
        # observes (the delivery log restarts empty, so must the cursor
        # into it); the stable-prefix skip needs no cursor work here
        # because skipped labels enter `_delivered_ids`, which the
        # predicate consults.
        self._graph = DependencyGraph()
        self._graph_cursor = 0

    def _blockers(self, envelope: Envelope) -> Iterator[WakeKey]:
        # The Occurs-After ancestor index: one wake per undelivered
        # ancestor, resolved by the chassis's own delivered events.
        predicate = self._predicate_of(envelope)
        for ancestor in predicate.unmet(self._delivered_ids):
            yield after_event(("delivered", ancestor))

    def missing_for(self, envelope: Envelope) -> frozenset[MessageId]:
        """Ancestors named by Occurs-After that have not been received.

        Ancestors that were received but are themselves still held back
        are excluded — NACKing them would be useless; their own blockers
        will be reported instead.
        """
        blocked = self._predicate_of(envelope).missing(self._delivered_ids)
        return frozenset(l for l in blocked if not self.has_seen(l))

    @staticmethod
    def cross_deps_of(envelope: Envelope) -> frozenset[MessageId]:
        """Cross-group causal ancestors stamped on ``envelope`` (if any)."""
        return envelope.metadata.get("cross_deps", frozenset())

    # -- the extracted graph -------------------------------------------------

    @property
    def graph(self) -> DependencyGraph:
        """The dependency graph extracted from observed traffic.

        A derived view: the delivered envelopes plus the currently
        held-back ones, each with its ``Occurs-After`` set.  Nothing
        maintains it between accesses — an access extends the cached
        graph by the deliveries since the previous one (a cursor into
        the delivery log) and by whatever is held back now, so asking
        per delivery costs O(new deliveries), and a member nobody asks
        keeps an empty graph.  A held copy that a stable-prefix skip
        settled before anyone asked was never delivered here and is not
        in the view.

        Identical at every member once the same messages have been
        received (tested as an invariant).
        """
        graph = self._graph
        delivered = self._delivered_envelopes
        for envelope in itertools.chain(
            delivered[self._graph_cursor:], self._pending.values()
        ):
            # Already in the view: asked about while it was held back,
            # or a covered label an installed snapshot registered.
            if envelope.msg_id not in graph:
                graph.add(envelope.msg_id, self._predicate_of(envelope))
        self._graph_cursor = len(delivered)
        return graph

    def blocking_ancestors(self, msg_id: MessageId) -> frozenset[MessageId]:
        """Ancestors still preventing delivery of a held-back message."""
        envelope = self._pending.get(msg_id)
        if envelope is None:
            return frozenset()
        return self._predicate_of(envelope).missing(self._delivered_ids)

    def last_delivered(self) -> Optional[MessageId]:
        """Label of the most recently delivered message, if any."""
        delivered = self._delivered_envelopes
        return delivered[-1].msg_id if delivered else None
