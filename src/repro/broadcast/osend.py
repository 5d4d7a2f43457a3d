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
from repro.types import NO_METADATA, Envelope, EntityId, Message, MessageId

AncestorSpec = Union[None, MessageId, Iterable[MessageId], OccursAfter]


class OSendBroadcast(BroadcastProtocol):
    """Causal broadcast with application-declared dependencies."""

    protocol_name = "osend"

    def _init_volatile(self) -> None:
        super()._init_volatile()
        # The extracted graph is a view (see `graph`): what was derived
        # so far, and how much of the delivery log it already covers.  A
        # restart re-derives it from what the new incarnation observes;
        # the stable-prefix skip needs no cursor work here because
        # skipped labels are settled, which is what the predicate asks.
        self._graph = DependencyGraph()
        self._graph_cursor = 0

    # -- sending ---------------------------------------------------------

    def osend(
        self,
        operation: str,
        payload: object = None,
        occurs_after: AncestorSpec = None,
    ) -> MessageId:
        """Broadcast ``operation`` constrained by ``Occurs-After``.

        ``occurs_after`` may be ``None`` (spontaneous message), a single
        label, an iterable of labels (AND dependency, relation (3)), or a
        prebuilt :class:`OccursAfter`; it travels as the envelope's
        ``occurs_after`` field.

        Only in-group ancestors belong here: a foreign label is never
        delivered in this group.  A sharded sender discharges cross-group
        precedence before it sends, by projecting the foreign ancestors'
        in-group causal past into ``occurs_after``, and files the foreign
        labels themselves in its ledger for audit — they never ride on
        the envelope (see ``docs/SHARDING.md``).
        """
        return self.bcast(operation, payload, occurs_after=occurs_after)

    def _stamp(self, message: Message, **options: object) -> Envelope:
        occurs_after = options.pop("occurs_after", None)
        if options:
            raise ProtocolError(f"unknown OSend options: {options}")
        if type(occurs_after) is frozenset:  # taken as it is
            predicate = OccursAfter(occurs_after)
        elif isinstance(occurs_after, OccursAfter):
            predicate = occurs_after
        else:
            predicate = OccursAfter.after(occurs_after)  # type: ignore[arg-type]
        if message.msg_id in predicate.ancestors:
            raise ProtocolError(
                f"{message.msg_id} cannot occur after itself"
            )
        return Envelope(message, NO_METADATA, predicate)

    # -- receiving ---------------------------------------------------------

    def _predicate_of(self, envelope: Envelope) -> OccursAfter:
        predicate = envelope.occurs_after
        if not isinstance(predicate, OccursAfter):
            raise ProtocolError(
                f"envelope {envelope.msg_id} lacks an Occurs-After predicate"
            )
        return predicate

    def _deliverable(self, envelope: Envelope) -> bool:
        predicate = envelope.occurs_after
        if type(predicate) is not OccursAfter:  # `_predicate_of` vets it
            predicate = self._predicate_of(envelope)
        # `has_settled`, inlined: this runs once per envelope.
        prefix, above = self._prefix, self._above
        for label in predicate.ancestors:
            if label[1] >= prefix.get(label[0], 0) and label not in above:
                return False
        return True

    def _blockers(self, envelope: Envelope) -> Iterator[WakeKey]:
        # The Occurs-After ancestor index: one wake per unsettled
        # ancestor, resolved by the chassis's own delivered events.
        for ancestor in self._predicate_of(envelope).ancestors:
            if not self.has_settled(ancestor):
                yield after_event(("delivered", ancestor))

    def missing_for(self, envelope: Envelope) -> frozenset[MessageId]:
        """Ancestors named by Occurs-After that have not been received.

        Ancestors that were received but are themselves still held back
        are excluded — NACKing them would be useless; their own blockers
        will be reported instead.
        """
        ancestors = self._predicate_of(envelope).ancestors
        return frozenset(itertools.filterfalse(self.has_seen, ancestors))

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
        ancestors = self._predicate_of(envelope).ancestors
        return frozenset(itertools.filterfalse(self.has_settled, ancestors))

    def last_delivered(self) -> Optional[MessageId]:
        """Label of the most recently delivered message, if any."""
        delivered = self._delivered_envelopes
        return delivered[-1].msg_id if delivered else None
