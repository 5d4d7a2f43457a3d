"""The client front-end manager — the code skeleton of Section 6.1.

The paper's base replicated-data-access protocol places a *front-end
manager* at each client, which "generates an ordering of the requests
based on the knowledge available and broadcasts the message using OSend".
Its state is the last non-commutative label ``Ncid`` and the set of
commutative labels ``{Cid}`` issued since; ordering rules::

    non-commutative request:
        if {Cid} = ∅ :  OSend(rqst, Occurs-After(Ncid))
        else         :  OSend(rqst, Occurs-After(∧{Cid})) ; {Cid} := ∅
    commutative request:
        OSend(rqst, Occurs-After(Ncid)) ; insert label into {Cid}

which realises the cycle ``Ncid(r-1) ≺ ‖{Cid}(r) ≺ Ncid(r)``.

With several front-ends, each also *observes* the group's deliveries to
keep its ``Ncid``/``{Cid}`` knowledge current.
Two managers issuing non-commutative requests truly concurrently will
produce concurrent sync messages — the case the paper routes to the
total-ordering layer instead (Section 5.2); see
:class:`~repro.core.access_protocol.TotalOrderSystem`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.broadcast.osend import OSendBroadcast
from repro.core.commutativity import CommutativitySpec
from repro.graph.predicates import OccursAfter
from repro.types import Envelope, MessageId


class FrontEndManager:
    """Generates ``Occurs-After`` orderings for client requests."""

    def __init__(
        self,
        protocol: OSendBroadcast,
        spec: CommutativitySpec,
    ) -> None:
        self._protocol = protocol
        self._spec = spec
        self._last_nc: Optional[MessageId] = None
        self._cset: List[MessageId] = []
        self.requests_sent = 0
        self.cycles_opened = 0
        protocol.on_deliver(self._on_group_delivery)

    # -- issuing requests ----------------------------------------------------

    def request(self, operation: str, payload: object = None) -> MessageId:
        """Issue one client request with the Section 6.1 ordering."""
        self.requests_sent += 1
        if self._spec.is_commutative(operation):
            return self._send_commutative(operation, payload)
        return self._send_non_commutative(operation, payload)

    def _send_commutative(self, operation: str, payload: object) -> MessageId:
        predicate = OccursAfter.after(self._last_nc)
        label = self._protocol.osend(operation, payload, occurs_after=predicate)
        self._cset.append(label)
        return label

    def _send_non_commutative(self, operation: str, payload: object) -> MessageId:
        if self._cset:
            # The anchor is included alongside {Cid}: with a single
            # front-end it is implied transitively (every Cid hangs off
            # it), but a *remotely* installed anchor need not be an
            # ancestor of locally issued Cids, and omitting it would let
            # the previous cycle's history escape this sync point's
            # causal cut.
            ancestors = set(self._cset)
            if self._last_nc is not None:
                ancestors.add(self._last_nc)
            predicate = OccursAfter.after(ancestors)
        else:
            predicate = OccursAfter.after(self._last_nc)
        label = self._protocol.osend(operation, payload, occurs_after=predicate)
        self._last_nc = label
        self._cset = []
        self.cycles_opened += 1
        return label

    # -- tracking the group's progress ---------------------------------------------

    def _on_group_delivery(self, envelope: Envelope) -> None:
        """Absorb knowledge from delivered traffic.

        A delivered non-commutative message from *another* manager becomes
        our new cycle anchor; commutative labels it covered are dropped
        from our pending set (they are in its causal past).
        """
        if envelope.msg_id.sender == self._protocol.entity_id:
            return
        if self._spec.is_commutative(envelope.message.operation):
            if envelope.msg_id != self._last_nc:
                self._cset.append(envelope.msg_id)
            return
        self._last_nc = envelope.msg_id
        covered = self._protocol.graph.causal_past(envelope.msg_id)
        self._cset = [c for c in self._cset if c not in covered]

    # -- introspection --------------------------------------------------------------

    @property
    def last_sync_label(self) -> Optional[MessageId]:
        """The current cycle anchor (``Ncid`` of the open cycle)."""
        return self._last_nc

    @property
    def open_commutative_labels(self) -> List[MessageId]:
        """Commutative labels of the open cycle (``{Cid}``)."""
        return list(self._cset)
