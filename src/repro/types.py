"""Core value types shared across the library.

The paper models a distributed application as a set of entities
``{a_i, a_j, a_k}`` exchanging *data access messages* ``M`` under causal
constraints ``R(M)``.  This module defines the identifiers and message
containers every other subsystem builds on:

* :class:`EntityId` / :class:`MessageId` — hashable identifiers,
* :class:`Message` — an application-level message (operation + payload),
* :class:`Envelope` — a message in flight, carrying protocol metadata such
  as ``Occurs-After`` ancestor labels or a vector clock,
* :class:`DeliveryRecord` — what a replica observed, used by the analysis
  and consistency-checking layers,
* :class:`Violation` — one invariant breach, as the data plane reports a
  livelock or non-convergence and the audit batteries
  (:mod:`repro.analysis.invariants`, which re-exports it) report the rest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Any, Hashable, Mapping, NamedTuple, NoReturn, Optional, Tuple

# ---------------------------------------------------------------------------
# Identifiers
# ---------------------------------------------------------------------------

EntityId = str
"""Identifier of an application entity (client, server replica, player...)."""


class MessageId(tuple):
    """Globally unique message label.

    The paper's ``OSend`` primitive names messages so that causal relations
    can reference them explicitly ("message labels", Section 6.1).  A label
    is the pair *(sender, per-sender sequence number)*, which is unique
    without coordination.

    Labels live in the hot sets of every layer (dedup, delivery, closures,
    frontiers), so a label *is* the tuple ``(sender, seqno)``: hashing,
    equality and lexicographic order are the tuple's own, computed in C,
    and ``hash(label) == hash((sender, seqno))``.  A label is one value,
    not a collection: iterating or unpacking it raises ``TypeError``, so
    a bare label passed where a set of labels is expected fails loudly
    instead of being read as ``{sender, seqno}``.
    """

    __slots__ = ()

    def __new__(cls, sender: EntityId, seqno: int) -> "MessageId":
        return tuple.__new__(cls, (sender, seqno))

    sender = property(itemgetter(0), doc="The sending entity.")
    seqno = property(itemgetter(1), doc="The per-sender sequence number.")

    def __iter__(self) -> NoReturn:
        raise TypeError(f"a message label is not a collection of labels: {self}")

    def __getnewargs__(self) -> Tuple[EntityId, int]:
        # Pickle and copy rebuild through `__new__`; the tuple default
        # would iterate.
        return (self[0], self[1])

    def __repr__(self) -> str:
        return f"MessageId(sender={self[0]!r}, seqno={self[1]!r})"

    def __str__(self) -> str:
        return f"{self[0]}:{self[1]}"


class MessageIdAllocator:
    """Allocates consecutive :class:`MessageId` values for one sender."""

    def __init__(self, sender: EntityId, start: int = 0) -> None:
        self._sender = sender
        self._counter = itertools.count(start)

    @property
    def sender(self) -> EntityId:
        return self._sender

    def next_id(self) -> MessageId:
        return MessageId(self._sender, next(self._counter))


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


class Message(NamedTuple):
    """An application-level data access message.

    ``operation`` names the service operation being invoked (e.g. ``"inc"``,
    ``"rd"``, ``"qry"``, ``"upd"``, ``"LOCK"``) and ``payload`` carries its
    arguments.  The pair is interpreted by the application's state-machine
    transition function ``F: M x S -> S`` (paper Section 3.2, relation (1)).
    """

    msg_id: MessageId
    operation: str
    payload: Any = None

    @property
    def sender(self) -> EntityId:
        return self.msg_id.sender


#: The metadata of an envelope stamped with none: one shared, read-only
#: empty mapping.
NO_METADATA: Mapping[str, Any] = MappingProxyType({})


class Envelope(NamedTuple):
    """A message in flight, together with protocol metadata.

    ``metadata`` is a protocol-specific mapping.  The causal broadcast
    protocols of :mod:`repro.broadcast` use (among others):

    ``"occurs_after"``
        A frozenset of ancestor :class:`MessageId` labels (the paper's
        ``Occurs-After`` AND-dependency, relation (3)).
    ``"vclock"``
        A vector clock snapshot (CBCAST).
    ``"total_seq"``
        A total-order sequence number assigned by the ordering layer
        (``ASend``, Section 5.2).
    """

    message: Message
    metadata: Mapping[str, Any] = NO_METADATA

    msg_id = property(attrgetter("message.msg_id"), doc="The message's label.")

    def with_metadata(self, **extra: Any) -> "Envelope":
        """Return a copy of this envelope with additional metadata keys."""
        merged = dict(self.metadata)
        merged.update(extra)
        return Envelope(self.message, merged)

    def __reduce__(self) -> Tuple[Any, ...]:
        # NO_METADATA cannot be pickled; the default restores it.
        if self.metadata is NO_METADATA:
            return (Envelope, (self.message,))
        return (Envelope, (self.message, self.metadata))


@dataclass(frozen=True)
class DeliveryRecord:
    """One delivery event observed at a replica.

    ``position`` is the index in the replica's local delivery sequence and
    ``time`` is the simulation time of delivery.  The analysis layer uses
    sequences of these records to verify causal delivery and to locate the
    stable points of Section 4.
    """

    entity: EntityId
    msg_id: MessageId
    position: int
    time: float


@dataclass(frozen=True)
class Violation:
    """One invariant breach at (usually) one member."""

    invariant: str
    member: Optional[EntityId]
    detail: str

    def __str__(self) -> str:  # pragma: no cover - trivial formatting
        where = f" at {self.member!r}" if self.member is not None else ""
        return f"[{self.invariant}]{where}: {self.detail}"


def freeze_ancestors(ancestors: Any) -> frozenset[MessageId]:
    """Normalise an ``Occurs-After`` specification to a frozenset of labels.

    Accepts ``None`` (no constraint — the paper's ``Occurs-After(NULL)``),
    a single :class:`MessageId`, or any iterable of them.
    """
    if ancestors is None:
        return frozenset()
    if isinstance(ancestors, MessageId):
        return frozenset((ancestors,))
    return frozenset(ancestors)


def is_hashable(value: Any) -> bool:
    """Return ``True`` if ``value`` can be used as a dict key / set member."""
    return isinstance(value, Hashable)
