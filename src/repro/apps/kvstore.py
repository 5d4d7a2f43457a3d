"""Replicated key-value store with item-scoped ordering.

Demonstrates Section 5.1's point that stability "relates to decomposition
of the data into distinct items and scoping out the effects of messages on
these items": writes to *different* keys commute and stay concurrent;
writes to the *same* key are chained causally (last-writer order is the
declared order); a read of a key occurs after every outstanding write the
issuer knows for that key.

The per-key chaining is a finer ordering policy than the category-based
:class:`~repro.core.frontend.FrontEndManager`, so the store carries its
own :class:`KeyedFrontEnd` — an example of building new ordering
disciplines on the ``OSend`` primitive.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.broadcast.osend import OSendBroadcast
from repro.core.commutativity import CommutativitySpec
from repro.core.state_machine import StateMachine
from repro.graph.predicates import OccursAfter
from repro.group.membership import GroupMembership
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.types import Envelope, EntityId, Message, MessageId


def kv_machine() -> StateMachine:
    """State: immutable frozenset of (key, value) pairs."""

    def put(state: frozenset, message: Message) -> frozenset:
        entries = {k: v for k, v in state}
        entries[message.payload["key"]] = message.payload["value"]
        return frozenset(entries.items())

    def delete(state: frozenset, message: Message) -> frozenset:
        entries = {k: v for k, v in state}
        entries.pop(message.payload["key"], None)
        return frozenset(entries.items())

    def get(state: frozenset, message: Message) -> frozenset:
        return state

    return StateMachine(frozenset(), {"put": put, "del": delete, "get": get})


def kv_spec() -> CommutativitySpec:
    """puts/deletes on different keys commute; same key conflicts.

    ``get`` is never commutative (it is a synchronization point for its
    key), expressed by the extra rule.
    """

    def rule(a: Message, b: Message) -> Optional[bool]:
        if a.payload["key"] != b.payload["key"]:
            return True
        if "get" in (a.operation, b.operation):
            return False
        return None

    return CommutativitySpec(commutative_ops=set(), extra_rule=rule)


def fold_ledger(records: Iterable) -> Dict[str, object]:
    """Fold issue-ordered ledger records into key/value state.

    The test reference: it applies :func:`kv_machine`'s ``put`` record by
    record, and ``tests/shard/test_snapshot_closure.py`` checks every
    barrier read's value against it.  Nothing on the serving path calls
    it — the barrier folds its cut in :meth:`repro.shard.ledger.Ledger.fold`
    and a ``get`` is a replica read of the key's newest settled write.

    ``records`` are :class:`~repro.shard.ledger.OpRecord`-shaped objects
    (``kind``/``value`` attributes) already sorted by issue index; kinds
    other than ``put``/``migrate`` are control traffic and fold to
    nothing.
    """
    machine = kv_machine()
    state = machine.initial_state
    for record in records:
        if record.kind == "put":
            state = machine.apply(
                state, Message(record.label, "put", record.value)
            )
        elif record.kind == "migrate":
            entries = {key: value for key, value in state}
            entries.update(record.value["entries"])
            state = frozenset(entries.items())
    return dict(state)


class KeyedFrontEnd:
    """Per-key causal chaining over ``OSend``.

    Tracks, per key, the labels of writes not yet covered by a later
    operation on the same key; chains same-key writes; AND-depends reads
    on all known outstanding writes to their key.
    """

    def __init__(self, protocol: OSendBroadcast) -> None:
        self._protocol = protocol
        self._last_write: Dict[str, MessageId] = {}
        protocol.on_deliver(self._on_delivery)

    def put(self, key: str, value: object) -> MessageId:
        label = self._protocol.osend(
            "put",
            {"key": key, "value": value},
            occurs_after=self._last_write.get(key),
        )
        self._last_write[key] = label
        return label

    def delete(self, key: str) -> MessageId:
        label = self._protocol.osend(
            "del", {"key": key}, occurs_after=self._last_write.get(key)
        )
        self._last_write[key] = label
        return label

    def get(self, key: str) -> MessageId:
        return self._protocol.osend(
            "get", {"key": key}, occurs_after=self._last_write.get(key)
        )

    def _on_delivery(self, envelope: Envelope) -> None:
        """Learn about other front-ends' writes from delivered traffic."""
        if envelope.message.operation not in ("put", "del"):
            return
        if envelope.msg_id.sender == self._protocol.entity_id:
            return
        key = envelope.message.payload["key"]
        self._last_write[key] = envelope.msg_id


class KVStoreSystem:
    """A replicated key-value store over ``OSend``."""

    def __init__(
        self,
        members: Sequence[EntityId],
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
    ) -> None:
        self.scheduler = Scheduler()
        self.rng = RngRegistry(seed)
        self.network = Network(self.scheduler, latency=latency, rng=self.rng)
        membership = GroupMembership(members)
        self.machine = kv_machine()
        self.spec = kv_spec()
        self.protocols: Dict[EntityId, OSendBroadcast] = {}
        self.frontends: Dict[EntityId, KeyedFrontEnd] = {}
        self._states: Dict[EntityId, frozenset] = {}
        for entity in members:
            protocol = OSendBroadcast(entity, membership)
            self.network.register(protocol)
            self.protocols[entity] = protocol
            self.frontends[entity] = KeyedFrontEnd(protocol)
            self._states[entity] = self.machine.initial_state
            protocol.on_deliver(self._make_applier(entity))

    def _make_applier(self, entity: EntityId):
        def apply(envelope: Envelope) -> None:
            self._states[entity] = self.machine.apply(
                self._states[entity], envelope.message
            )

        return apply

    # -- convenience API -------------------------------------------------------

    def put(self, member: EntityId, key: str, value: object) -> MessageId:
        return self.frontends[member].put(key, value)

    def delete(self, member: EntityId, key: str) -> MessageId:
        return self.frontends[member].delete(key)

    def get(self, member: EntityId, key: str) -> MessageId:
        return self.frontends[member].get(key)

    def run(self) -> None:
        self.scheduler.run()

    # -- inspection ----------------------------------------------------------------

    def value_at(self, member: EntityId, key: str) -> Optional[object]:
        return dict(self._states[member]).get(key)

    def states(self) -> Dict[EntityId, frozenset]:
        return dict(self._states)

    def converged(self) -> bool:
        states = list(self._states.values())
        return all(s == states[0] for s in states[1:])
