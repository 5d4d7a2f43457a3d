"""The per-destination fan-out: the reference for ``Network.broadcast``.

:meth:`Network.broadcast <repro.net.network.Network.broadcast>` fans a
broadcast out inline: sent straight, one ``_transmit`` per destination;
corked, the envelope is appended to each link's parked list in place.
:class:`PerDestinationNetwork` is the transport it replaced, in which
every hop — a broadcast's, one destination at a time, and a unicast —
went through one ``_send`` that parked or transmitted it.  It is kept
here so ``test_fanout_equivalence.py`` can hold the inline fan-out to
it, frame for frame.
"""

from __future__ import annotations

from repro.errors import MembershipError
from repro.net.network import Network
from repro.types import Envelope, EntityId


class PerDestinationNetwork(Network):
    """Every hop through ``_send``; a broadcast one destination at a time."""

    def unicast(
        self, source: EntityId, destination: EntityId, envelope: Envelope
    ) -> None:
        if destination not in self._nodes:
            raise MembershipError(f"unknown destination: {destination!r}")
        self._send(source, destination, envelope)

    def broadcast(self, source: EntityId, envelope: Envelope) -> None:
        if self.trace.enabled:
            self.trace.record(
                self.scheduler.now,
                "send",
                source=source,
                msg_id=envelope.msg_id,
                operation=envelope.message.operation,
            )
        for destination in self._nodes:
            self._send(source, destination, envelope)

    def _send(
        self, source: EntityId, destination: EntityId, envelope: Envelope
    ) -> None:
        if self._parked is None:
            self._transmit(source, destination, (envelope,))
        else:
            self._parked.setdefault((source, destination), []).append(envelope)
