"""Base class for simulated protocol endpoints.

A :class:`SimNode` is an application entity (``a_i`` in the paper) attached
to a scheduler and a network.  Subclasses — broadcast protocol stacks,
replicas, clients — override :meth:`on_receive` to process incoming
envelopes and use :meth:`send` or the attached network's ``broadcast``.
The network hands a node each arriving frame whole (:meth:`on_frame`);
the default feeds :meth:`on_receive` one envelope at a time.

Crash-stop fault model
----------------------

A node can :meth:`crash` and later :meth:`restart`.  While crashed:

* the network discards every hop addressed to it (and every hop it would
  originate), so it neither receives nor sends;
* timers armed through the node's *guarded* scheduling helpers
  (:meth:`call_in` / :meth:`call_at` / :meth:`call_now`) are suppressed —
  they fire only if the node is up **and** still in the incarnation that
  armed them, so a restart also cancels the previous life's timers.

:meth:`restart` begins a new *incarnation* (a monotonically increasing
counter) and invokes the :meth:`_on_restart` hook, where subclasses model
volatile-state loss — a restarted node is *amnesiac* except for whatever
the subclass declares durable (e.g. its message-label allocator, so labels
are never reused across incarnations).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.types import Envelope, EntityId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network
    from repro.sim.scheduler import Scheduler


class SimNode:
    """A named endpoint living on a simulated network."""

    def __init__(self, entity_id: EntityId) -> None:
        self.entity_id = entity_id
        self._network: Optional["Network"] = None
        self._crashed = False
        self._incarnation = 0

    # -- wiring -------------------------------------------------------------

    def attach(self, network: "Network") -> None:
        """Called by :class:`~repro.net.network.Network` on registration."""
        self._network = network

    @property
    def network(self) -> "Network":
        if self._network is None:
            raise ConfigurationError(
                f"node {self.entity_id!r} is not attached to a network"
            )
        return self._network

    @property
    def scheduler(self) -> "Scheduler":
        return self.network.scheduler

    @property
    def now(self) -> float:
        """Current simulation time (shortcut for ``self.scheduler.now``)."""
        return self.scheduler.now

    # -- crash-stop lifecycle ------------------------------------------------

    @property
    def crashed(self) -> bool:
        """Whether the node is currently down."""
        return self._crashed

    @property
    def incarnation(self) -> int:
        """Number of restarts so far (0 for the original life)."""
        return self._incarnation

    def crash(self) -> None:
        """Take the node down (crash-stop: no further sends or receives)."""
        if self._crashed:
            raise SimulationError(f"{self.entity_id!r} is already crashed")
        self._crashed = True
        self._on_crash()

    def restart(self) -> None:
        """Bring the node back up as a new, amnesiac incarnation."""
        if not self._crashed:
            raise SimulationError(f"{self.entity_id!r} is not crashed")
        self._crashed = False
        self._incarnation += 1
        self._on_restart()

    def _on_crash(self) -> None:
        """Hook invoked when the node goes down."""

    def _on_restart(self) -> None:
        """Hook invoked on restart; a subclass rebuilds its volatile state
        here (``docs/ROBUSTNESS.md``'s durable/volatile table names it per
        class)."""

    # -- guarded timers --------------------------------------------------------

    def call_at(self, time: float, callback: Callable[..., Any], *args: Any):
        """Schedule ``callback`` at ``time``, suppressed if this node is
        down (or restarted) when the timer fires."""
        return self.scheduler.call_at(time, self._guard(callback), *args)

    def call_in(self, delay: float, callback: Callable[..., Any], *args: Any):
        """Schedule ``callback`` after ``delay`` with the crash guard."""
        return self.scheduler.call_in(delay, self._guard(callback), *args)

    def call_now(self, callback: Callable[..., Any], *args: Any):
        """Schedule ``callback`` at the current time with the crash guard."""
        return self.scheduler.call_now(self._guard(callback), *args)

    def _guard(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        armed_in = self._incarnation

        def guarded(*args: Any) -> None:
            if self._crashed or self._incarnation != armed_in:
                return
            callback(*args)

        return guarded

    # -- sending ------------------------------------------------------------

    def send(self, destination: EntityId, envelope: Envelope) -> None:
        """Send ``envelope`` point-to-point to ``destination``."""
        if self._crashed:
            raise SimulationError(
                f"{self.entity_id!r} is crashed and cannot send"
            )
        self.network.unicast(self.entity_id, destination, envelope)

    # -- receiving ------------------------------------------------------------

    def on_frame(self, sender: EntityId, envelopes: Sequence[Envelope]) -> int:
        """Take a frame that landed: ``envelopes`` in send order.

        Records each envelope's ``receive`` trace event and hands it to
        :meth:`on_receive`, stopping if the node crashes mid-frame (the
        rest are lost with the crash).  Returns how many envelopes were
        taken, so the network can count the rest dropped.
        """
        network = self._network
        trace = network.trace
        taken = 0
        for envelope in envelopes:
            if self._crashed:
                break
            taken += 1
            # Per-hop events dominate tracing cost at scale; a disabled
            # recorder skips the dict build.
            if trace.enabled:
                trace.record(
                    network.scheduler.now,
                    "receive",
                    source=sender,
                    destination=self.entity_id,
                    msg_id=envelope.msg_id,
                )
            self.on_receive(sender, envelope)
        return taken

    def on_receive(self, sender: EntityId, envelope: Envelope) -> None:
        """Handle an envelope arriving from the network.

        Subclasses must override.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.entity_id}>"
