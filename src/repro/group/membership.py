"""Group membership and views.

The paper realises causal broadcasting "by organizing various entities as
members of a group, and sending every message ... to all the members"
(Section 3).  :class:`GroupView` is an immutable snapshot of the membership
(with a monotonically increasing view id, as in virtual synchrony);
:class:`GroupMembership` manages the current view and notifies listeners of
view changes so protocols can adjust (e.g. drop hold-back entries that wait
on a departed member).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Tuple

from repro.errors import MembershipError
from repro.types import EntityId


@dataclass(frozen=True)
class GroupView:
    """Immutable membership snapshot.

    ``members`` is ordered (a tuple) so deterministic algorithms — like the
    arbitration sequence of the lock protocol in Section 6.2 — can rely on
    a ranking shared by every member.
    """

    view_id: int
    members: Tuple[EntityId, ...]

    def __post_init__(self) -> None:
        if len(set(self.members)) != len(self.members):
            raise MembershipError("duplicate members in view")

    def __contains__(self, entity: EntityId) -> bool:
        return entity in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[EntityId]:
        return iter(self.members)

    def rank(self, entity: EntityId) -> int:
        """Position of ``entity`` in the deterministic member ordering."""
        try:
            return self.members.index(entity)
        except ValueError:
            raise MembershipError(f"{entity!r} not in view {self.view_id}") from None

    def successor(self, entity: EntityId) -> EntityId:
        """The next member in rank order, wrapping around."""
        rank = self.rank(entity)
        return self.members[(rank + 1) % len(self.members)]

    def as_set(self) -> FrozenSet[EntityId]:
        return frozenset(self.members)


ViewListener = Callable[[GroupView], None]


class GroupMembership:
    """Mutable view manager with change notification."""

    def __init__(self, members: Iterable[EntityId]) -> None:
        initial = tuple(members)
        if not initial:
            raise MembershipError("a group needs at least one member")
        self._view = GroupView(0, initial)
        self._listeners: List[ViewListener] = []
        #: view id -> its installer's cut, opaque here, for late adopters.
        self.install_cuts: Dict[int, object] = {}

    @property
    def view(self) -> GroupView:
        return self._view

    @property
    def members(self) -> Tuple[EntityId, ...]:
        return self._view.members

    def subscribe(self, listener: ViewListener) -> None:
        """Invoke ``listener`` with each new view after it is installed."""
        self._listeners.append(listener)

    # -- changes ------------------------------------------------------------

    def join(self, entity: EntityId) -> GroupView:
        """Install a new view with ``entity`` appended."""
        if entity in self._view:
            raise MembershipError(f"{entity!r} is already a member")
        return self._install(self._view.members + (entity,))

    def leave(self, entity: EntityId) -> GroupView:
        """Install a new view without ``entity``."""
        if entity not in self._view:
            raise MembershipError(f"{entity!r} is not a member")
        remaining = tuple(m for m in self._view.members if m != entity)
        if not remaining:
            raise MembershipError("cannot remove the last member")
        return self._install(remaining)

    def _install(self, members: Tuple[EntityId, ...]) -> GroupView:
        self._view = GroupView(self._view.view_id + 1, members)
        for listener in self._listeners:
            listener(self._view)
        return self._view
