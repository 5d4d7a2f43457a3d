"""A cut of the label streams: the settled set's one form.

What a member has settled from one origin is a contiguous prefix of that
origin's stream plus the few labels that arrived above it (the paper's
Section 4 stable points; YACA keeps one counter per sender).  A
:class:`Cut` is that value, frozen: ``prefix`` maps each origin to the
seqno below which every label of its stream is in the cut, and ``above``
holds the cut's labels past their origin's prefix.

The form is canonical: no origin has a zero prefix, and no label of
``above`` sits below its origin's prefix or at it (it folds in).  So two
cuts hold the same labels iff their forms are equal, and ``==``, ``<=``,
``>=`` and ``|`` between two cuts cost O(origins + above) and build no
label.  Against any other collection of labels a cut is a
:class:`collections.abc.Set` and compares by membership; what the mixins
build (``&``, ``-``, ``|`` with a plain set) is a ``frozenset``;
:meth:`Cut.beyond` walks what one cut has over another without touching
what they share.

Only :mod:`repro.broadcast` builds a cut from a member's state
(``BroadcastProtocol.cut`` and ``known_cut``); view synchrony, the
barrier reads and the audits compare, join and iterate them.
"""

from __future__ import annotations

from collections.abc import Set
from types import MappingProxyType
from typing import Any, Dict, FrozenSet, Iterable, Iterator, Mapping

from repro.types import EntityId, MessageId

_NO_PREFIX: Mapping[EntityId, int] = MappingProxyType({})


class Cut(Set):
    """An immutable per-origin prefix vector plus the labels above it."""

    __slots__ = ("_prefix", "_above")

    def __init__(
        self,
        prefix: Mapping[EntityId, int] = _NO_PREFIX,
        above: Iterable[MessageId] = (),
    ) -> None:
        tops = {origin: top for origin, top in prefix.items() if top > 0}
        rest = {label for label in above if label[1] >= tops.get(label[0], 0)}
        for origin in {label[0] for label in rest}:
            top = tops.get(origin, 0)
            while (origin, top) in rest:
                rest.remove((origin, top))
                top += 1
            if top:
                tops[origin] = top
        self._prefix: Dict[EntityId, int] = tops
        self._above: FrozenSet[MessageId] = frozenset(rest)

    @classmethod
    def _from_iterable(cls, labels: Iterable[Any]) -> FrozenSet:
        return frozenset(labels)

    @property
    def prefix(self) -> Dict[EntityId, int]:
        """Per origin, the seqno below which its whole stream is in."""
        return dict(self._prefix)

    @property
    def above(self) -> FrozenSet[MessageId]:
        """The labels in the cut above their origin's prefix."""
        return self._above

    def __contains__(self, label: object) -> bool:
        if type(label) is not MessageId and (
            not isinstance(label, tuple) or len(label) != 2
        ):
            return False
        seqno = label[1]
        return (
            isinstance(seqno, int) and 0 <= seqno < self._prefix.get(label[0], 0)
        ) or label in self._above

    def __iter__(self) -> Iterator[MessageId]:
        """The labels in sorted order."""
        above = sorted(self._above)
        at = 0
        for origin in sorted({*self._prefix, *(label[0] for label in above)}):
            for seqno in range(self._prefix.get(origin, 0)):
                yield MessageId(origin, seqno)
            while at < len(above) and above[at][0] == origin:
                yield above[at]
                at += 1

    def __len__(self) -> int:
        return sum(self._prefix.values()) + len(self._above)

    def top(self, origin: EntityId) -> int:
        """The seqno below which ``origin``'s whole stream is in: the
        first of its labels that may be missing."""
        return self._prefix.get(origin, 0)

    def beyond(self, floor: "Cut") -> Iterator[MessageId]:
        """The labels of this cut that ``floor`` lacks, in
        O(origins + what differs): per origin the seqnos between the two
        prefixes, then the labels above — never the shared history."""
        tops, above = floor._prefix, floor._above
        for origin, top in self._prefix.items():
            for seqno in range(tops.get(origin, 0), top):
                label = MessageId(origin, seqno)
                if label not in above:
                    yield label
        for label in self._above:
            if label not in floor:
                yield label

    def __le__(self, other: Any) -> bool:
        if not isinstance(other, Cut):
            return Set.__le__(self, other)
        tops = other._prefix
        return all(
            tops.get(origin, 0) >= top for origin, top in self._prefix.items()
        ) and all(label in other for label in self._above)

    def __ge__(self, other: Any) -> bool:
        if not isinstance(other, Cut):
            return Set.__ge__(self, other)
        return other <= self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cut):
            return Set.__eq__(self, other)
        return self._prefix == other._prefix and self._above == other._above

    def __or__(self, other: Any) -> Any:
        if not isinstance(other, Cut):
            return Set.__or__(self, other)
        tops = dict(self._prefix)
        for origin, top in other._prefix.items():
            if top > tops.get(origin, 0):
                tops[origin] = top
        return Cut(tops, self._above | other._above)

    def __repr__(self) -> str:
        return f"Cut({dict(sorted(self._prefix.items()))}, {sorted(self._above)})"
