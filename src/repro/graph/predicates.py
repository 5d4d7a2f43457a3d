"""``Occurs-After`` ordering predicates.

The paper's ``OSend`` primitive (Section 3.1) names its ordering constraint
explicitly::

    OSend(Msg, G, Occurs-After(m))

where the predicate takes one of three shapes:

* ``Occurs-After(NULL)`` — no constraint; the message is *spontaneous*,
* ``Occurs-After(m)`` — a single ancestor,
* ``Occurs-After(m1 ∧ m2 ∧ ...)`` — an AND dependency on several ancestors
  (relation (3): "Msg can be processed after *all* messages in {m}").

:class:`OccursAfter` is the value object an envelope carries as its
``occurs_after`` field; the delivery rule is simply "all ancestors already delivered" — see
:meth:`OccursAfter.satisfied_by`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Union

from repro.types import MessageId, freeze_ancestors


@dataclass(frozen=True)
class OccursAfter:
    """An AND-set of ancestor message labels.

    An empty set encodes ``Occurs-After(NULL)``: the message may be
    processed without constraint.
    """

    ancestors: frozenset[MessageId]

    # -- constructors ------------------------------------------------------

    @classmethod
    def null(cls) -> "OccursAfter":
        """The unconstrained predicate (paper: ``m = NULL``)."""
        return cls(frozenset())

    @classmethod
    def after(
        cls,
        ancestors: Union[None, MessageId, Iterable[MessageId]],
    ) -> "OccursAfter":
        """Build a predicate from one label, many labels, or ``None``."""
        return cls(freeze_ancestors(ancestors))

    # -- queries -----------------------------------------------------------

    @property
    def is_null(self) -> bool:
        return not self.ancestors

    def satisfied_by(self, delivered: AbstractSet[MessageId]) -> bool:
        """True iff every ancestor label has already been delivered."""
        return self.ancestors <= delivered

    def missing(self, delivered: AbstractSet[MessageId]) -> frozenset[MessageId]:
        """The ancestors still blocking delivery."""
        return self.ancestors - delivered

    def __len__(self) -> int:
        return len(self.ancestors)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_null:
            return "OccursAfter(NULL)"
        labels = " ∧ ".join(sorted(str(a) for a in self.ancestors))
        return f"OccursAfter({labels})"
