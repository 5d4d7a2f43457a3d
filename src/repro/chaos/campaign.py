"""Declarative fault-injection campaigns.

A campaign is a timed script of disturbances — crashes, restarts,
membership churn, partitions, loss/duplication phases — interleaved with
application sends.  :func:`random_campaign` generates seeded random
campaigns that respect the rules under which the repair machinery is
*expected* to restore liveness (see ``docs/ROBUSTNESS.md``):

* at most one member is down at any time (episodes are serialised);
* every crash is paired with a restart, every removal with a rejoin,
  every partition with a heal, every loss/duplication phase with a reset
  — campaigns end with the full group healthy;
* membership changes are not scheduled while another disturbance is in
  flight.

``random_campaign(..., overlap=True)`` relaxes the serialisation rules:
episodes start while earlier ones are still in flight (membership churn
may coincide with an in-flight crash or partition), relying on the
failure detector (:class:`~repro.group.auto_membership.MembershipManager`)
to repair whatever the overlap wedges.  Two rules survive the
relaxation: outages never take the group below two live members, and
every disturbance is still paired with its recovery — campaigns end with
the full group healthy.

The :class:`~repro.chaos.cluster.ChaosCluster` runner executes the
script, then drives repair to convergence and audits every safety
invariant (:mod:`repro.analysis.invariants`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.types import EntityId

#: Disturbance kinds `random_campaign` can draw from.
DISTURBANCES = ("crash", "partition", "loss", "dup", "churn")

#: Application sends `random_campaign` sprinkles per member.
SENDS_PER_MEMBER = 6

_ACTIONS = frozenset(
    ("send", "crash", "restart", "remove", "rejoin",
     "partition", "heal", "loss", "dup",
     # Sharded-mode actions, interpreted by
     # :meth:`repro.shard.cluster.ShardedCluster.run_campaign`: keyed
     # session writes, stable-point barrier reads, slot rebalancing.
     # Fault actions in a sharded campaign carry ``(shard, arg)`` so the
     # runner can dispatch them to the right replication group.
     "op", "read", "rebalance")
)


@dataclass(frozen=True)
class ChaosEvent:
    """One timed action.

    ``action`` is one of:

    ``send``         broadcast an application message from member ``arg``
    ``crash``        crash-stop member ``arg`` (stays in the view)
    ``restart``      restart member ``arg`` (amnesiac rejoin-in-place)
    ``remove``       crash member ``arg`` and propose its removal
    ``rejoin``       propose re-adding member ``arg``; restart it once
                     the join installs
    ``partition``    split the network into groups ``arg`` (tuple of
                     tuples of entity ids)
    ``heal``         remove all partitions
    ``loss``         set the per-hop drop probability to ``arg``
    ``dup``          set the per-hop duplication probability to ``arg``

    Sharded campaigns (:func:`repro.shard.campaign.sharded_campaign`)
    additionally use:

    ``op``           keyed session write: ``arg = (session, key, value)``
    ``read``         stable-point barrier read: ``arg = (session, shards)``
    ``rebalance``    move a slot between groups: ``arg = (slot, dest)``
    """

    time: float
    action: str
    arg: Any = None

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ConfigurationError(f"unknown chaos action: {self.action!r}")
        if self.time < 0:
            raise ConfigurationError(f"negative event time: {self.time}")


@dataclass(frozen=True)
class ChaosCampaign:
    """A named, ordered script of chaos events."""

    name: str
    events: Tuple[ChaosEvent, ...]
    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigurationError("campaign duration must be positive")


def random_campaign(
    members: Sequence[EntityId],
    seed: int,
    disturbances: Sequence[str] = DISTURBANCES,
    overlap: bool = False,
) -> ChaosCampaign:
    """Generate a seeded random campaign over ``members``.

    By default, disturbance episodes are laid out sequentially (never
    overlapping), each paired with its recovery action; sends are
    sprinkled across the whole timeline, including inside disturbance
    windows — sends from a crashed or flush-frozen member are skipped by
    the runner, which is itself part of what the campaign exercises.

    With ``overlap=True``, the cursor advances only a fraction of each
    episode, so later disturbances land while earlier ones are still in
    flight.  Outage members (crash/churn) are drawn from members not
    already down in the window, and concurrent outages are capped so at
    least two members stay up at any time; if no member fits, the episode
    falls back to serial placement after the in-flight outages end.
    Every disturbance stays paired with its recovery.
    """
    if len(members) < 2:
        raise ConfigurationError("a chaos campaign needs >= 2 members")
    unknown = set(disturbances) - set(DISTURBANCES)
    if unknown:
        raise ConfigurationError(f"unknown disturbances: {sorted(unknown)}")
    rng = random.Random(seed)
    events = []
    kinds = list(disturbances)
    rng.shuffle(kinds)
    cursor = 4.0
    # Outage windows laid so far: (start, end, member).
    down_windows: list = []
    max_down = max(1, len(members) - 2)

    def pick_down_member(start: float, length: float):
        """A member that may go down for [start, start+length), or None."""
        end = start + length
        overlapping = [
            w for w in down_windows if w[0] < end and start < w[1]
        ]
        if len(overlapping) >= max_down:
            return None
        busy = {w[2] for w in overlapping}
        candidates = [m for m in members if m not in busy]
        if not candidates:
            return None
        return rng.choice(candidates)

    def place_outage(length: float):
        """Choose (start, member) for an outage of ``length``."""
        nonlocal cursor
        member = pick_down_member(cursor, length)
        if member is None:
            # No room to overlap: serialise after the in-flight outages.
            cursor = max([w[1] for w in down_windows] + [cursor]) + 1.0
            member = rng.choice(list(members))
        down_windows.append((cursor, cursor + length, member))
        return member

    for kind in kinds:
        if kind == "crash":
            if overlap:
                downtime = rng.uniform(8.0, 14.0)
                member = place_outage(downtime)
            else:
                member = rng.choice(list(members))
                downtime = rng.uniform(8.0, 14.0)
                down_windows.append((cursor, cursor + downtime, member))
            events.append(ChaosEvent(round(cursor, 2), "crash", member))
            events.append(
                ChaosEvent(round(cursor + downtime, 2), "restart", member)
            )
            if overlap:
                cursor += downtime * rng.uniform(0.25, 0.6)
            else:
                cursor += downtime + rng.uniform(5.0, 9.0)
        elif kind == "churn":
            if overlap:
                away = rng.uniform(10.0, 16.0)
                member = place_outage(away)
            else:
                member = rng.choice(list(members))
                away = rng.uniform(10.0, 16.0)
                down_windows.append((cursor, cursor + away, member))
            events.append(ChaosEvent(round(cursor, 2), "remove", member))
            events.append(
                ChaosEvent(round(cursor + away, 2), "rejoin", member)
            )
            if overlap:
                cursor += away * rng.uniform(0.3, 0.7)
            else:
                cursor += away + rng.uniform(10.0, 14.0)
        elif kind == "partition":
            shuffled = list(members)
            rng.shuffle(shuffled)
            cut = rng.randint(1, len(shuffled) - 1)
            groups = (tuple(shuffled[:cut]), tuple(shuffled[cut:]))
            heal_after = rng.uniform(5.0, 9.0)
            events.append(ChaosEvent(round(cursor, 2), "partition", groups))
            events.append(ChaosEvent(round(cursor + heal_after, 2), "heal"))
            if overlap:
                cursor += heal_after * rng.uniform(0.4, 0.8)
            else:
                cursor += heal_after + rng.uniform(5.0, 8.0)
        elif kind == "loss":
            phase = rng.uniform(8.0, 12.0)
            events.append(ChaosEvent(
                round(cursor, 2), "loss", round(rng.uniform(0.05, 0.25), 3)
            ))
            events.append(ChaosEvent(round(cursor + phase, 2), "loss", 0.0))
            if overlap:
                cursor += phase * rng.uniform(0.3, 0.7)
            else:
                cursor += phase + rng.uniform(4.0, 7.0)
        elif kind == "dup":
            phase = rng.uniform(6.0, 10.0)
            events.append(ChaosEvent(
                round(cursor, 2), "dup", round(rng.uniform(0.1, 0.3), 3)
            ))
            events.append(ChaosEvent(round(cursor + phase, 2), "dup", 0.0))
            if overlap:
                cursor += phase * rng.uniform(0.3, 0.7)
            else:
                cursor += phase + rng.uniform(4.0, 7.0)
    tail = max([cursor] + [event.time for event in events])
    duration = tail + 8.0
    for _ in range(SENDS_PER_MEMBER * len(members)):
        when = round(rng.uniform(0.5, duration - 6.0), 2)
        events.append(ChaosEvent(when, "send", rng.choice(list(members))))
    ordered = tuple(
        event
        for _, _, event in sorted(
            (event.time, index, event) for index, event in enumerate(events)
        )
    )
    name = f"overlap-{seed}" if overlap else f"random-{seed}"
    return ChaosCampaign(name=name, events=ordered, duration=duration)
