"""A replica group under a chaos controller, with its ground truth.

:class:`ChaosCluster` is a
:class:`~repro.group.replica_group.ReplicaGroup` — which wires the
stacks, their sidecars and the fault controls — plus what single-group
fault-injection campaigns need on top: it generates application traffic,
records the ground truth of every send, runs a
:class:`~repro.chaos.campaign.ChaosCampaign`, drives repair to
convergence and audits the
:class:`~repro.analysis.invariants.InvariantMonitor` battery.

Ground truth
------------

Checking causal order after crashes requires knowing, per data message,
what its *protocol-guaranteed* causal predecessors were at send time —
state the protocols themselves lose when a node crashes.  The cluster
records this externally at each :meth:`ChaosCluster.app_send`:

=================  ===========================================================
``unordered``      nothing
``fifo``           the member's previous data send (labels order the stream)
``lamport_total``  the member's previous data send (stamps are monotone)
``sequencer``      nothing (pure total order: the sequencer's arrival order
                   is the only guarantee; audited by the ``total-order``
                   and ``sequencer-epoch`` invariants instead)
``osend``          the explicitly declared ``Occurs-After`` set
``cbcast``         data settled at the sender's current incarnation, plus
                   *all* of its own prior sends (its clock component mirrors
                   the durable label allocator)
``rst``            the owed-count prefixes of the sent-matrix snapshot the
                   message carries, min over the send-time view (counts are
                   the whole guarantee; the sender's settled *set* can
                   exceed what any count can express after a restart)
=================  ===========================================================

Eligibility is declared on the protocol classes themselves
(``BroadcastProtocol.crash_eligible``): ``asend`` opts out (anonymous
epoch closure an amnesiac member cannot reconstruct); everything else —
the sequencer included, via its epoch-based failover — is in the matrix.
See ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.invariants import InvariantMonitor, Violation
from repro.errors import ConfigurationError, ProtocolError
from repro.group.replica_group import PROTOCOLS, ReplicaGroup, settle
from repro.types import EntityId, MessageId

from repro.chaos.campaign import ChaosCampaign, ChaosEvent

#: The protocols chaos campaigns run against — derived from the
#: ``crash_eligible`` marker each class declares, so protocols opt in or
#: out at the definition site.
CHAOS_PROTOCOLS = {n: c for n, c in PROTOCOLS.items() if c.crash_eligible}

#: Protocols that opted out (a group built on one is refused).
CHAOS_EXCLUDED = {n: c for n, c in PROTOCOLS.items() if not c.crash_eligible}

#: Repair rounds a campaign gets to converge; the liveness violation
#: prints the count.
SETTLE_ROUNDS = 60


@dataclass
class CampaignResult:
    """Outcome of one campaign run."""

    protocol: str
    campaign: str
    violations: List[Violation]
    sends: int
    sends_skipped: int
    crashes: int
    restarts: int
    data_messages: int
    settle_rounds: int
    sim_time: float
    #: Repair-latency metrics (suspicion delay, flush duration, handoff
    #: delay, proposal counts) — regressions in time-to-repair are as
    #: interesting as safety violations.
    repair: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        line = (
            f"{self.protocol:>13s} {self.campaign:<14s} {status:<16s} "
            f"sends={self.sends} skipped={self.sends_skipped} "
            f"crashes={self.crashes} settle_rounds={self.settle_rounds} "
            f"t={self.sim_time:.1f}"
        )
        repair = self.repair
        if repair.get("suspicions"):
            line += (
                f" susp={repair['suspicions']:.0f}"
                f"/{repair['suspicion_delay_mean']:.1f}s"
            )
        if repair.get("removals_proposed"):
            line += f" rm={repair['removals_proposed']:.0f}"
        if repair.get("flushes"):
            line += f" flush={repair['flush_duration_mean']:.1f}s"
        if repair.get("handoffs"):
            line += f" handoff={repair['handoffs']:.0f}"
            if "handoff_delay_mean" in repair:
                # No delay when the predecessor was deposed alive (e.g.
                # partitioned out): there is no crash to measure from.
                line += f"/{repair['handoff_delay_mean']:.1f}s"
        return line


class ChaosCluster(ReplicaGroup):
    """A replica group that sends, records ground truth and runs campaigns."""

    def __init__(
        self,
        protocol: str = "cbcast",
        members: Sequence[EntityId] = ("a", "b", "c", "d"),
        seed: int = 0,
        overlap: bool = False,
        auto_membership: bool = True,
    ) -> None:
        super().__init__(protocol, members, seed, overlap, auto_membership)
        # Ground-truth bookkeeping (see module docstring).
        self.data_labels: Set[MessageId] = set()
        self.dependencies: Dict[MessageId, frozenset] = {}
        # Send-time view membership per label (the protocol's "audience").
        self.audience: Dict[MessageId, frozenset] = {}
        self._sends: Dict[EntityId, List[Tuple[MessageId, int]]] = {
            member: [] for member in self.members
        }
        self._payload_counter = 0
        self.sends_skipped = 0

    # -- application traffic -------------------------------------------------

    def _ground_truth_deps(self, member: EntityId) -> frozenset:
        stack = self.stacks[member]
        own = [label for label, _inc in self._sends[member]]
        name = self.protocol_name
        if name in ("unordered", "sequencer"):
            # The sequencer offers pure total order: delivery position is
            # the sequencer's arrival order, which promises nothing about
            # causal precedence — audited by `total-order` and
            # `sequencer-epoch` instead.
            return frozenset()
        if name in ("fifo", "lamport_total"):
            return frozenset(own[-1:])
        if name == "osend":
            # Deterministic application-level choice: depend on the last
            # couple of data messages delivered here.
            recent = [
                e.msg_id
                for e in stack._delivered_envelopes
                if e.msg_id in self.data_labels
            ]
            return frozenset(recent[-2:])
        settled = self.settled(member, self.data_labels)
        if name == "cbcast":
            return frozenset(settled) | frozenset(own)
        if name == "rst":
            # The stamp the outgoing message will carry is a snapshot of
            # the sender's sent-matrix, and that snapshot is the *whole*
            # guarantee: each destination m delivers at least
            # ``matrix[o][m]`` messages from origin ``o`` first — under
            # seqno-contiguous accounting, labels ``o:0..matrix[o][m]-1``.
            # The sender's settled *set* can exceed this (an amnesiac
            # rejoiner may settle an out-of-prefix label whose position no
            # count can express), so claim only the owed-count prefixes,
            # taking the minimum over the send-time view so the dependency
            # set is valid at every audience member.
            matrix = stack._sent
            view_members = self.group.view.members
            deps = set()
            for origin, cols in matrix.items():
                owed = min(cols.get(m, 0) for m in view_members)
                deps.update(
                    label
                    for label in (
                        MessageId(origin, seqno) for seqno in range(owed)
                    )
                    if label in self.data_labels
                )
            return frozenset(deps)
        raise ConfigurationError(f"no ground-truth rule for {name!r}")

    def app_send(self, member: EntityId) -> Optional[MessageId]:
        """Broadcast an application message from ``member``.

        Returns the new label, or ``None`` if the send was skipped — the
        member is crashed, out of the view, or flush-frozen (skipping is
        itself part of what campaigns exercise).
        """
        stack = self.stacks[member]
        if member not in self.serving():
            self.sends_skipped += 1
            return None
        deps = self._ground_truth_deps(member)
        self._payload_counter += 1
        try:
            if self.protocol_name == "osend":
                label = stack.bcast(
                    "app", self._payload_counter, occurs_after=deps
                )
            else:
                label = stack.bcast("app", self._payload_counter)
        except ProtocolError:
            # Flush-frozen: the view-sync guard rejected the send before
            # a label was allocated.
            self.sends_skipped += 1
            return None
        self.data_labels.add(label)
        self.dependencies[label] = deps
        self.audience[label] = frozenset(self.group.view.members)
        self._sends[member].append((label, stack.incarnation))
        return label

    # -- campaign execution --------------------------------------------------

    def _apply(self, event: ChaosEvent) -> None:
        if event.action == "send":
            self.app_send(event.arg)
        else:
            self.apply_fault(event.action, event.arg)

    def run_campaign(self, campaign: ChaosCampaign) -> CampaignResult:
        """Execute ``campaign``, drive repair to convergence, audit."""
        for manager in self.managers.values():
            manager.start(campaign.duration)
        for event in campaign.events:
            self.scheduler.call_at(event.time, self._apply, event)
        self.drain(until=campaign.duration)
        # End-of-campaign cleanup: heal, de-fault, revive, re-admit.
        self.clear_faults()
        self.drain()
        self.revive()
        self.drain()
        violations, rounds = self.settle()
        violations = violations + self.check_invariants()
        return CampaignResult(
            protocol=self.protocol_name,
            campaign=campaign.name,
            violations=violations,
            sends=sum(len(sends) for sends in self._sends.values()),
            sends_skipped=self.sends_skipped,
            crashes=self.crashes,
            restarts=self.restarts,
            data_messages=len(self.data_labels),
            settle_rounds=rounds,
            sim_time=self.scheduler.now,
            repair=self.repair_metrics(),
        )

    def repair_metrics(self) -> Dict[str, float]:
        """Aggregate time-to-repair observations across the cluster.

        * *suspicion delay* — crash to first suspicion of that member
          (failure-detection latency);
        * *flush duration* — first freeze to install, per installed view
          (how long membership changes block sending);
        * *handoff delay* — previous sequencer's crash to the successor's
          binding handoff (total-order repair latency).
        """
        metrics: Dict[str, float] = {}
        susp_delays: List[float] = []
        removals = 0
        for manager in self.managers.values():
            removals += manager.removals_proposed
            for suspect, when in manager.suspicion_log:
                crashed_at = self.crash_log.get(suspect)
                if crashed_at is not None and crashed_at <= when:
                    susp_delays.append(when - crashed_at)
        if susp_delays:
            metrics["suspicions"] = float(len(susp_delays))
            metrics["suspicion_delay_mean"] = sum(susp_delays) / len(
                susp_delays
            )
            metrics["suspicion_delay_max"] = max(susp_delays)
        if removals:
            metrics["removals_proposed"] = float(removals)
        flush_durations = [
            record.flush_duration
            for agent in self.view_syncs.values()
            for record in agent.install_history
        ]
        if flush_durations:
            metrics["flushes"] = float(len(flush_durations))
            metrics["flush_duration_mean"] = sum(flush_durations) / len(
                flush_durations
            )
            metrics["flush_duration_max"] = max(flush_durations)
        handoff_delays: List[float] = []
        handoff_count = 0
        for stack in self.stacks.values():
            for handoff in getattr(stack, "handoffs", []):
                if not handoff["took_over"]:
                    continue
                handoff_count += 1
                crashed_at = self.crash_log.get(handoff["previous"])
                if crashed_at is not None and crashed_at <= handoff["time"]:
                    handoff_delays.append(handoff["time"] - crashed_at)
        if handoff_count:
            metrics["handoffs"] = float(handoff_count)
        if handoff_delays:
            metrics["handoff_delay_mean"] = sum(handoff_delays) / len(
                handoff_delays
            )
            metrics["handoff_delay_max"] = max(handoff_delays)
        return metrics

    # -- repair-to-convergence ----------------------------------------------

    def converged(self) -> bool:
        return super().converged(self.data_labels)

    def settle(self) -> Tuple[List[Violation], int]:
        """Run repair rounds until convergence or ``SETTLE_ROUNDS``.

        Each round first repairs membership (restarts crashed in-view
        members, re-proposes joins for members a late-installing leave
        evicted), then drives one anti-entropy digest exchange and one
        stability-gossip round at every up member (see ``settle``).
        """
        return settle(self, SETTLE_ROUNDS, self.converged, self._repair)

    def _repair(self) -> None:
        self.repair_membership()
        self.repair_round()

    def liveness_violation(self, rounds: int) -> Violation:
        settled = {m: self.settled(m, self.data_labels) for m in self.members}
        union = set().union(*settled.values())
        report = []
        for member in self.members:
            stack = self.stacks[member]
            missing = union - settled[member]
            held = len(stack.holdback_envelopes)
            pending = self.view_syncs[member]._pending_change
            if missing or held or pending or stack.crashed:
                report.append(
                    f"{member}: missing={len(missing)} held={held} "
                    f"pending_change={pending} crashed={stack.crashed}"
                )
        view = self.group.view
        return Violation(
            "liveness",
            None,
            f"no convergence after {rounds} repair rounds "
            f"(view={view.view_id}:{','.join(view.members)}; "
            + "; ".join(report) + ")",
        )

    # -- auditing ------------------------------------------------------------

    def monitor(self) -> InvariantMonitor:
        return InvariantMonitor(
            self.stacks,
            dependencies=self.dependencies,
            data_labels=self.data_labels,
            view_syncs=self.view_syncs,
            trackers=self.trackers,
            expected_members=self.members,
            check_total_order=self.protocol_name
            in ("lamport_total", "sequencer"),
            sequencer_epochs=self.protocol_name == "sequencer",
            # RST's owed counts are per send-time view member; other
            # protocols' ordering metadata is destination-independent.
            audience=(
                self.audience if self.protocol_name == "rst" else None
            ),
        )

    def check_invariants(self) -> List[Violation]:
        """Run the full safety battery against the cluster's final state."""
        return self.monitor().check_all()
