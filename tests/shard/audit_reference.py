"""The sharded audit as it was before the ledger's stamps became its one
causal order — kept as the oracle the new audit is held to.

* :func:`session_logs` + ``check_all_session_guarantees``: the four
  white-box session checkers over per-session ``SessionOp`` logs (each
  read anchored at its first barrier label, observing the writes its
  snapshot covered);
* :class:`ReferenceCrossShardChecker`: a private happens-before closure
  of Python sets, built from five dicts — in-group and cross stamps plus
  explicit session-order edges — embedded into every member's delivery;
* :func:`get_violations`: the get-freshness audit entitling a barrier
  read by decoding every label it covers, over each session's log with
  its served gets in place — the log the ledger kept while gets were
  logged, rebuilt here by :func:`record_gets` around ``Ledger.audit_get``.

``tests/shard/test_audit_equivalence.py`` holds the ledger's audit to
these verdicts; ``tests/shard/test_catch_set.py`` tabulates both against
planted faults.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.invariants import iter_incarnations
from repro.analysis.session_guarantees import (
    GuaranteeViolation,
    SessionOp,
    check_all_session_guarantees,
)
from repro.shard.ledger import Ledger, OpRecord
from repro.types import EntityId, MessageId, Violation


def session_logs(ledger: Ledger) -> Dict[str, List[SessionOp]]:
    """The session logs as session-guarantee checker input.

    A write is its label.  A read is anchored at its first barrier label
    (every barrier label of a read carries the session's whole frontier,
    so any one of them witnesses the session-order edge); its observed
    set is the data the snapshot covered, restricted to writes.  Gets
    are left to :func:`get_violations`.
    """
    all_writes = {
        entry
        for log in ledger.history.values()
        for kind, entry in log
        if kind == "write"
    }

    def session_op(kind: str, entry) -> SessionOp:
        if kind == "write":
            return SessionOp("write", entry)
        anchor = min(entry.barriers(), key=ledger.index_of)
        return SessionOp("read", anchor, frozenset(entry.labels & all_writes))

    return {
        name: [session_op(kind, e) for kind, e in log]
        for name, log in ledger.history.items()
    }


def session_violations(ledger: Ledger) -> List[GuaranteeViolation]:
    """The four classic checkers over :func:`session_logs`."""
    results = check_all_session_guarantees(ledger.graph, session_logs(ledger))
    return [v for found in results.values() for v in found]


class GetRecorder:
    """Stands in for a ledger's ``audit_get``: notes where in its
    session's log each get was served, then has the ledger audit it."""

    def __init__(self, ledger: Ledger) -> None:
        self.history = ledger.history
        self.audit_get = ledger.audit_get
        #: session -> (position in its log, get) per served get, in order.
        self.served: Dict[str, List[Tuple[int, tuple]]] = {}

    def __call__(self, session, key, shard, label, member) -> None:
        position = len(self.history.get(session, ()))
        self.served.setdefault(session, []).append(
            (position, (key, shard, label, member))
        )
        self.audit_get(session, key, shard, label, member)


def record_gets(ledger: Ledger) -> None:
    """From now on, note where each get ``ledger.audit_get`` judges was
    served."""
    ledger.audit_get = GetRecorder(ledger)


def interleaved_logs(ledger: Ledger) -> Dict[str, List[Tuple[str, object]]]:
    """Each session's log with ``("get", (key, shard, label, member))``
    entries where :func:`record_gets` saw them served."""
    served = ledger.audit_get.served
    logs: Dict[str, List[Tuple[str, object]]] = {}
    for name, log in ledger.history.items():
        merged: List[Tuple[str, object]] = []
        start = 0
        for position, get in served.get(name, ()):
            merged.extend(log[start:position])
            merged.append(("get", get))
            start = position
        logs[name] = merged + log[start:]
    return logs


def get_violations(ledger: Ledger) -> List[GuaranteeViolation]:
    """Per-key get freshness, entitling a read label by label.  The
    ledger's gets must have been recorded from the start
    (:func:`record_gets`)."""
    ops = ledger.ops
    violations: List[GuaranteeViolation] = []
    for name, log in interleaved_logs(ledger).items():
        floor: Dict[str, OpRecord] = {}

        def entitle(label: MessageId, only: Optional[str] = None) -> None:
            record = ops.get(label)
            for key, _value in record.writes() if record else ():
                if only in (None, key) and (
                    key not in floor or floor[key].index < record.index
                ):
                    floor[key] = record

        for kind, entry in log:
            if kind == "write":
                entitle(entry)
            elif kind == "read":
                for label in entry.labels:
                    entitle(label)
            else:
                key, _shard, label, _member = entry
                held = floor.get(key)
                if held is not None and (
                    label is None or ops[label].index < held.index
                ):
                    violations.append(GuaranteeViolation(
                        "get-freshness", name, label or held.label, held.label
                    ))
                if label is not None:
                    entitle(label, key)
    return violations


class ReferenceCrossShardChecker:
    """``cross-shard-causal`` over a happens-before closure of its own:
    the transitive closure of session order, in-group ``Occurs-After``
    and ``cross_deps``, one set per label, computed in issue order."""

    def __init__(
        self,
        protocols: Dict[EntityId, object],
        *,
        shard_of_member: Dict[EntityId, int],
        shard_of_label: Dict[MessageId, int],
        dependencies: Dict[MessageId, frozenset],
        cross_dependencies: Dict[MessageId, frozenset],
        session_batches: Dict[str, List[List[MessageId]]],
        issue_order: Sequence[MessageId],
    ) -> None:
        self.protocols = protocols
        self.shard_of_member = shard_of_member
        self.shard_of_label = shard_of_label
        self.dependencies = dependencies
        self.cross_dependencies = cross_dependencies
        self.session_batches = session_batches
        self.issue_order = list(issue_order)

    @classmethod
    def of(
        cls,
        ledger: Ledger,
        protocols: Dict[EntityId, object],
        shard_of_member: Dict[EntityId, int],
    ) -> "ReferenceCrossShardChecker":
        """The five dicts, as the ledger used to build them."""
        ops = ledger.ops
        return cls(
            protocols,
            shard_of_member=shard_of_member,
            shard_of_label={l: r.shard for l, r in ops.items()},
            dependencies={l: r.deps for l, r in ops.items()},
            cross_dependencies={l: r.cross_deps for l, r in ops.items()},
            session_batches=ledger.session_batches(),
            issue_order=ledger.issue_order,
        )

    def happens_before(self) -> Dict[MessageId, Set[MessageId]]:
        """Transitive happens-before ancestors per ledger label."""
        direct: Dict[MessageId, Set[MessageId]] = {
            label: set() for label in self.issue_order
        }
        for label in self.issue_order:
            direct[label] |= set(self.dependencies.get(label, ()))
            direct[label] |= set(self.cross_dependencies.get(label, ()))
        for batches in self.session_batches.values():
            for earlier, later in zip(batches, batches[1:]):
                for label in later:
                    direct[label] |= set(earlier)
        ancestors: Dict[MessageId, Set[MessageId]] = {}
        for label in self.issue_order:
            closure: Set[MessageId] = set()
            for dep in direct[label]:
                closure.add(dep)
                closure |= ancestors.get(dep, ())
            ancestors[label] = closure
        return ancestors

    def check(self) -> List[Violation]:
        violations: List[Violation] = []
        ancestors = self.happens_before()
        ledger = set(self.shard_of_label)
        for member, protocol in sorted(self.protocols.items()):
            shard = self.shard_of_member[member]
            for incarnation, envelopes, skipped in iter_incarnations(
                protocol
            ):
                log = [
                    e.msg_id for e in envelopes if e.msg_id in ledger
                ]
                position: Dict[MessageId, int] = {}
                for index, label in enumerate(log):
                    position.setdefault(label, index)
                for label in log:
                    for dep in ancestors.get(label, ()):
                        if self.shard_of_label.get(dep) != shard:
                            continue
                        if dep in skipped:
                            continue
                        dep_position = position.get(dep)
                        if dep_position is None:
                            violations.append(Violation(
                                "cross-shard-causal",
                                member,
                                f"{label} delivered in incarnation "
                                f"{incarnation} without its happens-before "
                                f"ancestor {dep}",
                            ))
                        elif dep_position >= position[label]:
                            violations.append(Violation(
                                "cross-shard-causal",
                                member,
                                f"{label} delivered before its "
                                f"happens-before ancestor {dep} in "
                                f"incarnation {incarnation}",
                            ))
        return violations
