"""Black-box causal-consistency auditing of client-observed histories.

Everything else in :mod:`repro.analysis` audits the system from the
*inside*: ground-truth stamps, the simulator's dependency graph, the
server's own session records.  A wire-layer bug — a codec that reorders
fields, a batch cycle that answers a get before the put it was pipelined
behind, a routing front-end that merges tokens wrongly — is invisible to
those audits because they never see what the *client* saw.

This module closes that gap with the polynomial-time checks of
"On Verifying Causal Consistency" (Bouajjani, Enea, Guerraoui, Hamza —
POPL'17, arXiv:1611.00580).  For *differentiated* histories (no value is
written twice to the same key — the recorder enforces it), causal
consistency and its two classic strengthenings are each equivalent to
the absence of a small set of *bad patterns* over the history's
program order ``po`` and read-from relation ``wr``:

========================  =====================================================
``cyclic-co``             ``po ∪ wr`` has a cycle (CC)
``thin-air-read``         a read returns a value nobody wrote (CC)
``write-co-init-read``    a read returns the initial value although a
                          write of its key is in its causal past (CC)
``write-co-read``         a read returns a value overwritten in its own
                          causal past (CC)
``cyclic-cf``             causality plus the conflict order induced by
                          reads has a cycle (CCv — causal convergence)
``write-hb-init-read``    like write-co-init-read under the per-operation
                          happened-before of causal memory (CM)
``cyclic-hb``             a per-operation happened-before cycle (CM)
========================  =====================================================

The checker is black-box by construction: its only inputs are the
operations a client issued and the values it got back.  No simulator
stamps, no server cooperation — if the whole serving stack between the
socket and the ledger lies, the history still convicts it.

Reads of *many* keys (the serve layer's barrier reads) are recorded as a
block of single-key reads in deterministic key order.  For a genuinely
causally-closed snapshot the intra-block order is immaterial (a closed
cut's values are pairwise causally consistent under any serialisation);
for a broken snapshot some order exhibits the anomaly, which is exactly
what an auditor wants.

Every pattern reads each op's causal past, an integer bitmask that one
topological pass computes from its predecessors' pasts.  CC reads the
pasts over ``po ∪ wr``; CCv reruns the pass with the conflict edges
added; CM reruns it over each session's final op's causal past, adding
happened-before edges until none is new.  A pass costs O(edges · n/word):
2 000 / 8 000 ops of synthetic traffic are judged at all three levels in
0.16 / 1.8 s on a 2-vCPU Xeon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

#: Consistency levels, weakest first.  ``CC`` is implied by both others;
#: ``CCv`` (convergence) and ``CM`` (causal memory) are incomparable.
LEVELS = ("CC", "CCv", "CM")

#: Bad pattern -> the weakest level it refutes.
PATTERN_LEVEL = {
    "undifferentiated": "CC",
    "cyclic-co": "CC",
    "thin-air-read": "CC",
    "write-co-init-read": "CC",
    "write-co-read": "CC",
    "cyclic-cf": "CCv",
    "write-hb-init-read": "CM",
    "cyclic-hb": "CM",
}


@dataclass(frozen=True)
class WireOp:
    """One client-observed operation.

    ``kind`` is ``"put"`` (value = what was written) or ``"get"``
    (value = what came back; ``None`` means the initial/absent value).
    ``block`` groups the single-key reads of one barrier read; ``None``
    for standalone operations.
    """

    session: str
    index: int
    kind: str
    key: str
    value: object
    block: Optional[int] = None

    def describe(self) -> str:
        if self.kind == "put":
            return f"{self.session}[{self.index}] put {self.key}={self.value!r}"
        return f"{self.session}[{self.index}] get {self.key} -> {self.value!r}"


@dataclass(frozen=True)
class WireViolation:
    """One bad pattern found in a client-observed history."""

    pattern: str
    detail: str

    @property
    def level(self) -> str:
        return PATTERN_LEVEL.get(self.pattern, "CC")

    def __str__(self) -> str:  # pragma: no cover - diagnostics
        return f"[{self.level}] {self.pattern}: {self.detail}"


class WireRecorder:
    """Client-side capture of one session's observed operations.

    Attach one to a client; call :meth:`put` on every *acknowledged*
    write, :meth:`get` on every answered read, :meth:`read` on every
    barrier-read snapshot.  Operations the client gave up on (deadline,
    exhausted retries) are never recorded — the auditor judges what the
    server claimed, not what the client hoped.
    """

    def __init__(self, session: str) -> None:
        self.session = session
        self.ops: List[WireOp] = []
        self._blocks = 0

    def put(self, key: str, value: object) -> None:
        self.ops.append(
            WireOp(self.session, len(self.ops), "put", key, value)
        )

    def get(self, key: str, value: object) -> None:
        self.ops.append(
            WireOp(self.session, len(self.ops), "get", key, value)
        )

    def read(self, values: Mapping[str, object]) -> None:
        """Record one barrier-read snapshot as a block of keyed reads."""
        block = self._blocks
        self._blocks += 1
        for key in sorted(values):
            self.ops.append(WireOp(
                self.session, len(self.ops), "get", key, values[key],
                block=block,
            ))


class WireHistory:
    """A multi-session client-observed history, ready for checking."""

    def __init__(self, sessions: Mapping[str, Sequence[WireOp]]) -> None:
        #: session -> its operations in program order (re-indexed).
        self.sessions: Dict[str, List[WireOp]] = {
            name: [
                WireOp(name, index, op.kind, op.key, op.value, op.block)
                for index, op in enumerate(ops)
            ]
            for name, ops in sessions.items()
        }

    @classmethod
    def merge(cls, recorders: Iterable[WireRecorder]) -> "WireHistory":
        sessions: Dict[str, List[WireOp]] = {}
        for recorder in recorders:
            sessions.setdefault(recorder.session, []).extend(recorder.ops)
        return cls(sessions)

    @property
    def ops(self) -> List[WireOp]:
        return [op for ops in self.sessions.values() for op in ops]

    def __len__(self) -> int:
        return sum(len(ops) for ops in self.sessions.values())


# -- the checker -------------------------------------------------------------

#: The history flattened to integer ids: ops; each op's po predecessor and,
#: for a get, its writer; get -> writer (``None``: the initial value); key
#: -> mask of its writes; and the violations indexing alone finds.
_Indexed = Tuple[List[WireOp], List[List[int]], Dict[int, Optional[int]],
                 Dict[str, int], List[WireViolation]]


def _observed(op: WireOp) -> Tuple[str, object]:
    """``(key, value)``, an unhashable value keyed by its repr — the
    auditor only needs equality, and a client that writes unhashable
    values already failed the put."""
    try:
        hash(op.value)
    except TypeError:
        return op.key, repr(op.value)
    return op.key, op.value


def _index(history: WireHistory) -> _Indexed:
    ops: List[WireOp] = []
    preds: List[List[int]] = []
    writes: Dict[str, int] = {}
    by_value: Dict[Tuple[str, object], List[int]] = {}
    for session in history.sessions.values():
        for index, op in enumerate(session):
            preds.append([len(ops) - 1] if index else [])
            if op.kind == "put":
                writes[op.key] = writes.get(op.key, 0) | 1 << len(ops)
                by_value.setdefault(_observed(op), []).append(len(ops))
            ops.append(op)
    violations = [
        WireViolation(
            "undifferentiated",
            f"value {key[1]!r} written to {key[0]!r} "
            f"{len(writers)} times — wr is ambiguous: "
            + ", ".join(ops[w].describe() for w in writers),
        )
        for key, writers in by_value.items() if len(writers) > 1
    ]
    reads: Dict[int, Optional[int]] = {}
    for op_id, op in enumerate(ops):
        if op.kind != "get":
            continue
        if op.value is None:
            reads[op_id] = None
        elif _observed(op) in by_value:
            reads[op_id] = by_value[_observed(op)][0]
            preds[op_id].append(reads[op_id])
        else:
            violations.append(WireViolation(
                "thin-air-read",
                f"{op.describe()} — nobody wrote that value",
            ))
    return ops, preds, reads, writes, violations


def _bits(mask: int) -> Iterator[int]:
    """The ids set in ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pasts(nodes: Sequence[int], preds: List[List[int]]) -> List[int]:
    """Bit ``p`` of ``past[o]`` is set iff a path ``p → … → o`` exists.

    Every ``preds[o]`` of a node must be among ``nodes``.  A Kahn pass
    gives each node its past from its predecessors'; the nodes it leaves
    lie on or behind a cycle and are relaxed until nothing changes.
    """
    past = [0] * len(preds)
    waiting = [0] * len(preds)
    succs: Dict[int, List[int]] = {}
    ready = []
    for o in nodes:
        waiting[o] = len(preds[o])
        if not waiting[o]:
            ready.append(o)
        for p in preds[o]:
            succs.setdefault(p, []).append(o)
    for o in ready:  # grows as the pass frees successors
        for p in preds[o]:
            past[o] |= past[p] | 1 << p
        for s in succs.get(o, ()):
            waiting[s] -= 1
            if not waiting[s]:
                ready.append(s)
    left = [o for o in nodes if waiting[o]]
    before = None
    while left and before != [past[o] for o in left]:
        before = [past[o] for o in left]
        for o in left:
            for p in preds[o]:
                past[o] |= past[p] | 1 << p
    return past


def _cycle(pattern: str, what: str, ops: List[WireOp], nodes: Iterable[int],
           past: List[int]) -> List[WireViolation]:
    """A ``pattern`` violation naming the first four ``nodes`` on a cycle."""
    cyclic = [ops[o].describe() for o in nodes if past[o] >> o & 1][:4]
    detail = f"{what} through {', '.join(cyclic)}"
    return [WireViolation(pattern, detail)] if cyclic else []


def _init_read(pattern: str, relation: str, ops: List[WireOp], r: int,
               earlier: int) -> List[WireViolation]:
    """``r`` returned the initial value with ``earlier`` writes before it."""
    return [WireViolation(pattern, (
        f"{ops[r].describe()} returned the initial value although "
        f"{ops[next(_bits(earlier))].describe()} {relation}"
    ))] if earlier else []


def check_wire_history(
    history: WireHistory, levels: Sequence[str] = LEVELS
) -> List[WireViolation]:
    """Check a client-observed history for CC/CCv/CM bad patterns.

    Returns every violation found (empty list = the history is causally
    consistent at all requested ``levels``).  A violation's ``level``
    names the weakest guarantee it refutes, so callers can gate on CC
    only, or on the full causal-memory contract.
    """
    unknown = set(levels) - set(LEVELS)
    if unknown:
        raise ValueError(f"unknown consistency levels: {sorted(unknown)}")
    indexed = ops, preds, reads, writes, violations = _index(history)
    everything = range(len(ops))
    past = _pasts(everything, preds)
    cyclic = _cycle("cyclic-co", "po ∪ wr is cyclic", ops, everything, past)
    if cyclic:
        # Every downstream pattern assumes co is a partial order; report
        # the cycle alone rather than cascading artifacts of it.
        return violations + cyclic
    # cf[w]: the sibling writes in the causal past of a read of w but not
    # in w's own.  Any convergent arbitration orders each before w; one
    # with w in its own past overwrote w inside the read's causal past.
    cf: Dict[int, int] = {}
    for r, w in reads.items():
        earlier = writes.get(ops[r].key, 0) & past[r]
        if w is None:
            violations += _init_read("write-co-init-read",
                                     "is in its causal past", ops, r, earlier)
            continue
        siblings = earlier & ~past[w] & ~(1 << w)
        cf[w] = cf.get(w, 0) | siblings
        for w2 in _bits(siblings):
            if past[w2] >> w & 1:
                violations.append(WireViolation("write-co-read", (
                    f"{ops[r].describe()} is stale: {ops[w2].describe()} "
                    "overwrote it inside the read's causal past")))
                break
    if "CCv" in levels:
        # co ∪ cf is cyclic iff po ∪ wr ∪ cf is, and then no convergent
        # arbitration order of the writes exists.
        with_cf = [p + list(_bits(cf.get(o, 0))) for o, p in enumerate(preds)]
        violations += _cycle(
            "cyclic-cf", "no convergent write order exists: co ∪ cf cycles",
            ops, everything, _pasts(everything, with_cf),
        )
    if "CM" in levels:
        violations += _check_cm(indexed, past)
    return violations


def _check_cm(indexed: _Indexed, past: List[int]) -> List[WireViolation]:
    """CM's patterns under the per-operation happened-before relations.

    ``hb_o`` is the smallest transitive relation over the causal past of
    ``o`` containing po ∪ wr there, closed under: if ``w1 -> hb_o -> r``
    and ``r`` reads sibling write ``w2``, then ``w1 -> hb_o -> w2``.
    Both patterns are monotone in ``o`` along program order (the causal
    past and the closure only grow), so checking each session's final
    operation covers every ``o``.  A causal past is closed under po and
    wr, so there ``hb_o`` starts as ``past``; each round adds the edges
    the rule asks for and recomputes the pasts, until it asks for none.
    """
    ops, base, reads, writes, _ = indexed
    violations: List[WireViolation] = []
    cyclic: List[WireViolation] = []
    lasts = {op.session: op_id for op_id, op in enumerate(ops)}
    for session, o in sorted(lasts.items()):
        scope = past[o] | 1 << o
        members = list(_bits(scope))
        seen = [(r, w) for r, w in reads.items() if scope >> r & 1]
        hb, preds = past, list(base)
        while True:
            added = False
            for r, w in seen:
                earlier = w is not None and (
                    hb[r] & writes[ops[r].key] & ~hb[w] & ~(1 << w))
                if earlier:
                    preds[w] = preds[w] + list(_bits(earlier))
                    added = True
            if not added:
                break
            hb = _pasts(members, preds)
        cyclic = cyclic or _cycle(
            "cyclic-hb",
            f"happened-before at {session}'s final operation cycles",
            ops, members, hb,
        )
        for r, w in seen:
            if w is None and ops[r].session == session:
                violations += _init_read(
                    "write-hb-init-read", "happened before it", ops, r,
                    writes.get(ops[r].key, 0) & hb[r])
    return cyclic + violations


# -- history corruption (auditor self-tests) ---------------------------------


def corrupt_reorder_session(
    history: WireHistory, session: Optional[str] = None
) -> WireHistory:
    """Swap a session's two neighbouring write-then-read ops.

    Models a wire layer that answers a session's operations out of issue
    order.  The checker must flag the result for any history where the
    swap is observable (the campaign suites assert it).
    """
    sessions = {k: list(v) for k, v in history.sessions.items()}
    for name, ops in sorted(sessions.items()):
        if session is not None and name != session:
            continue
        for i in range(len(ops) - 1):
            a, b = ops[i], ops[i + 1]
            if a.kind == "put" and b.kind == "get" and a.key == b.key \
                    and b.value == a.value:
                ops[i], ops[i + 1] = b, a
                return WireHistory(sessions)
    raise ValueError("no adjacent put/get of one key to reorder")


def corrupt_stale_read(history: WireHistory) -> WireHistory:
    """Rewrite one read to return a value the session had overwritten.

    Models a replica answering below the session's causal floor — the
    canonical get-freshness bug.
    """
    sessions = {k: list(v) for k, v in history.sessions.items()}
    for name, ops in sorted(sessions.items()):
        newest: Dict[str, List[WireOp]] = {}
        for i, op in enumerate(ops):
            if op.kind == "put":
                newest.setdefault(op.key, []).append(op)
            elif op.kind == "get" and len(newest.get(op.key, ())) > 1:
                stale = newest[op.key][-2]
                ops[i] = WireOp(
                    op.session, op.index, "get", op.key, stale.value,
                    block=op.block,
                )
                return WireHistory(sessions)
    raise ValueError("no read behind two writes of one key to stale out")


def corrupt_lost_put(history: WireHistory) -> WireHistory:
    """Blank one read whose session had written the key.

    Models an acknowledged put that never reached the object space: the
    ack stands in the history, the data is gone.
    """
    sessions = {k: list(v) for k, v in history.sessions.items()}
    for name, ops in sorted(sessions.items()):
        written = set()
        for i, op in enumerate(ops):
            if op.kind == "put":
                written.add(op.key)
            elif op.kind == "get" and op.key in written \
                    and op.value is not None:
                ops[i] = WireOp(
                    op.session, op.index, "get", op.key, None,
                    block=op.block,
                )
                return WireHistory(sessions)
    raise ValueError("no read of a session-written key to blank")
