"""The black-box checker's reference: Warshall closures over bitmasks.

``repro.analysis.wire_history`` judges a history in topological passes
over causal-past masks.  What those passes must reproduce is the direct
reading of the bad patterns of arXiv:1611.00580 kept here: one Warshall
closure of ``po ∪ wr`` for CC, a second over ``co ∪ cf`` (built as an
explicit pair list) for CCv, and a closure per session, recomputed until
no happened-before edge is added, for CM.  It is cubic in the history,
so ``test_wire_history_reference.py`` compares the two on small
histories, and ``synthetic_history`` builds the large ones the module
is timed on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.wire_history import (
    LEVELS,
    WireHistory,
    WireOp,
    WireRecorder,
    WireViolation,
)

__all__ = ["check_wire_history", "synthetic_history"]


@dataclass
class _Indexed:
    """The history flattened to integer ids with po/wr edges resolved."""

    ops: List[WireOp] = field(default_factory=list)
    po: List[Tuple[int, int]] = field(default_factory=list)
    #: read op id -> writer op id (resolved via the read value).
    wr: Dict[int, int] = field(default_factory=dict)
    #: key -> ids of its writes.
    writes: Dict[str, List[int]] = field(default_factory=dict)
    #: read ids that returned the initial value.
    init_reads: List[int] = field(default_factory=list)
    violations: List[WireViolation] = field(default_factory=list)


def _index(history: WireHistory) -> _Indexed:
    out = _Indexed()
    by_value: Dict[Tuple[str, object], List[int]] = {}
    for ops in history.sessions.values():
        previous: Optional[int] = None
        for op in ops:
            op_id = len(out.ops)
            out.ops.append(op)
            if previous is not None:
                out.po.append((previous, op_id))
            previous = op_id
            if op.kind == "put":
                out.writes.setdefault(op.key, []).append(op_id)
                try:
                    by_value.setdefault((op.key, op.value), []).append(op_id)
                except TypeError:
                    # Unhashable written value: key it by repr — the
                    # auditor only needs equality, and a client that
                    # writes unhashable values already failed the put.
                    by_value.setdefault(
                        (op.key, repr(op.value)), []
                    ).append(op_id)
    for key, writers in by_value.items():
        if len(writers) > 1:
            out.violations.append(WireViolation(
                "undifferentiated",
                f"value {key[1]!r} written to {key[0]!r} "
                f"{len(writers)} times — wr is ambiguous: "
                + ", ".join(out.ops[w].describe() for w in writers),
            ))
    for op_id, op in enumerate(out.ops):
        if op.kind != "get":
            continue
        if op.value is None:
            out.init_reads.append(op_id)
            continue
        try:
            writers = by_value.get((op.key, op.value), [])
        except TypeError:
            writers = by_value.get((op.key, repr(op.value)), [])
        if not writers:
            out.violations.append(WireViolation(
                "thin-air-read",
                f"{op.describe()} — nobody wrote that value",
            ))
        else:
            out.wr[op_id] = writers[0]
    return out


def _closure(n: int, edges: Iterable[Tuple[int, int]]) -> List[int]:
    """Strict transitive closure as per-node successor bitmasks.

    Warshall with integer bitsets: ``reach[a] >> b & 1`` iff a path
    a → … → b exists.  O(n² / wordsize) per pivot — plenty for the few
    hundred operations a campaign history carries.
    """
    reach = [0] * n
    for a, b in edges:
        reach[a] |= 1 << b
    for k in range(n):
        bit = 1 << k
        mask = reach[k]
        if not mask:
            continue
        for a in range(n):
            if reach[a] & bit:
                updated = reach[a] | mask
                if updated != reach[a]:
                    reach[a] = updated
    return reach


def _cycle_members(reach: List[int]) -> List[int]:
    return [a for a in range(len(reach)) if reach[a] >> a & 1]


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
    indexed = _index(history)
    violations = list(indexed.violations)
    ops = indexed.ops
    n = len(ops)
    if n == 0:
        return violations
    co_edges = indexed.po + [(w, r) for r, w in indexed.wr.items()]
    co = _closure(n, co_edges)
    cyclic = _cycle_members(co)
    if cyclic:
        violations.append(WireViolation(
            "cyclic-co",
            "po ∪ wr is cyclic through "
            + ", ".join(ops[a].describe() for a in cyclic[:4]),
        ))
        # Every downstream pattern assumes co is a partial order; report
        # the cycle alone rather than cascading artifacts of it.
        return violations

    def co_before(a: int, b: int) -> bool:
        return bool(co[a] >> b & 1)

    # write-co-read: r reads w1 although w1 -> w2 -> r for a sibling
    # write w2 of the same key.
    for r, w1 in indexed.wr.items():
        key = ops[r].key
        for w2 in indexed.writes.get(key, ()):
            if w2 != w1 and co_before(w1, w2) and co_before(w2, r):
                violations.append(WireViolation(
                    "write-co-read",
                    f"{ops[r].describe()} is stale: "
                    f"{ops[w2].describe()} overwrote it inside the "
                    f"read's causal past",
                ))
                break
    # write-co-init-read: r reads the initial value although a write of
    # its key is in r's causal past.
    for r in indexed.init_reads:
        key = ops[r].key
        for w in indexed.writes.get(key, ()):
            if co_before(w, r):
                violations.append(WireViolation(
                    "write-co-init-read",
                    f"{ops[r].describe()} returned the initial value "
                    f"although {ops[w].describe()} is in its causal past",
                ))
                break
    if "CCv" in levels:
        violations.extend(_check_ccv(indexed, co))
    if "CM" in levels:
        violations.extend(_check_cm(indexed))
    return violations


def _check_ccv(indexed: _Indexed, co: List[int]) -> List[WireViolation]:
    """CCv's extra pattern: the conflict order must embed in a total.

    ``w1 -> cf -> w2`` when some read of ``w2``'s value has ``w1`` (a
    sibling write) in its causal past: any convergent arbitration must
    then order ``w1`` before ``w2``.  A ``co ∪ cf`` cycle means no
    arbitration total order exists.
    """
    ops = indexed.ops
    n = len(ops)
    cf_edges: List[Tuple[int, int]] = []
    for r, w2 in indexed.wr.items():
        key = ops[r].key
        for w1 in indexed.writes.get(key, ()):
            if w1 != w2 and bool(co[w1] >> r & 1):
                cf_edges.append((w1, w2))
    combined = cf_edges + [
        (a, b) for a in range(n) for b in range(n) if co[a] >> b & 1
    ]
    reach = _closure(n, combined)
    cyclic = _cycle_members(reach)
    if cyclic:
        return [WireViolation(
            "cyclic-cf",
            "no convergent write order exists: co ∪ cf cycles through "
            + ", ".join(ops[a].describe() for a in cyclic[:4]),
        )]
    return []


def _check_cm(indexed: _Indexed) -> List[WireViolation]:
    """CM's patterns under the per-operation happened-before relations.

    ``hb_o`` is the smallest transitive relation over the causal past of
    ``o`` containing po ∪ wr there, closed under: if ``w1 -> hb_o -> r``
    and ``r`` reads sibling write ``w2``, then ``w1 -> hb_o -> w2``.
    Both patterns are monotone in ``o`` along program order (the causal
    past and the closure only grow), so checking each session's final
    operation covers every ``o``.
    """
    ops = indexed.ops
    n = len(ops)
    violations: List[WireViolation] = []
    co = _closure(
        n, indexed.po + [(w, r) for r, w in indexed.wr.items()]
    )
    base_edges = indexed.po + [(w, r) for r, w in indexed.wr.items()]
    lasts: Dict[str, int] = {}
    for op_id, op in enumerate(ops):
        lasts[op.session] = max(lasts.get(op.session, -1), op_id)
    seen_patterns = set()
    for session, o in sorted(lasts.items()):
        past = sum(1 << a for a in range(n) if co[a] >> o & 1) | (1 << o)
        members = [a for a in range(n) if past >> a & 1]
        edges = [
            (a, b) for a, b in base_edges
            if past >> a & 1 and past >> b & 1
        ]
        reach = _closure(n, edges)
        while True:
            added = False
            for r, w2 in indexed.wr.items():
                if not past >> r & 1:
                    continue
                for w1 in indexed.writes.get(ops[r].key, ()):
                    if (
                        w1 != w2 and past >> w1 & 1
                        and reach[w1] >> r & 1
                        and not reach[w1] >> w2 & 1
                    ):
                        edges.append((w1, w2))
                        added = True
            if not added:
                break
            reach = _closure(n, edges)
        cyclic = _cycle_members([reach[a] if past >> a & 1 else 0 for a in range(n)])
        if cyclic and "cyclic-hb" not in seen_patterns:
            seen_patterns.add("cyclic-hb")
            violations.append(WireViolation(
                "cyclic-hb",
                f"happened-before at {session}'s final operation cycles "
                "through "
                + ", ".join(ops[a].describe() for a in cyclic[:4]),
            ))
        for r in indexed.init_reads:
            if ops[r].session != session:
                continue
            for w in indexed.writes.get(ops[r].key, ()):
                if past >> w & 1 and reach[w] >> r & 1:
                    violations.append(WireViolation(
                        "write-hb-init-read",
                        f"{ops[r].describe()} returned the initial value "
                        f"although {ops[w].describe()} happened before it",
                    ))
                    break
    return violations


def synthetic_history(
    ops: int, sessions: int = 8, keys: int = 16, seed: int = 0
) -> WireHistory:
    """A sequentially consistent history of ``ops`` operations, half puts.

    The puts form one log in issue order.  Each session has read a
    prefix of it, which grows by a random amount before each of its
    operations and to the whole log after its own put; a get returns the
    key's last value in the session's prefix.  Reads of prefixes of one
    total order are CC, CCv and CM, so every level must acquit the
    history — yet sessions lag each other, so a get's causal past holds
    concurrent writes of its key, and the CCv and CM passes have
    conflict and happened-before edges to add.
    """
    rng = random.Random(seed)
    logged = 0
    #: key -> (log position, value) of each of its puts, in log order.
    writes: Dict[str, List[Tuple[int, str]]] = {}
    prefix = [0] * sessions
    recorders = [WireRecorder(f"s{index}") for index in range(sessions)]
    for step in range(ops):
        index = rng.randrange(sessions)
        prefix[index] = rng.randint(prefix[index], logged)
        key = f"k{rng.randrange(keys)}"
        if rng.random() < 0.5:
            value = f"s{index}-{step}"
            writes.setdefault(key, []).append((logged, value))
            logged += 1
            prefix[index] = logged
            recorders[index].put(key, value)
        else:
            visible = [v for position, v in writes.get(key, ())
                       if position < prefix[index]]
            recorders[index].get(key, visible[-1] if visible else None)
    return WireHistory.merge(recorders)
