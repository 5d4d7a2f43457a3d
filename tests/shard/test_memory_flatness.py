"""Reachability state must not grow with history squared.

A failing-before regression for the bitset closure cache: the frozenset
closures this replaced retained 159 MB over this run (and 3 936 closures
memoised by member graphs on the receive path alone); masks retain
about 11 MB, and a member's graph — which nobody queries on the serving
path — is not even built: it is a view derived when somebody asks.

What a put leaves behind at a member is a log entry — the envelope, its
delivery time, its label in ``_delivered_ids`` — so a pipelined put
retains ≤ 3.4 kB under ``tracemalloc`` (5.3 kB before PR 23, when each
member also kept a graph node, a ``DeliveryRecord`` and a ``_seen``
entry per delivery).

And a barrier read must not retain its cut: a completed read keeps its
barrier labels and its value, so what ``shard/barrier.py`` allocates and
a read leaves behind is the same at any history length (before PR 22
every read kept its whole cut as a frozenset: 50 kB a read after 2 400
ops, 195 kB after 9 600 — quadratic in the ops served).
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.shard import barrier
from repro.shard.cluster import ShardedCluster
from repro.types import MessageId

SESSIONS = 2
OPS = 600
KEYS = 64
WINDOW = 32
RETAINED_LIMIT_MB = 40
#: What one pipelined put may leave behind, ledger and three members
#: together (measured 3.06 kB; the parent of PR 23 measured 5.31).
PUT_RETAINED_LIMIT_KB = 3.4
#: What one completed barrier read may keep of `shard/barrier.py`'s
#: allocations: the `BarrierRead`, its labels and a 64-key value dict.
READ_RETAINED_LIMIT_KB = 6


def serve(cluster, ops, window):
    """Every session issues ``ops`` operations, every tenth a barrier read."""
    sessions = [
        cluster.router.session(f"client-{n}") for n in range(SESSIONS)
    ]
    reads = []
    for start in range(0, ops, window):
        for number, session in enumerate(sessions):
            for op in range(start, min(start + window, ops)):
                if op % 10 == 9:
                    session.read(callback=reads.append)
                else:
                    key = f"k{(op * 7 + number) % KEYS}"
                    session.put(key, op)
            cluster.drain()
    return sessions, reads


def test_served_history_retains_no_member_closures_and_bounded_memory():
    gc.collect()
    tracemalloc.start()
    try:
        cluster = ShardedCluster(
            shards=2, members_per_shard=3, hop_events="off"
        )
        before, _ = tracemalloc.get_traced_memory()
        sessions, reads = serve(cluster, OPS, WINDOW)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert len(reads) == SESSIONS * OPS // 10
    assert all(session.idle for session in sessions)
    for group in cluster.groups.values():
        # Serving-path groups keep no trace: nothing reads one there.
        assert len(group.network.trace) == 0
        for member, stack in group.stacks.items():
            # Nobody asked for a member's graph, so none was derived...
            assert len(stack._graph) == 0, member
            # ...and it is right once asked: every delivery is a node.
            assert len(stack.graph) == stack.delivered_count > OPS // 2, member
            assert stack.graph.closure_footprint() == (0, 0), member
    # The ledger's graph is the one the session and barrier layers query.
    entries, size = cluster.graph.closure_footprint()
    assert entries > 0 and size > 0
    retained_mb = (after - before) / 2**20
    assert retained_mb < RETAINED_LIMIT_MB, f"{retained_mb:.1f} MB retained"


def put_cycles(cluster, sessions, cycles, start):
    """``cycles`` serving cycles of 32 pipelined puts a session."""
    for cycle in range(start, start + cycles):
        for number, session in enumerate(sessions):
            for op in range(cycle * 32, cycle * 32 + 32):
                session.put(f"k{(op * 7 + number) % KEYS}", op)
        cluster.drain()


def test_a_pipelined_put_leaves_a_log_entry_behind_not_seven_containers():
    """The loop of ``docs/PERFORMANCE.md``, "Retained memory"."""
    cluster = ShardedCluster(shards=2, members_per_shard=3, hop_events="off")
    sessions = [cluster.router.session(f"client-{n}") for n in range(SESSIONS)]
    put_cycles(cluster, sessions, 30, start=0)  # warm-up: 1 920 puts
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        put_cycles(cluster, sessions, 60, start=30)  # measured: 3 840
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    retained = (after - before) / (SESSIONS * 60 * 32)
    assert retained <= PUT_RETAINED_LIMIT_KB * 1000, f"{retained:.0f} B a put"
    for group in cluster.groups.values():
        for member, stack in group.stacks.items():
            assert len(stack._graph) == 0, member


def barrier_bytes_per_read(ops):
    """Bytes `shard/barrier.py` allocated and still holds, per read."""
    gc.collect()
    tracemalloc.start()
    try:
        cluster = ShardedCluster(
            shards=2, members_per_shard=3, hop_events="off"
        )
        _sessions, reads = serve(cluster, ops, window=8)
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, barrier.__file__)]
        )
    finally:
        tracemalloc.stop()
    assert len(reads) == SESSIONS * ops // 10
    for read in reads:
        for name, held in vars(read).items():
            # No container that grows with the cut: the value is keyed
            # by object key, the barrier labels by shard.
            assert not isinstance(held, (set, frozenset)), name
            if isinstance(held, dict):
                assert not any(isinstance(k, MessageId) for k in held), name
    retained = sum(stat.size for stat in snapshot.statistics("filename"))
    return retained / len(reads)


def test_a_completed_barrier_read_retains_the_same_at_any_history_length():
    short = barrier_bytes_per_read(600)
    long = barrier_bytes_per_read(2400)
    assert short <= READ_RETAINED_LIMIT_KB * 1000, f"{short:.0f} B a read"
    assert long <= READ_RETAINED_LIMIT_KB * 1000, f"{long:.0f} B a read"
    assert abs(long - short) <= 0.10 * short, (short, long)
