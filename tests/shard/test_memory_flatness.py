"""Reachability state must not grow with history squared.

A failing-before regression for the bitset closure cache: the frozenset
closures this replaced retained 159 MB over this run (and 3 936 closures
memoised by member graphs on the receive path alone); masks retain
about 11 MB, and a member's graph — which nobody queries — memoises
nothing at all.

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
            assert len(stack.graph) > OPS // 2, member
            assert stack.graph.closure_footprint() == (0, 0), member
    # The ledger's graph is the one the session and barrier layers query.
    entries, size = cluster.graph.closure_footprint()
    assert entries > 0 and size > 0
    retained_mb = (after - before) / 2**20
    assert retained_mb < RETAINED_LIMIT_MB, f"{retained_mb:.1f} MB retained"


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
