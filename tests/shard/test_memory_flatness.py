"""Reachability state must not grow with history squared.

A failing-before regression for the bitset closure cache: the frozenset
closures this replaced retained 159 MB over this run (and 3 936 closures
memoised by member graphs on the receive path alone); masks retain
about 11 MB, and a member's graph — which nobody queries — memoises
nothing at all.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.shard.cluster import ShardedCluster

SESSIONS = 2
OPS = 600
KEYS = 64
WINDOW = 32
RETAINED_LIMIT_MB = 40


def test_served_history_retains_no_member_closures_and_bounded_memory():
    gc.collect()
    tracemalloc.start()
    try:
        cluster = ShardedCluster(
            shards=2, members_per_shard=3, hop_events="off"
        )
        before, _ = tracemalloc.get_traced_memory()
        sessions = [
            cluster.router.session(f"client-{n}") for n in range(SESSIONS)
        ]
        reads = []
        for start in range(0, OPS, WINDOW):
            for number, session in enumerate(sessions):
                for op in range(start, min(start + WINDOW, OPS)):
                    if op % 10 == 9:
                        session.read(callback=reads.append)
                    else:
                        key = f"k{(op * 7 + number) % KEYS}"
                        session.put(key, op)
                cluster.drain()
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
