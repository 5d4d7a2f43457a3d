#!/usr/bin/env python3
"""Sharded key-value store: cross-shard causality without global clocks.

Three independent causal-broadcast groups share one object space.  Two
client sessions write across shards — each write's ``Occurs-After`` is
the session's causal frontier projected onto the target shard, so no
system-wide ordering machinery exists, yet a barrier read anywhere
observes a causally consistent multi-shard snapshot.  Mid-run, one slot
is rebalanced between groups (drain -> transfer -> cutover) while the
traffic keeps flowing.

Run::

    python examples/sharded_kvstore_demo.py
"""

from __future__ import annotations

from repro.shard import ShardedCluster


def key_for(cluster: ShardedCluster, shard: int, start: int = 0) -> str:
    index = start
    while cluster.shard_map.shard_of(f"k{index}") != shard:
        index += 1
    return f"k{index}"


def main() -> None:
    cluster = ShardedCluster(shards=3, members_per_shard=3, seed=42)
    k0, k1, k2 = (key_for(cluster, shard) for shard in (0, 1, 2))

    # Session "alice" writes a causal chain across all three shards.
    alice = cluster.router.session("alice")
    alice.put(k0, "draft")
    alice.put(k1, "review")   # cross-shard: occurs-after the draft
    alice.put(k2, "publish")  # ... and transitively after both
    cluster.drain()

    chain = [cluster.ledger.ops[label] for label in cluster.ledger.issue_order]
    print("alice's chain (shard / occurs-after / cross-deps):")
    for record in chain:
        print(
            f"  {record.label}  shard={record.shard}  "
            f"deps={sorted(map(str, record.deps))}  "
            f"cross={sorted(map(str, record.cross_deps))}"
        )

    # A different session reads all shards at a stable point.
    bob = cluster.router.session("bob")
    bob.read()
    cluster.drain()
    (snapshot,) = bob.reads
    print(f"\nbob's barrier read: {dict(sorted(snapshot.value.items()))}")
    assert snapshot.value == {k0: "draft", k1: "review", k2: "publish"}

    # Rebalance k0's slot from shard 0 to shard 2, live.
    slot = cluster.shard_map.slot_of(k0)
    move = cluster.rebalancer.move_slot(slot, 2)
    bob.put(k0, "v2-during-move")  # parks until the cutover, then re-routes
    cluster.drain()
    violations, _rounds = cluster.settle()
    assert violations == [] and move.phase == "done"
    print(
        f"\nslot {slot} moved shard {move.source} -> {move.dest} "
        f"(map v{cluster.shard_map.version}, "
        f"{move.entries} entr{'y' if move.entries == 1 else 'ies'} carried, "
        f"migrate={move.migrate_label})"
    )

    bob.read()
    cluster.drain()
    violations, _rounds = cluster.settle()
    assert violations == []
    after = bob.reads[-1]
    print(f"read after the move: {dict(sorted(after.value.items()))}")
    assert after.value[k0] == "v2-during-move"

    assert cluster.check_invariants() == []
    print("\ncross-shard causal audit: OK "
          f"({len(cluster.ledger.ops)} operations, zero violations)")


if __name__ == "__main__":
    main()
