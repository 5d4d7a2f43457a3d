"""Re-capture the determinism pins of ``tests/test_replica_group_pins.py``.

Runs every campaign keyed in that file's ``CHAOS_SEED_1``,
``CHAOS_ONCE_HASH_SEED_DEPENDENT``, ``CHAOS_QUICK_REST``, ``SHARD`` and
``SHARD_TWO`` and prints each dict in the file's literal format, so a
change that moves the pins on purpose replaces the literals with this
output instead of editing them by hand.  A pin must not depend on the
interpreter's hash seed, so capture under two and diff::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/chaos/capture_pins.py > h0.txt
    PYTHONHASHSEED=1 PYTHONPATH=src python tests/chaos/capture_pins.py > h1.txt
    diff h0.txt h1.txt

The comments between the file's entries are not reproduced.  Not a test
module: pytest does not collect it.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Iterable, List

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from repro.chaos import ChaosCluster, random_campaign  # noqa: E402
from repro.shard import ShardedCluster, sharded_campaign  # noqa: E402
from tests import test_replica_group_pins as pins  # noqa: E402

WIDTH = 78


def wrapped(items: Iterable[str], indent: str) -> List[str]:
    """``items`` filled greedily into lines of at most ``WIDTH``, each
    item followed by a comma."""
    lines: List[str] = []
    line = ""
    for item in items:
        candidate = f"{line} {item}," if line else f"{indent}{item},"
        if line and len(candidate) > WIDTH:
            lines.append(line)
            candidate = f"{indent}{item},"
        line = candidate
    if line:
        lines.append(line)
    return lines


def key_text(key) -> str:
    return "(" + ", ".join(
        f'"{part}"' if isinstance(part, str) else repr(part) for part in key
    ) + ")"


def chaos_entry(key, protocol: str, seed: int, overlap: bool) -> List[str]:
    cluster = ChaosCluster(
        protocol=protocol, members=pins.MEMBERS, seed=seed, overlap=overlap
    )
    result = cluster.run_campaign(
        random_campaign(pins.MEMBERS, seed=seed, overlap=overlap)
    )
    lines = [] if result.ok else [f"    # NOT OK: {result.summary()}"]
    counts = ", ".join(str(n) for n in (
        result.sends, result.sends_skipped, result.crashes, result.restarts,
        result.settle_rounds,
    ))
    lines.append(
        f"    {key_text(key)}: ({counts}, {result.sim_time:.6f}, {{"
    )
    lines += wrapped(
        (f'"{name}": {round(value, 6)!r}'
         for name, value in result.repair.items()),
        " " * 8,
    )
    lines.append("    }),")
    return lines


def shard_entry(shards: int, seed: int) -> List[str]:
    cluster = ShardedCluster(shards=shards, members_per_shard=3, seed=seed)
    result = cluster.run_campaign(sharded_campaign(
        cluster.shard_map,
        {s: g.members for s, g in cluster.groups.items()},
        seed=seed,
        ops_per_session=10,
    ))
    lines = [] if result.ok else [f"    # NOT OK: {result.summary()}"]
    counts = ", ".join(str(n) for n in (
        result.ops, result.ops_skipped, result.reads, result.reads_failed,
        result.rebalances, result.crashes, result.restarts,
        result.data_messages, result.settle_rounds,
    ))
    lines.append(f"    {seed}: ({counts}, {result.sim_time:.6f}),")
    return lines


def main() -> None:
    print("CHAOS_SEED_1 = {")
    for protocol, overlap in pins.CHAOS_SEED_1:
        print("\n".join(
            chaos_entry((protocol, overlap), protocol, 1, overlap)
        ))
    print("}")
    for name in ("CHAOS_ONCE_HASH_SEED_DEPENDENT", "CHAOS_QUICK_REST"):
        print(f"\n{name} = {{")
        for key in getattr(pins, name):
            print("\n".join(chaos_entry(key, *key)))
        print("}")
    for name, shards in (("SHARD", 3), ("SHARD_TWO", 2)):
        print(f"\n{name} = {{")
        for seed in getattr(pins, name):
            print("\n".join(shard_entry(shards, seed)))
        print("}")


if __name__ == "__main__":
    main()
