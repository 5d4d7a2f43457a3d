"""A seeded campaign must not read ``PYTHONHASHSEED``.

Failing-before regressions:

* ``RecoveryAgent._scan`` iterated the frozenset ``missing_for`` returns —
  labels hashed through their ``str`` sender — so the order NACKs went
  out, the ``!rec`` control labels they took and the RNG draws of their
  hops followed the interpreter's hash seed.  ``osend`` seed 2 ended at
  t=129.5 under hash seed 0 and t=131.9 under hash seed 1.
* ``InvariantMonitor.check_sequencer_epochs`` walked the set of labels two
  members both delivered, so ``sequencer`` seed 4 printed its 24
  ``sequencer-epoch`` violations in a different order per hash seed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def campaign(hash_seed: int, protocol: str, seed: int):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    return subprocess.run(
        [
            sys.executable, "-m", "repro", "chaos",
            "--protocol", protocol, "--seed", str(seed), "--seeds", "1",
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_osend_seed_2_reads_the_same_under_two_hash_seeds():
    first, second = campaign(0, "osend", 2), campaign(1, "osend", 2)
    assert first.returncode == second.returncode == 0, first.stderr
    assert "random-2" in first.stdout and "t=129.5" in first.stdout
    assert first.stdout == second.stdout


def test_sequencer_epoch_violations_read_the_same_under_two_hash_seeds():
    # Seed 4 ends unsafe (ROADMAP 6(g)); the report must still be one text.
    first, second = campaign(0, "sequencer", 4), campaign(1, "sequencer", 4)
    assert first.returncode == 1, first.stderr
    assert first.stdout.count("[sequencer-epoch]") == 24
    assert first.stdout == second.stdout
