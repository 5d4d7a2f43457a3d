"""A seeded campaign must not read ``PYTHONHASHSEED``.

Failing-before regression: ``RecoveryAgent._scan`` iterated the frozenset
``missing_for`` returns — labels hashed through their ``str`` sender — so
the order NACKs went out, the ``!rec`` control labels they took and the
RNG draws of their hops followed the interpreter's hash seed.  ``osend``
seed 2 ended at t=129.5 under hash seed 0 and t=131.9 under hash seed 1.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def campaign_summary(hash_seed: int) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    done = subprocess.run(
        [
            sys.executable, "-m", "repro", "chaos",
            "--protocol", "osend", "--seed", "2", "--seeds", "1",
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_osend_seed_2_reads_the_same_under_two_hash_seeds():
    first, second = campaign_summary(0), campaign_summary(1)
    assert "random-2" in first and "t=129.5" in first
    assert first == second
