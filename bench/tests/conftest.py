"""Harness tests: ``python -m pytest bench/tests -q`` from the repo root.

Outside tier-1's ``testpaths``; the benchmark's modules are plain files
next to ``run.py``, so put that directory (and ``src``) on the path.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for entry in (BENCH.parent / "src", BENCH):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
