"""The verdict lines of a ``repro chaos`` or ``repro shard`` sweep.

Each campaign becomes one line: its name, ``OK`` or ``N VIOLATION(S)``,
and the invariants it violated, each named once, in report order.  The
sweep's summary line is kept as it is.  Counters and clocks are left
out, so ``make chaos-sweep`` diffs each sweep's verdicts against the
ones committed in ``tests/chaos/verdicts/`` and a campaign that
flips fails the target, while a timing that moves does not::

    python tests/chaos/sweep_verdicts.py sweep-out/chaos-serial-h0.txt
"""

from __future__ import annotations

import re
import sys
from typing import Iterable, List

CAMPAIGN = re.compile(r"\s*(.*?\s(?:OK|\d+ VIOLATION\(S\)))\s")
INVARIANT = re.compile(r" {4}\[([\w-]+)\]")


def verdicts(lines: Iterable[str]) -> List[str]:
    rows: List[List[str]] = []
    for line in lines:
        invariant = INVARIANT.match(line)
        if invariant:
            if invariant.group(1) not in rows[-1]:
                rows[-1].append(invariant.group(1))
            continue
        campaign = CAMPAIGN.match(line)
        if campaign:
            rows.append([" ".join(campaign.group(1).split())])
        elif line.strip():
            rows.append([line.strip()])
    return [" ".join(row) for row in rows]


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as sweep:
        print("\n".join(verdicts(sweep)))
