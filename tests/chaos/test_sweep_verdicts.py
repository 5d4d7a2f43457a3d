"""The verdict lines ``make chaos-sweep`` gates on.

``tests/chaos/verdicts/`` holds each sweep's expected verdicts, one line
a campaign (``tests/chaos/sweep_verdicts.py``).  The sweeps take minutes
and stay out of tier-1; what is checked here is the extraction, and that
the committed single-group failures are the strict xfails of
``test_open_campaigns.py`` in the swept range, no more and no fewer.
"""

from __future__ import annotations

from pathlib import Path

from tests.chaos.sweep_verdicts import verdicts
from tests.chaos.test_open_campaigns import UNSAFE

VERDICTS = Path(__file__).resolve().parent / "verdicts"
SWEPT_SEEDS = 12

SWEEP = """\
       cbcast random-1       OK               sends=23 skipped=1 t=102.2
lamport_total overlap-4      2 VIOLATION(S)   sends=8 skipped=16 t=243.3
    [total-order] at 'n0': 'n0' and 'n1' disagree on common-label order
    [total-order] at 'n0': 'n0' and 'n3' disagree on common-label order
sharded-28       shards=2 6 VIOLATION(S)   ops=30 skipped=0 t=299.8
    [liveness]: no convergence after 80 repair rounds (shard 0 ...)
    [convergence] at 's0n1': missing 16 settled data label(s)

chaos: 2 overlapping campaign(s), 1 FAILED
"""


def test_one_line_a_campaign_without_counters():
    assert verdicts(SWEEP.splitlines(keepends=True)) == [
        "cbcast random-1 OK",
        "lamport_total overlap-4 2 VIOLATION(S) total-order",
        "sharded-28 shards=2 6 VIOLATION(S) liveness convergence",
        "chaos: 2 overlapping campaign(s), 1 FAILED",
    ]


def test_the_committed_failures_are_the_open_campaigns():
    expected = {case for case in UNSAFE if case[1] <= SWEPT_SEEDS}
    failed = set()
    for mode, overlap in (("serial", False), ("overlap", True)):
        lines = (VERDICTS / f"chaos-{mode}.txt").read_text().splitlines()
        assert len(lines) == 7 * SWEPT_SEEDS + 1
        for line in lines[:-1]:
            protocol, campaign, verdict = line.split()[:3]
            if verdict != "OK":
                failed.add((protocol, int(campaign.split("-")[1]), overlap))
    assert failed == expected
