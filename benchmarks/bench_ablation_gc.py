"""ABLATION-GC benchmark — see :mod:`repro.experiments.ablation_gc`."""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.experiments import get_experiment
from repro.experiments.ablation_gc import LENGTHS, MEMBERS, run_workload

EXPERIMENT = get_experiment("ABLATION-GC")


def test_ablation_gc(benchmark):
    rows = EXPERIMENT.rows()
    print("\n" + format_table(EXPERIMENT.headers, rows, title=EXPERIMENT.title))
    by_key = {(row[0], row[1]): row for row in rows}
    for messages in LENGTHS:
        without = by_key[(messages, "off")]
        tracked = by_key[(messages, "on")]
        # Unbounded: every member stores every message.
        assert without[2] == messages * len(MEMBERS)
        # With stability tracking the whole history is reclaimed, and on
        # a loss-free network the digests that feed it chase nothing.
        assert tracked[2] == 0
        assert tracked[3] == messages * len(MEMBERS)
        assert tracked[5] == 0
    benchmark(run_workload, 40, True)
