"""Single-group chaos campaigns that end unsafe or abort (ROADMAP 6(g)).

Outside the two seeds CI runs: a sweep of ``repro chaos`` over serial
seeds 1–21 and overlap seeds 1–14 finds these, identically under two
interpreter hash seeds, and ``sequencer`` overlap seed 15 lies outside
the swept range.  Strict, so that a fix turns them red until the marker
goes; write-up in ``docs/ROBUSTNESS.md``, "Open".
"""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError


def chaos(protocol: str, seed: int, overlap: bool) -> int:
    from repro.cli import main

    argv = ["chaos", "--protocol", protocol, "--seed", str(seed), "--seeds", "1"]
    return main(argv + ["--overlap"] if overlap else argv)


#: Each ends with safety or liveness violations after its settle phase.
UNSAFE = [
    # total-order
    ("lamport_total", 3, False),
    ("lamport_total", 5, False),
    ("lamport_total", 7, False),
    ("lamport_total", 13, False),
    ("lamport_total", 17, False),
    ("lamport_total", 18, False),
    ("lamport_total", 19, False),
    ("lamport_total", 4, True),
    # sequencer-epoch and total-order (overlap 15 also liveness)
    ("sequencer", 11, False),
    ("sequencer", 15, True),
]


class TestOpenUnsafeCampaigns:
    """The ``lamport_total`` ones may share a cause with ROADMAP 6(d)'s
    open trade; serial 3 and overlap 4 also failed liveness while the
    stability tracker counted no Lamport ack."""

    @pytest.mark.xfail(strict=True, reason="open: ROADMAP 6(g)")
    @pytest.mark.parametrize("protocol,seed,overlap", UNSAFE)
    def test_campaign_ends_safe(self, protocol, seed, overlap, capsys):
        assert chaos(protocol, seed, overlap) == 0, capsys.readouterr().out


class TestOpenSequencerWakeup:
    """The sequencer aborts the campaign runner.

    A restarted member delivers a label at a position, then learns a
    higher-epoch binding of that position to another label.  That label's
    lowest bound position is now below the delivery cursor, so
    ``_deliverable`` refuses it and ``_blockers`` names nothing, and
    ``BroadcastProtocol._run_passes`` raises out of ``run_campaign``:
    ``n2:4`` on serial seed 22.  ``repro chaos --protocol all --seeds 40``
    stops there.  (Overlap seed 15 raised too, on ``n2:0`` at ``n1``,
    until the digest carried the settled prefix; it now runs to an unsafe
    verdict.)
    """

    @pytest.mark.xfail(
        strict=True, raises=ProtocolError, reason="open: ROADMAP 6(g)"
    )
    @pytest.mark.parametrize("seed,overlap", [(22, False)])
    def test_campaign_runs_to_its_verdict(self, seed, overlap):
        assert chaos("sequencer", seed, overlap) == 0
