"""The correctness gate every workload passes before it is timed.

An untimed *verification pass* — the workload's own mix, 2 sessions x
300 ops, each session closing with one barrier read so that a pure-put
history still has observations to judge — with a ``WireRecorder`` per
session.  It demands four things:

* the black-box check of arXiv:1611.00580 (``check_wire_history`` at
  CC and CCv) finds nothing in what the clients saw;
* every get of a session-private key returned the session's own last
  put of it (checked reply by reply, in timed segments too);
* the server, interrupted, drains and exits 0 with ``audit: clean`` —
  the white-box session-guarantee audit over the same run;
* the same history with one read made stale *is* flagged, so a green
  check is not a vacuous one.

Timed segments end in SIGKILL instead: the drain audit is quadratic in
ops served (0.2 s after 600 ops, ~40 s after 9 600).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.wire_history import (
    WireHistory, WireRecorder, check_wire_history, corrupt_stale_read,
)

import host
import wireload
from child import ServerProcess
from workloads import Workload

LEVELS = ("CC", "CCv")
#: Seconds the interrupted server gets to drain and audit.
DRAIN_TIMEOUT = 60.0


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    #: Seconds from spawning the pass's server to its first ``hello`` reply.
    setup_s: float = 0.0
    history_ops: int = 0
    #: Seconds in the black-box check / in the server's drain audit.
    wire_audit_s: float = 0.0
    drain_audit_s: float = 0.0
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


async def verification_pass(workload: Workload, seed: int) -> Verdict:
    verdict = Verdict()
    recorders: Dict[str, WireRecorder] = {}
    server = ServerProcess(seed, host.server_core())
    try:
        segment = wireload.SegmentResult(
            seed=seed, setup_s=await wireload.wait_ready(server)
        )
        await wireload.run_waves(
            server, workload.verification(), seed, segment, recorders
        )
        verdict.setup_s = segment.setup_s
        verdict.attempted = segment.attempted
        verdict.failed = segment.failed
        if segment.failed:
            verdict.problems.append(
                f"{segment.failed} of {segment.attempted} ops failed: "
                f"{segment.failures[:3]}"
            )
        started = time.perf_counter()
        code, output = server.interrupt(DRAIN_TIMEOUT)
        verdict.drain_audit_s = time.perf_counter() - started
        if code != 0 or "audit: clean" not in output:
            verdict.problems.append(
                f"server exit {code}, drain said: {output.strip()[-300:]!r}"
            )
    finally:
        server.close()

    history = WireHistory.merge(recorders.values())
    verdict.history_ops = len(history)
    started = time.perf_counter()
    violations = check_wire_history(history, levels=LEVELS)
    verdict.wire_audit_s = time.perf_counter() - started
    verdict.problems.extend(f"black-box: {v}" for v in violations[:5])
    try:
        planted = check_wire_history(
            corrupt_stale_read(history), levels=LEVELS
        )
    except ValueError as exc:
        verdict.problems.append(f"non-vacuity: cannot corrupt history: {exc}")
    else:
        if not planted:
            verdict.problems.append(
                "non-vacuity: a planted stale read was not flagged"
            )
    return verdict
