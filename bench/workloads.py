"""The four fixed-work wire workloads and their seeded op sequences.

A workload is a *fixed number of operations against a fresh server*,
never a fixed duration: the server's per-op CPU and RSS grow with the
ops it has served and with session length, so only equal work compares.
Every size below is a constant; nothing is derived from elapsed time.

An op is ``(kind, key, value, expect)``: ``kind`` is ``put``/``get``/
``read``; ``expect`` is set only for gets of a session-private key,
where the one legal answer is known when the sequence is generated (the
session's own last put of that key, in program order).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Optional, Tuple

Op = Tuple[str, Optional[str], Optional[str], Optional[str]]

#: Keys each ``get_heavy`` session owns (written once, untimed, first).
PRIVATE_KEYS = 32
#: Ops per session in every workload's untimed verification pass.
VERIFY_OPS = 300
#: Shared keys in the verification pass.  A barrier read returns every
#: key, each one an op of the audited history, and the black-box check
#: is quadratic in history size: 64 keys cost 10 s, 16 cost under 1 s.
VERIFY_SHARED_KEYS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Requests one session keeps in flight (closed loop).
    depth: int
    #: Op mix as cumulative shares: put < get < read (read takes the rest).
    put_share: float
    get_share: float
    #: True: each session reads and writes only its own PRIVATE_KEYS.
    private_keys: bool
    #: True: the shared keys are written once, untimed, before wave 0.
    warm: bool
    ops_per_session: int
    waves: int
    #: Segments in a standalone (all-workloads) run.
    segments: int
    #: This host's wall time for one segment (between its fast and slow
    #: states), for planning only: the driver's ``--seconds`` is turned
    #: into a whole number of segments with it.  Never sizes the work.
    nominal_segment_s: float
    #: ``(crash_at, restart_at)`` op indices of session 0 in each wave at
    #: which replica s0n0 is crashed/restarted over a control connection.
    chaos: Optional[Tuple[int, int]] = None
    #: Keys shared by every session (unless ``private_keys``).
    shared_keys: int = 64

    def ops_per_segment(self, connections: int) -> int:
        return self.ops_per_session * self.waves * connections

    def verification(self) -> "Workload":
        """The same mix, shrunk to the untimed verification pass."""
        scale = VERIFY_OPS / self.ops_per_session
        return replace(
            self, ops_per_session=VERIFY_OPS, waves=1,
            shared_keys=VERIFY_SHARED_KEYS,
            chaos=self.chaos and tuple(int(at * scale) for at in self.chaos),
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="put_pipelined",
            why=(
                "100% puts, 2 conns x depth 32: full 64-op batch cycles, so "
                "the simulator drive and broadcast chassis do nearly all "
                "the work; replica reads and barriers do none"
            ),
            depth=32, put_share=1.0, get_share=1.0,
            private_keys=False, warm=False,
            ops_per_session=1200, waves=4, segments=8,
            nominal_segment_s=4.0,
        ),
        Workload(
            name="get_heavy",
            why=(
                "90% gets / 10% puts on session-private keys: gets bypass "
                "the batch cycle and the drive, so frame codec, asyncio and "
                "replica eligibility dominate"
            ),
            depth=32, put_share=0.10, get_share=1.0,
            private_keys=True, warm=False,
            ops_per_session=6000, waves=6, segments=4,
            nominal_segment_s=8.0,
        ),
        Workload(
            name="barrier_mix",
            why=(
                "90% puts / 10% barrier reads (the paper's commutative / "
                "non-commutative cycle): stable-point detection and "
                "snapshot folds dominate CPU and memory"
            ),
            depth=32, put_share=0.90, get_share=0.90,
            private_keys=False, warm=False,
            ops_per_session=600, waves=2, segments=12,
            nominal_segment_s=3.0,
        ),
        Workload(
            name="serial_crash",
            why=(
                "depth 1 (cycles of 1-2 ops), 60/35/5 put/get/read with a "
                "replica crash and restart per wave: latency is the fixed "
                "per-cycle cost, with recovery and view sync on the path"
            ),
            depth=1, put_share=0.60, get_share=0.95,
            private_keys=False, warm=True,
            ops_per_session=1500, waves=2, segments=4,
            nominal_segment_s=7.0,
            chaos=(500, 1000),
        ),
    )
}


def session_name(wave: int, index: int) -> str:
    return f"w{wave}s{index}"


def session_keys(workload: Workload, session: str) -> List[str]:
    if workload.private_keys:
        return [f"{session}.k{i}" for i in range(PRIVATE_KEYS)]
    return [f"k{i}" for i in range(workload.shared_keys)]


def warmup_ops(workload: Workload, session: str) -> List[Op]:
    """Untimed writes issued before a session's (or segment's) timed ops."""
    if workload.private_keys:
        return [
            ("put", key, f"{session}:init:{key}", None)
            for key in session_keys(workload, session)
        ]
    return []


def shared_warm_ops(workload: Workload) -> List[Op]:
    if not workload.warm:
        return []
    return [
        ("put", f"k{i}", f"warm:{i}", None)
        for i in range(workload.shared_keys)
    ]


def session_ops(
    workload: Workload, seed: int, wave: int, index: int
) -> List[Op]:
    """The seeded op sequence of one session of one wave.

    Values are ``<session>:<op index>``, unique per key across the whole
    segment, so the recorded history is *differentiated* — the
    precondition of the black-box causal-consistency check.
    """
    session = session_name(wave, index)
    rng = random.Random(f"{workload.name}:{seed}:{session}")
    keys = session_keys(workload, session)
    last: Dict[str, str] = {
        op[1]: op[2] for op in warmup_ops(workload, session)
    }
    ops: List[Op] = []
    #: Keys of the gets among the previous ``depth - 1`` ops.
    recent_gets: Deque[Optional[str]] = deque(maxlen=workload.depth - 1)
    for i in range(workload.ops_per_session):
        draw = rng.random()
        key = keys[rng.randrange(len(keys))]
        if draw < workload.put_share:
            while key in recent_gets:
                # Never write a key while a get of it may still be in
                # flight: the server answers a cycle's gets after the
                # cycle's drain, so such a get would return this later
                # put (README, "Leads").  Redraw instead of failing ops.
                key = keys[rng.randrange(len(keys))]
            value = f"{session}:{i}"
            last[key] = value
            ops.append(("put", key, value, None))
            recent_gets.append(None)
        elif draw < workload.get_share:
            expect = last.get(key) if workload.private_keys else None
            ops.append(("get", key, None, expect))
            recent_gets.append(key)
        else:
            ops.append(("read", None, None, None))
            recent_gets.append(None)
    return ops
