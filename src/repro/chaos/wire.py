"""Chaos-over-the-wire campaigns: end-to-end fault injection + auditing.

Where :mod:`repro.chaos.campaign` injects faults *inside* the simulator
(crash-stop replicas, partitions, loss) and audits with ground-truth
stamps, a wire campaign attacks the serving stack from the *outside* and
audits with nothing but what clients observed:

1. boot a real :class:`~repro.serve.server.ServeServer` on a real TCP
   port;
2. put a :class:`~repro.serve.faults.ChaosProxy` in front of it with a
   seeded :class:`~repro.serve.faults.WireFaultPlan` (cuts mid-frame,
   stalls, delays, duplicated frames, truncated frames);
3. drive :class:`~repro.serve.resilient.ResilientClient` sessions
   through the proxy while (depending on the campaign) also crashing
   and restarting replicas via the in-simulator chaos verbs, or
   squeezing the server's batch queue until it sheds;
4. after the dust settles, merge every client's recorded observations
   and run the black-box CC/CCv checker
   (:func:`repro.analysis.wire_history.check_wire_history`) — no
   simulator stamps, no server cooperation, exactly what the paper
   promises *clients* see.

A campaign passes only if there were **zero CC/CCv violations and zero
hangs** — every operation resolved or raised within its deadline.  The
stricter CM level is also checked and reported (it should hold too; it
is surfaced separately so a future CM-only anomaly is visible without
failing the causal-consistency gate).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.wire_history import (
    WireHistory,
    WireRecorder,
    check_wire_history,
)
from repro.serve.client import ServeError
from repro.serve.faults import ChaosProxy, WireFaultPlan
from repro.serve.resilient import GaveUp, ResilientClient
from repro.serve.server import ServeServer

#: The campaign kinds ``run_wire_campaign`` understands.
WIRE_CAMPAIGNS = (
    "disconnects",   # seeded cuts (mid-frame) + dup + delay, plus one
                     # in-simulator replica crash/restart mid-run
    "stalls",        # directional stalls + delays; deadlines must fire
    "truncations",   # frames cut short after an honest length prefix
    "overload",      # tiny batch queue; server sheds, clients back off
)

#: Per-client wall-clock budget (seconds): a generous backstop far above
#: any legitimate retry schedule — exceeding it is recorded as a *hang*,
#: the thing deadlines exist to make impossible.
CLIENT_BUDGET = 120.0


@dataclass
class WireCampaignResult:
    """Outcome of one wire-chaos campaign."""

    name: str
    seed: int
    clients: int
    ops: int = 0
    failed_ops: int = 0
    hangs: int = 0
    #: Black-box CC/CCv violations (the pass/fail gate).
    violations: List[str] = field(default_factory=list)
    #: CM-level findings, reported but not gating.
    cm_violations: List[str] = field(default_factory=list)
    #: Server-side (white-box) session-guarantee verdicts, for contrast.
    server_violations: List[str] = field(default_factory=list)
    #: Proxy + summed client healing counters.
    counters: Dict[str, int] = field(default_factory=dict)
    #: The merged client-observed history the verdicts were drawn from —
    #: kept so callers (tests, notebooks) can re-audit or mutate it.
    history: Optional[WireHistory] = None

    @property
    def ok(self) -> bool:
        return not self.violations and not self.hangs

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        extras = " ".join(
            f"{key}={value}"
            for key, value in sorted(self.counters.items())
            if value
        )
        lines = [
            f"[{status}] {self.name} seed={self.seed}: "
            f"ops={self.ops} failed={self.failed_ops} "
            f"hangs={self.hangs} violations={len(self.violations)} "
            f"cm={len(self.cm_violations)}"
        ]
        if extras:
            lines.append(f"  {extras}")
        lines.extend(f"  {v}" for v in self.violations)
        lines.extend(f"  (cm) {v}" for v in self.cm_violations)
        return "\n".join(lines)


def _plan_for(kind: str, seed: int) -> Optional[WireFaultPlan]:
    if kind == "disconnects":
        return WireFaultPlan(
            seed, cut_rate=0.015, dup_rate=0.04, delay_rate=0.08,
            delay_seconds=0.02,
        )
    if kind == "stalls":
        return WireFaultPlan(
            seed, stall_rate=0.05, delay_rate=0.10,
            stall_seconds=0.25, delay_seconds=0.03,
        )
    if kind == "truncations":
        return WireFaultPlan(seed, truncate_rate=0.02, cut_rate=0.01)
    # overload tortures the server itself; the proxy only forwards.
    return None


async def _drive_session(
    proxy: ChaosProxy,
    name: str,
    *,
    seed: int,
    ops: int,
    keys: List[str],
    request_timeout: float,
    result: WireCampaignResult,
    recorders: List[WireRecorder],
) -> None:
    """One resilient session's worth of campaign traffic."""
    rng = random.Random(seed)
    recorder = WireRecorder(name)
    recorders.append(recorder)
    client = ResilientClient(
        "127.0.0.1", proxy.port, name,
        request_timeout=request_timeout, seed=seed, recorder=recorder,
    )
    try:
        await client.connect()
    except (GaveUp, ServeError, ConnectionError, OSError):
        result.failed_ops += ops
        return
    try:
        for index in range(ops):
            roll = rng.random()
            try:
                if roll < 0.45:
                    await client.put(
                        rng.choice(keys), f"{name}:{index}"
                    )
                elif roll < 0.9:
                    await client.get(rng.choice(keys))
                else:
                    await client.read()
                result.ops += 1
            except (GaveUp, ServeError, ConnectionError, OSError):
                # Budget exhausted or a definitive refusal — a *failure*,
                # not a hang: the op raised within bounded time.
                result.failed_ops += 1
    finally:
        for key, value in client.counters.items():
            result.counters[key] = result.counters.get(key, 0) + value
        try:
            await client.close()
        except (ServeError, ConnectionError, OSError):
            pass


async def _run_clients(
    proxy: ChaosProxy,
    names: List[str],
    *,
    seed: int,
    ops: int,
    keys: List[str],
    request_timeout: float,
    result: WireCampaignResult,
    recorders: List[WireRecorder],
) -> None:
    """Run one wave of sessions, counting budget blowouts as hangs."""
    async def budgeted(index: int, name: str) -> None:
        try:
            await asyncio.wait_for(
                _drive_session(
                    proxy, name,
                    seed=seed * 7919 + index, ops=ops, keys=keys,
                    request_timeout=request_timeout,
                    result=result, recorders=recorders,
                ),
                CLIENT_BUDGET,
            )
        except asyncio.TimeoutError:
            result.hangs += 1

    await asyncio.gather(*[
        budgeted(index, name) for index, name in enumerate(names)
    ])


async def run_wire_campaign(
    kind: str,
    seed: int,
    *,
    clients: int = 4,
    ops_per_client: int = 20,
    shards: int = 2,
    members_per_shard: int = 3,
) -> WireCampaignResult:
    """Run one seeded chaos-over-the-wire campaign end to end."""
    if kind not in WIRE_CAMPAIGNS:
        raise ValueError(
            f"unknown wire campaign {kind!r} (know {WIRE_CAMPAIGNS})"
        )
    result = WireCampaignResult(name=kind, seed=seed, clients=clients)
    # A queue bound of one op: any two requests landing in the same
    # batch window shed the second — guarantees the campaign actually
    # exercises the overload frames and the clients' backoff.
    max_queue = 1 if kind == "overload" else None
    server = ServeServer(
        shards=shards, members_per_shard=members_per_shard,
        seed=seed, max_queue=max_queue,
    )
    await server.start()
    proxy = ChaosProxy(
        "127.0.0.1", server.port, plan=_plan_for(kind, seed)
    )
    await proxy.start()
    recorders: List[WireRecorder] = []
    # Tight deadlines so stalls convert into timeouts, not waits: the
    # longest proxy stall is ~0.4s, so 2s cleanly separates "stalled"
    # from "slow".
    request_timeout = 2.0
    keys = [f"wc{seed}k{i}" for i in range(6)]
    names = [f"wc-{kind}-{seed}-c{i}" for i in range(clients)]
    try:
        wave = _run_clients(
            proxy, names,
            seed=seed, ops=ops_per_client, keys=keys,
            request_timeout=request_timeout, result=result,
            recorders=recorders,
        )
        if kind == "disconnects":
            # Fold the in-simulator chaos verbs in: crash a replica
            # mid-wave (direct to the server, bypassing the proxy — the
            # control channel must not be the thing that flakes), then
            # restart it.  Client-visible answers must stay causally
            # consistent throughout.
            wave_task = asyncio.ensure_future(wave)
            control = ResilientClient(
                "127.0.0.1", server.port, f"wc-{kind}-{seed}-control",
                request_timeout=request_timeout,
            )
            member: Optional[str] = None
            try:
                await control.connect()
                await asyncio.sleep(0.2)
                reply = await control.chaos("crash", 0)
                member = reply.get("member")
                await asyncio.sleep(0.3)
            except (GaveUp, ServeError, ConnectionError, OSError):
                pass
            finally:
                if member is not None:
                    try:
                        await control.chaos("restart", 0, member)
                    except (GaveUp, ServeError, ConnectionError, OSError):
                        pass
                try:
                    await control.close()
                except (ServeError, ConnectionError, OSError):
                    pass
            await wave_task
        else:
            await wave
    finally:
        await proxy.stop()
        try:
            await server.shutdown(heal=True)
        except Exception:  # noqa: BLE001 - a torn-down server must not mask the audit
            pass
    for key, value in proxy.counters.items():
        result.counters[f"proxy_{key}"] = value
    history = WireHistory.merge(recorders)
    result.history = history
    result.violations = [
        str(v) for v in check_wire_history(history, levels=("CC", "CCv"))
    ]
    cm_only = [
        v for v in check_wire_history(history)
        if v.level == "CM"
    ]
    result.cm_violations = [str(v) for v in cm_only]
    server_verdicts = server.session_guarantee_violations()
    result.server_violations = [str(v) for v in server_verdicts]
    return result


async def run_wire_campaigns(
    kinds: List[str],
    seed: int,
    *,
    clients: int = 4,
    ops_per_client: int = 20,
) -> List[WireCampaignResult]:
    """Run several campaigns back to back (one server each)."""
    results = []
    for offset, kind in enumerate(kinds):
        results.append(await run_wire_campaign(
            kind, seed + offset,
            clients=clients, ops_per_client=ops_per_client,
        ))
    return results
