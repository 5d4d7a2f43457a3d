"""Multi-connection load generator for the serving layer.

Drives N concurrent :class:`~repro.serve.client.ServeClient` sessions
against one server in either of two shapes:

* **closed loop** (the default): each client keeps up to ``pipeline``
  writes outstanding and issues the next as soon as one completes —
  throughput is whatever the server sustains at that concurrency;
* **open loop**: each client targets ``rate`` operations per second,
  sleeping between issues regardless of completions — latency under a
  fixed offered load, the shape that exposes queueing.

Every ``read_every``-th operation is a consistent barrier read (a sync
point for the session's pipeline), and every ``get_every``-th is a
pipelined causally gated ``get`` of a previously written key — the
replica-routed read path.  With ``reconnect_every`` set, a client
periodically drains its pipeline, disconnects, and reconnects presenting
its causal token — exercising exactly the session-continuity path the
tokens exist for.  The clients do not heal: a dropped connection costs
its in-flight ops as errors and one in-place reconnect, and a client
whose reconnect fails counts its remaining ops as errors and stops.

Latencies are measured client-side (request write to reply dispatch) and
reported as p50/p99 over all clients; the report also folds in the
server's own metrics snapshot when ``fetch_stats`` is set, so one object
carries both sides of the wire.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.serve.client import (
    DEFAULT_REQUEST_TIMEOUT,
    ServeClient,
    ServeError,
    ServeOverload,
)
from repro.serve.metrics import percentile


@dataclass
class LoadReport:
    """Outcome of one load run (plus the server's view, if fetched)."""

    clients: int
    pipeline: int
    ops: int
    reads: int
    errors: int
    reconnects: int
    elapsed: float
    gets: int = 0
    #: Degradation counters: how much the run had to heal or shed.
    timeouts: int = 0
    overloads: int = 0
    latencies_ms: List[float] = field(repr=False, default_factory=list)
    server_stats: Optional[Dict[str, object]] = field(
        repr=False, default=None
    )

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def p50_ms(self) -> Optional[float]:
        return percentile(self.latencies_ms, 0.50)

    @property
    def p99_ms(self) -> Optional[float]:
        return percentile(self.latencies_ms, 0.99)

    def summary(self) -> str:
        p50 = f"{self.p50_ms:.2f}" if self.p50_ms is not None else "-"
        p99 = f"{self.p99_ms:.2f}" if self.p99_ms is not None else "-"
        return (
            f"clients={self.clients} pipeline={self.pipeline} "
            f"ops={self.ops} reads={self.reads} gets={self.gets} "
            f"errors={self.errors} reconnects={self.reconnects} "
            f"timeouts={self.timeouts} overloads={self.overloads} "
            f"{self.ops_per_sec:.0f} ops/s p50={p50}ms p99={p99}ms"
        )


async def _drive_client(
    host: str,
    port: int,
    name: str,
    *,
    ops: int,
    pipeline: int,
    read_every: int,
    get_every: int,
    reconnect_every: int,
    key_space: int,
    rate: Optional[float],
    seed: int,
    request_timeout: Optional[float],
    report: LoadReport,
) -> None:
    rng = random.Random(seed)
    client = ServeClient(host, port, name, request_timeout=request_timeout)
    await client.connect()
    outstanding: List[asyncio.Future] = []
    written: List[str] = []
    issued = 0

    async def reap(down_to: int) -> None:
        nonlocal outstanding
        while len(outstanding) > down_to:
            future = outstanding.pop(0)
            started = getattr(future, "_lg_started", None)
            try:
                await future
                if started is not None:
                    report.latencies_ms.append(
                        (time.perf_counter() - started) * 1000.0
                    )
                report.ops += 1
                if getattr(future, "_lg_get", False):
                    report.gets += 1
            except ServeOverload:
                report.overloads += 1
            except ServeError:
                report.errors += 1

    async def reopen() -> bool:
        await reap(0)
        try:
            await client.reconnect()
        except (ServeError, ConnectionError, OSError):
            report.errors += ops - issued
            return False
        report.reconnects += 1
        return True

    try:
        while issued < ops:
            if not client.connected and not await reopen():
                break
            issued += 1
            if read_every and issued % read_every == 0:
                # A barrier read is a session sync point: drain the
                # pipeline first, then await the read itself.
                await reap(0)
                started = time.perf_counter()
                try:
                    await client.read()
                    report.latencies_ms.append(
                        (time.perf_counter() - started) * 1000.0
                    )
                    report.ops += 1
                    report.reads += 1
                except ServeOverload:
                    report.overloads += 1
                except ServeError:
                    report.errors += 1
            else:
                try:
                    if get_every and issued % get_every == 0 and written:
                        # A causally gated get of a key this session
                        # wrote — pipelined like a put; the replica
                        # routing serves it.
                        future = client.get_submit(rng.choice(written))
                        future._lg_get = True  # type: ignore[attr-defined]
                    else:
                        key = f"k{rng.randrange(key_space)}"
                        future = client.put(key, f"{name}:{issued}")
                        written.append(key)
                except ServeError:
                    report.errors += 1  # never sent: the connection died
                else:
                    future._lg_started = time.perf_counter()  # type: ignore[attr-defined]
                    outstanding.append(future)
                    await reap(pipeline - 1)
            if reconnect_every and issued % reconnect_every == 0 \
                    and not await reopen():
                break
            if rate is not None and rate > 0:
                await asyncio.sleep(rng.expovariate(rate))
        await reap(0)
    finally:
        report.timeouts += client.counters["timeouts"]
        await client.close()


async def run_load(
    host: str,
    port: int,
    *,
    clients: int = 8,
    ops_per_client: int = 50,
    pipeline: int = 8,
    read_every: int = 10,
    get_every: int = 0,
    reconnect_every: int = 0,
    key_space: int = 64,
    rate: Optional[float] = None,
    seed: int = 0,
    session_prefix: str = "load",
    fetch_stats: bool = False,
    request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
) -> LoadReport:
    """Run the load shape and return a :class:`LoadReport`."""
    report = LoadReport(
        clients=clients, pipeline=pipeline,
        ops=0, reads=0, errors=0, reconnects=0, elapsed=0.0,
    )
    started = time.perf_counter()
    await asyncio.gather(*[
        _drive_client(
            host, port, f"{session_prefix}{index}",
            ops=ops_per_client,
            pipeline=max(1, pipeline),
            read_every=read_every,
            get_every=get_every,
            reconnect_every=reconnect_every,
            key_space=key_space,
            rate=rate,
            seed=seed * 10_007 + index,
            request_timeout=request_timeout,
            report=report,
        )
        for index in range(clients)
    ])
    report.elapsed = time.perf_counter() - started
    if fetch_stats:
        probe = ServeClient(host, port, f"{session_prefix}-probe")
        await probe.connect()
        report.server_stats = await probe.stats()
        await probe.close()
    return report
