"""The benchmark's own closed-loop load generator.

One single-threaded asyncio process drives ``C`` connections (one
session each) through the public :class:`repro.serve.ServeClient`.  The
loop is **closed**: a session issues its next request when a reply frees
one of its ``depth`` pipeline slots, and a barrier ``read`` is a sync
point — the session drains its pipeline, then awaits the read alone.

A *segment* is a fresh server, a fixed number of ops issued in *waves*
of ``C`` fresh sessions, the server's ``/proc`` counters, and SIGKILL.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.analysis.wire_history import WireRecorder
from repro.serve import ServeClient, ServeError

import host
from child import Calibrator, SegmentFailed, ServerProcess
from workloads import (
    Op, Workload, session_name, session_ops, shared_warm_ops, warmup_ops,
)

#: Generous: a hang-breaker, not a latency target.
REQUEST_TIMEOUT = 30.0
#: Seconds to wait for a spawned server to accept its first connection.
SPAWN_TIMEOUT = 30.0


@dataclass
class SessionResult:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: Keep every ``sample_every``-th (op, reply) pair (0: none), for
    #: timing the codec on the workload's own documents.
    sample_every: int = 0
    samples: List[Tuple[Op, dict]] = field(default_factory=list)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 5:
            self.failures.append(reason)


def _submit(client: ServeClient, op: Op) -> "asyncio.Future[dict]":
    kind, key, value, _expect = op
    if kind == "put":
        return client.put(key, value)
    if kind == "get":
        return client.get_submit(key)
    return client.submit({"t": "read"})


def _settle(
    future: "asyncio.Future[dict]", op: Op, result: SessionResult,
    recorder: Optional[WireRecorder],
) -> None:
    """Judge one finished request; record it if it was acknowledged."""
    kind, key, value, expect = op
    try:
        reply = future.result()
    except ServeError as exc:
        result.fail(f"{kind} {key}: {exc}")
        return
    if reply.get("t") != "reply":
        # retry / overload frames: the op was refused, which counts as
        # missing any latency limit.
        result.fail(f"{kind} {key}: answered {reply.get('t')!r}")
        return
    if kind == "get" and expect is not None and reply.get("value") != expect:
        result.wrong += 1
        result.fail(f"get {key}: {reply.get('value')!r}, wanted {expect!r}")
        return
    if result.sample_every and \
            len(result.latencies_ms) % result.sample_every == 0:
        result.samples.append((op, reply))
    if recorder is not None:
        if kind == "put":
            recorder.put(key, value)
        elif kind == "get":
            recorder.get(key, reply.get("value"))
        else:
            recorder.read(reply["value"])


async def drive_session(
    client: ServeClient,
    ops: List[Op],
    depth: int,
    result: SessionResult,
    recorder: Optional[WireRecorder] = None,
    on_issue: Optional[Callable[[int], "asyncio.Future[None]"]] = None,
) -> None:
    """Issue ``ops`` closed-loop with at most ``depth`` in flight."""
    result.attempted += len(ops)
    inflight: Deque[Tuple["asyncio.Future[dict]", float, Op]] = deque()
    issued = 0
    clock = time.perf_counter
    while issued < len(ops) or inflight:
        while issued < len(ops) and len(inflight) < depth:
            op = ops[issued]
            if op[0] == "read" and inflight:
                break  # sync point: drain the pipeline first
            if on_issue is not None:
                await on_issue(issued)
            try:
                future = _submit(client, op)
            except ServeError as exc:
                # The connection is gone: everything not yet answered
                # is lost with it.
                result.fail(f"connection lost: {exc}", len(ops) - issued)
                issued = len(ops)
                break
            inflight.append((future, clock(), op))
            issued += 1
            if op[0] == "read":
                break
        if not inflight:
            continue
        try:
            await inflight[0][0]
        except ServeError:
            pass  # judged in _settle
        now = clock()
        while inflight and inflight[0][0].done():
            future, started, op = inflight.popleft()
            result.latencies_ms.append((now - started) * 1000.0)
            _settle(future, op, result, recorder)


async def connect(port: int, session: str) -> ServeClient:
    client = ServeClient(
        "127.0.0.1", port, session, request_timeout=REQUEST_TIMEOUT
    )
    await client.connect()
    return client


async def wait_ready(server: ServerProcess) -> float:
    """Seconds until the freshly spawned server answers a ``hello``."""
    started = time.perf_counter()
    while True:
        if not server.alive():
            raise SegmentFailed("server exited before accepting connections")
        try:
            client = await connect(server.port, "probe")
        except OSError:
            if time.perf_counter() - started > SPAWN_TIMEOUT:
                raise SegmentFailed("server did not come up") from None
            await asyncio.sleep(0.005)
            continue
        elapsed = time.perf_counter() - started
        await client.close()
        return elapsed


async def chaos(port: int, action: str, member: str = "s0n0") -> None:
    """One fault verb on its own short-lived control connection.

    Never pipelined on a data connection: under load that dropped the
    connection in prototyping (see README, "Leads").
    """
    control = await connect(port, "control")
    try:
        await control.chaos(action, 0, member)
    finally:
        await control.close()


@dataclass
class Wave:
    """One wave's timed window and what the server did in it."""
    started: float  # perf_counter
    ended: float
    completed: int
    server_cpu_s: float
    latencies_ms: List[float]

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


@dataclass
class SegmentResult:
    seed: int
    setup_s: float
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    loadgen_cpu_s: float = 0.0
    peak_rss_kb: int = 0
    waves: List[Wave] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: Server VmRSS after each wave.
    rss_kb: List[int] = field(default_factory=list)
    #: ``perf_counter`` interval from the spawn to the first ``hello``.
    setup_window: Tuple[float, float] = (0.0, 0.0)
    #: The calibrator's samples over the segment: (``perf_counter``, ms).
    spin: List[Tuple[float, float]] = field(default_factory=list)
    sample_every: int = 0
    samples: List[Tuple[Op, dict]] = field(default_factory=list)
    stats_before: Optional[Dict[str, object]] = None
    stats_after: Optional[Dict[str, object]] = None

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def timed_s(self) -> float:
        return sum(wave.wall_s for wave in self.waves)

    @property
    def latencies_ms(self) -> List[float]:
        return [ms for wave in self.waves for ms in wave.latencies_ms]

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.timed_s

    @property
    def server_cpu_ms_per_op(self) -> float:
        return (
            sum(wave.server_cpu_s for wave in self.waves) * 1000.0
            / self.completed
        )

    def wave_weather(self, wave: Wave) -> float:
        """Host slowness while ``wave`` ran (1.0 = the reference host)."""
        return host.weather(self.spin, [(wave.started, wave.ended)])

    @property
    def weather(self) -> float:
        """Host slowness over all the waves."""
        return host.weather(
            self.spin, [(wave.started, wave.ended) for wave in self.waves]
        )

    @property
    def spawn_weather(self) -> float:
        """Host slowness while the server came up."""
        return host.weather(self.spin, [self.setup_window])


async def _fetch_stats(port: int) -> Dict[str, object]:
    probe = await connect(port, "stats-probe")
    try:
        return await probe.stats()
    finally:
        await probe.close()


async def _warm(
    client: ServeClient, ops: List[Op],
    recorder: Optional[WireRecorder] = None,
) -> None:
    """Untimed pipelined writes; a failure here fails the segment."""
    result = SessionResult()
    await drive_session(client, ops, 32, result, recorder)
    if result.failed:
        raise SegmentFailed(f"warm-up failed: {result.failures}")


async def _watchdog(server: ServerProcess) -> None:
    """Kill a runaway server mid-wave (raises out of the wave)."""
    while True:
        await asyncio.sleep(0.5)
        server.check_memory()


async def run_waves(
    server: ServerProcess,
    workload: Workload,
    seed: int,
    segment: SegmentResult,
    recorders: Optional[Dict[str, WireRecorder]] = None,
) -> None:
    """Issue the segment's waves against ``server``, filling ``segment``."""
    connections = host.connections()
    port = server.port
    warm = shared_warm_ops(workload)
    if warm:
        recorder = None
        if recorders is not None:
            recorder = recorders.setdefault("warm", WireRecorder("warm"))
        client = await connect(port, "warm")
        try:
            await _warm(client, warm, recorder)
        finally:
            await client.close()
    for wave in range(workload.waves):
        clients = []
        try:
            plans = []
            for index in range(connections):
                name = session_name(wave, index)
                client = await connect(port, name)
                clients.append(client)
                recorder = None
                if recorders is not None:
                    recorder = recorders.setdefault(name, WireRecorder(name))
                await _warm(client, warmup_ops(workload, name), recorder)
                result = SessionResult(sample_every=segment.sample_every)
                ops = session_ops(workload, seed, wave, index)
                if recorder is not None:
                    # Verification: close with one barrier read, so that
                    # a pure-put history still has an observation.
                    ops.append(("read", None, None, None))
                plans.append((client, ops, result, recorder))

            on_issue = None
            if workload.chaos is not None:
                crash_at, restart_at = workload.chaos

                async def on_issue(issued: int) -> None:
                    if issued == crash_at:
                        await chaos(port, "crash")
                    elif issued == restart_at:
                        await chaos(port, "restart")

            cpu_before = server.cpu_seconds()
            own_before = time.process_time()
            watchdog = asyncio.ensure_future(_watchdog(server))
            started = time.perf_counter()
            try:
                await asyncio.gather(*[
                    drive_session(
                        client, ops, workload.depth, result, recorder,
                        on_issue if index == 0 else None,
                    )
                    for index, (client, ops, result, recorder)
                    in enumerate(plans)
                ])
                ended = time.perf_counter()
            finally:
                watchdog.cancel()
                try:
                    await watchdog  # re-raises if the watchdog fired
                except asyncio.CancelledError:
                    pass
            segment.loadgen_cpu_s += time.process_time() - own_before
            results = [result for _client, _ops, result, _recorder in plans]
            segment.waves.append(Wave(
                started, ended,
                completed=sum(r.attempted - r.failed for r in results),
                server_cpu_s=server.cpu_seconds() - cpu_before,
                latencies_ms=[ms for r in results for ms in r.latencies_ms],
            ))
            for result in results:
                segment.attempted += result.attempted
                segment.failed += result.failed
                segment.wrong += result.wrong
                segment.failures.extend(result.failures)
                segment.samples.extend(result.samples)
        finally:
            for client in clients:
                await client.close()
        segment.rss_kb.append(server.rss_kb())


async def run_segment(
    workload: Workload, seed: int, *, with_stats: bool = False,
    sample_every: int = 0,
) -> SegmentResult:
    """Fresh server -> fixed ops -> /proc counters -> SIGKILL.

    ``with_stats`` brackets the waves with the public ``stats`` verb
    (the traced run's view of the server's own counters).
    """
    calibrator = Calibrator(host.server_core())
    try:
        spawned = time.perf_counter()
        server = ServerProcess(seed, host.server_core())
        try:
            segment = SegmentResult(
                seed=seed, setup_s=await wait_ready(server),
                sample_every=sample_every,
            )
            segment.setup_window = (spawned, time.perf_counter())
            if with_stats:
                segment.stats_before = await _fetch_stats(server.port)
            await run_waves(server, workload, seed, segment)
            if with_stats:
                segment.stats_after = await _fetch_stats(server.port)
            segment.peak_rss_kb = server.peak_rss_kb()
        finally:
            server.close()
        segment.spin = calibrator.stop()
        return segment
    finally:
        calibrator.close()
