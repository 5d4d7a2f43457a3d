"""Direct drive: a segment's op sequence replayed in-process.

The traced run's second half.  The same generated ops the wire segment
issued are replayed through the calls the server makes into the layers
below it — ``ShardRouter.session().put/read``, ``ShardedCluster``'s
``read_members``/``covers``/``member_read`` and ``drain()`` — on a
cluster built exactly as ``ServeServer`` builds its own.  With a
:class:`~spans.Tracer` the public methods at each layer boundary are
wrapped in spans for the duration of the replay.

Cycle composition is *fixed*: each batch cycle serves the in-flight
window (``depth`` ops, cut at a barrier read, which is a sync point) of
``sessions_per_cycle`` sessions, sessions taking turns.  The simulator
is seeded, so with the composition fixed every count repeats exactly.
Within a window the server's own rule is applied: a get is served
directly from a replica until the session has an op inside the batch
pipeline, after which gets join the cycle and are answered after its
drain.
"""

from __future__ import annotations

import gc
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.broadcast.base import BroadcastProtocol
from repro.broadcast.gc import StabilityTracker
from repro.broadcast.recovery import RecoveryAgent
from repro.graph.depgraph import DependencyGraph
from repro.group.view_sync import ViewSyncAgent
from repro.net.network import Network
from repro.shard.barrier import StablePointBarrier
from repro.shard.cluster import ShardedCluster
from repro.shard.frontier import FrontierTracker
from repro.sim.scheduler import Scheduler

import host
from child import MEMBERS, SHARDS
from spans import Tracer
from workloads import (
    Op, Workload, session_name, session_ops, shared_warm_ops, warmup_ops,
)

#: (class, public method, span name); a span's layer is its name up to
#: the last dot, i.e. the module the method lives in.
WRAPPED = (
    (Scheduler, "run", "sim.scheduler.run"),
    (Network, "unicast", "net.network.unicast"),
    (Network, "broadcast", "net.network.broadcast"),
    (BroadcastProtocol, "on_receive", "broadcast.base.on_receive"),
    (StabilityTracker, "intercept", "broadcast.gc.intercept"),
    (StabilityTracker, "gossip_round", "broadcast.gc.gossip_round"),
    (RecoveryAgent, "intercept", "broadcast.recovery.intercept"),
    (RecoveryAgent, "anti_entropy_round",
     "broadcast.recovery.anti_entropy_round"),
    (ViewSyncAgent, "intercept", "group.view_sync.intercept"),
    (DependencyGraph, "add", "graph.depgraph.add"),
    (ShardedCluster, "shard_send", "shard.cluster.shard_send"),
    (ShardedCluster, "maximal", "shard.cluster.maximal"),
    (ShardedCluster, "project", "shard.cluster.project"),
    (ShardedCluster, "covers", "shard.cluster.covers"),
    (ShardedCluster, "member_read", "shard.cluster.member_read"),
    (StablePointBarrier, "start", "shard.barrier.start"),
    (FrontierTracker, "note", "shard.frontier.note"),
)

#: Layers that make up the simulator drive (everything under
#: ``ShardedCluster.drain()`` except the barrier's own bookkeeping).
DRIVE_LAYERS = (
    "sim.scheduler", "net.network", "broadcast.base", "broadcast.gc",
    "broadcast.recovery", "group.view_sync", "graph.depgraph",
    "shard.frontier",
)

#: Root span of one window (direct gets, then the cycle); its self time
#: is the replay's own bookkeeping and belongs to no layer.
ROOT = "replay.window"


#: What ``_Replay.span`` hands out on the bare replay (reusable).
_NO_SPAN = nullcontext()


def layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


def install(tracer: Tracer) -> None:
    for owner, method, name in WRAPPED:
        tracer.wrap(owner, method, name)
    # A barrier finishes inside the drive, when its label is delivered
    # and the cluster fires the callback the barrier registered: wrap
    # that callback so the fold and closure work is the barrier's.
    watch = ShardedCluster.__dict__["watch"]

    def traced_watch(self, label, callback):
        def delivered(member):
            with tracer.span("shard.barrier.delivered"):
                callback(member)
        return watch(self, label, delivered)

    tracer.patch(ShardedCluster, "watch", traced_watch)


@dataclass
class ReplayResult:
    ops: int = 0
    puts: int = 0
    gets: int = 0
    reads: int = 0
    cycles: int = 0
    cycle_ops: int = 0
    direct_gets: int = 0
    wrong: int = 0
    wall_ns: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    gc_ns: int = 0
    gc_max_ns: int = 0
    gc_gen2: int = 0

    @property
    def batch_mean(self) -> float:
        return self.cycle_ops / self.cycles if self.cycles else 0.0


def windows(
    plans: List[List[Op]], depth: int, sessions_per_cycle: int
) -> Iterator[List[Tuple[int, int, Op]]]:
    """The fixed cycle composition: lists of (session, op index, op)."""
    position = [0] * len(plans)
    turn = 0
    while any(position[s] < len(plans[s]) for s in range(len(plans))):
        window: List[Tuple[int, int, Op]] = []
        served = 0
        for offset in range(len(plans)):
            s = (turn + offset) % len(plans)
            ops = plans[s]
            if position[s] >= len(ops) or served == sessions_per_cycle:
                continue
            served += 1
            taken = 0
            while position[s] < len(ops) and taken < depth:
                op = ops[position[s]]
                if op[0] == "read" and taken:
                    break
                window.append((s, position[s], op))
                position[s] += 1
                taken += 1
                if op[0] == "read":
                    break
        turn = (turn + 1) % len(plans)
        yield window


def planned_batch_mean(workload: Workload, seed: int) -> float:
    """Mean ops per window at one session per cycle, without running it."""
    total = count = 0
    for wave in range(workload.waves):
        plans = [
            session_ops(workload, seed, wave, index)
            for index in range(host.connections())
        ]
        for window in windows(plans, workload.depth, 1):
            total += len(window)
            count += 1
    return total / count


class _Replay:
    def __init__(
        self, workload: Workload, seed: int, tracer: Optional[Tracer]
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.cluster = ShardedCluster(
            shards=SHARDS, members_per_shard=MEMBERS, seed=seed,
            hop_events="off",
        )
        self.result = ReplayResult()
        self._rr: Dict[int, int] = {}
        self._deliveries = 0
        for group in self.cluster.groups.values():
            for stack in group.stacks.values():
                stack.on_deliver(self._count_delivery)

    def _count_delivery(self, _envelope) -> None:
        self._deliveries += 1

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else _NO_SPAN

    # -- what the server does per op ---------------------------------------

    def _reply_token(self, session) -> None:
        with self.span("shard.router.export_token"):
            session.export_token()

    def _serve_get(self, session, op: Op, *, after_cycle: bool) -> bool:
        """Member read of ``op``'s key; False if no member covers it.

        A direct get picks round-robin among the covering members; a get
        answered after its cycle's drain tries the shard contact first.
        """
        cluster = self.cluster
        key = op[1]
        with self.span("shard.router.read_floor"):
            shard, _slot, floor = session.read_floor(key)
        with self.span("shard.cluster.read_members"):
            members = cluster.read_members(shard)
            if after_cycle:
                contact = cluster.contact(shard)
                if contact in members:
                    members = [contact] + [m for m in members if m != contact]
        eligible = (m for m in members if cluster.covers(shard, m, floor))
        if after_cycle:
            member = next(eligible, None)
        else:
            eligible = list(eligible)
            member = None
            if eligible:
                cursor = self._rr.get(shard, 0)
                self._rr[shard] = cursor + 1
                member = eligible[cursor % len(eligible)]
        if member is None:
            return False
        value, label = cluster.member_read(shard, member, key)
        if label is not None:
            with self.span("shard.router.observe"):
                session.observe(label)
        if op[3] is not None and value != op[3]:
            self.result.wrong += 1
        self._reply_token(session)
        return True

    def _window(self, names: List[str], window) -> None:
        cluster = self.cluster
        router = cluster.router
        result = self.result
        cycle: List[Tuple[object, Op]] = []
        in_pipeline = set()
        for s, index, op in window:
            if s == 0 and self.workload.chaos is not None:
                self._chaos(index)
            session = router.session(names[s])
            kind = op[0]
            if kind == "get":
                result.gets += 1
                if s not in in_pipeline and session.idle \
                        and self._serve_get(session, op, after_cycle=False):
                    result.direct_gets += 1
                    continue
            elif kind == "put":
                result.puts += 1
                with self.span("shard.router.put"):
                    session.put(op[1], op[2], on_issued=_ignore)
            else:
                result.reads += 1
                with self.span("shard.router.read"):
                    session.read(callback=_ignore)
            in_pipeline.add(s)
            cycle.append((session, op))
        if not cycle:
            return
        result.cycles += 1
        result.cycle_ops += len(cycle)
        with self.span("shard.cluster.drain"):
            cluster.drain()
        for session, op in cycle:
            if op[0] == "get":
                if not self._serve_get(session, op, after_cycle=True):
                    # Nobody covers the floor (mid-repair): the server
                    # folds the session's own past instead; not replayed.
                    result.counts["cycle_get_uncovered"] = \
                        result.counts.get("cycle_get_uncovered", 0) + 1
                    self._reply_token(session)
            else:
                self._reply_token(session)

    def _chaos(self, index: int) -> None:
        """The server's ``chaos crash``/``restart`` verbs at s0n0."""
        crash_at, restart_at = self.workload.chaos
        cluster = self.cluster
        group = cluster.groups[0]
        if index == crash_at:
            group.crash("s0n0")
            cluster.drain()
        elif index == restart_at:
            group.restart("s0n0")
            # One repair round, as the server runs after a restart.
            for each in cluster.groups.values():
                for member, stack in each.stacks.items():
                    if not stack.crashed:
                        each.recoveries[member].anti_entropy_round()
                        each.trackers[member].gossip_round()
            cluster.router.kick()
            cluster.drain()

    def _untimed(self, name: str, ops: List[Op]) -> None:
        session = self.cluster.router.session(name)
        for op in ops:
            session.put(op[1], op[2])
        self.cluster.drain()

    # -- the segment -------------------------------------------------------

    def run(self, sessions_per_cycle: int) -> ReplayResult:
        workload, result, tracer = self.workload, self.result, self.tracer
        cluster = self.cluster
        connections = host.connections()
        warm = shared_warm_ops(workload)
        if warm:
            self._untimed("warm", warm)
        before = self._counters()
        for wave in range(workload.waves):
            names = [session_name(wave, i) for i in range(connections)]
            plans = []
            for index, name in enumerate(names):
                setup = warmup_ops(workload, name)
                if setup:
                    self._untimed(name, setup)
                plans.append(session_ops(workload, self.seed, wave, index))
            started = time.perf_counter_ns()
            for window in windows(plans, workload.depth, sessions_per_cycle):
                if tracer is not None:
                    tracer.cycle += 1
                with self.span(ROOT):
                    self._window(names, window)
            result.wall_ns += time.perf_counter_ns() - started
            result.ops += sum(len(plan) for plan in plans)
        after = self._counters()
        for key, value in after.items():
            result.counts[key] = value - before[key]
        result.counts["holdback_peak"] = max(
            stack.max_holdback
            for group in cluster.groups.values()
            for stack in group.stacks.values()
        )
        result.counts["graph_nodes_end"] = len(cluster.graph)
        result.counts["barrier_aborts"] = cluster.reads_failed
        result.counts["view_installs"] = sum(
            agent.changes_installed
            for group in cluster.groups.values()
            for agent in group.view_syncs.values()
        )
        return result

    def _counters(self) -> Dict[str, int]:
        groups = self.cluster.groups.values()
        return {
            "events": self.cluster.scheduler.events_processed,
            "sends": sum(group.network.hops_sent for group in groups),
            "deliveries": self._deliveries,
        }


def _ignore(_value) -> None:
    """The server's per-op callbacks store a label; the replay needs none."""


def replay(
    workload: Workload, seed: int, sessions_per_cycle: int,
    tracer: Optional[Tracer] = None,
) -> ReplayResult:
    """Replay one segment; with ``tracer``, under spans."""
    run = _Replay(workload, seed, tracer)
    result = run.result

    pause_started = [0]

    def on_gc(phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            pause_started[0] = time.perf_counter_ns()
        else:
            pause = time.perf_counter_ns() - pause_started[0]
            result.gc_ns += pause
            result.gc_max_ns = max(result.gc_max_ns, pause)
            if info["generation"] == 2:
                result.gc_gen2 += 1

    if tracer is not None:
        install(tracer)
    gc.callbacks.append(on_gc)
    try:
        return run.run(sessions_per_cycle)
    finally:
        gc.callbacks.remove(on_gc)
        if tracer is not None:
            tracer.unwrap_all()
