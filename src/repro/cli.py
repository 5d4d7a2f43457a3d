"""Command-line interface: quick demos of the paper's scenarios.

Usage::

    python -m repro list
    python -m repro demo counter --seed 7
    python -m repro demo lock --members 4 --cycles 3
    python -m repro graph [--dot]

Every demo is deterministic given ``--seed``.  The full experiment suite
(with assertions and timing) lives in ``benchmarks/`` and runs with
``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List


# Each subcommand imports what it runs when it runs: `repro serve` loads
# the serving path and nothing of the demos, the applications or the
# analysis batteries.


def demo_counter(args: argparse.Namespace) -> int:
    """Replicated counter with a deferred read at a stable point."""
    from repro.analysis.convergence import stable_points_agree
    from repro.analysis.reporting import format_table
    from repro.core.access_protocol import StablePointSystem
    from repro.core.commutativity import counter_spec
    from repro.core.state_machine import counter_machine
    from repro.net.latency import UniformLatency

    members = [f"r{i}" for i in range(args.members)]
    system = StablePointSystem(
        members, counter_machine, counter_spec(),
        latency=UniformLatency(0.2, 2.0), seed=args.seed,
    )
    scheduler = system.scheduler
    scheduler.call_at(0.0, system.request, members[0], "inc", {"item": "x"})
    scheduler.call_at(1.0, system.request, members[-1], "dec", {"item": "x"})
    scheduler.call_at(2.0, system.request, members[0], "inc", {"item": "x"})
    answers = []
    for name, replica in system.replicas.items():
        replica.read_at_next_stable_point(
            lambda value, point, name=name: answers.append((name, value))
        )
    scheduler.call_at(3.0, system.request, members[0], "rd", {"item": "x"})
    system.run()
    print(format_table(
        ["replica", "VAL(rd)"], sorted(answers),
        title="Deferred read answers (agreed at the stable point)",
    ))
    disagreements = stable_points_agree(system.replicas)
    print(f"\nstable-point agreement: {'OK' if not disagreements else disagreements}")
    return 0


def demo_lock(args: argparse.Namespace) -> int:
    """LOCK/TFR arbitration (Figure 5)."""
    from repro.analysis.reporting import format_table
    from repro.apps.lock_service import LockService
    from repro.net.latency import UniformLatency

    members = [chr(ord("A") + i) for i in range(args.members)]
    service = LockService(
        members, cycles=args.cycles, access_time=0.5,
        latency=UniformLatency(0.2, 1.5), seed=args.seed,
    )
    service.run()
    rows = [
        [holder, cycle, time]
        for holder, cycle, time in service.acquisition_times
    ]
    print(format_table(
        ["holder", "cycle", "time"], rows, title="Lock acquisitions",
    ))
    print(f"\nconsensus on holder sequence: {service.consensus_reached()}")
    return 0


def demo_cardgame(args: argparse.Namespace) -> int:
    """Relaxed turn ordering (Section 5.1)."""
    from repro.analysis.reporting import format_table
    from repro.apps.card_game import CardGame
    from repro.net.latency import UniformLatency

    rows = []
    players = [f"p{i}" for i in range(args.members)]
    for distance in range(1, args.members + 1):
        game = CardGame(
            players, rounds=args.cycles, dependency_distance=distance,
            latency=UniformLatency(0.2, 1.0), seed=args.seed,
        )
        game.play()
        rows.append(
            [distance, game.concurrency_degree(), game.completion_time]
        )
    print(format_table(
        ["dependency distance", "concurrent pairs", "completion time"],
        rows,
        title="Card game: ordering relaxation vs concurrency",
    ))
    return 0


def demo_nameservice(args: argparse.Namespace) -> int:
    """Causal vs total engines for spontaneous qry/upd traffic (§5.2)."""
    import random

    from repro.analysis.metrics import latency_summary
    from repro.analysis.reporting import format_table
    from repro.apps.name_service import NameServiceSystem
    from repro.net.latency import UniformLatency

    rows = []
    for engine in ("causal", "total"):
        system = NameServiceSystem(
            [f"ns{i}" for i in range(args.members)],
            engine=engine,
            latency=UniformLatency(0.2, 3.0),
            seed=args.seed,
        )
        rng = random.Random(args.seed)
        time, version = 0.0, 0
        for _ in range(40):
            time += rng.expovariate(1.5)
            member = system.members[rng.choice(list(system.members))]
            if rng.random() < 0.25:
                version += 1
                system.scheduler.call_at(
                    time, member.update, "www", f"v{version}"
                )
            else:
                system.scheduler.call_at(time, member.query, "www")
        system.run()
        stats = latency_summary(system.network.trace, operations={"qry"})
        rows.append([
            engine,
            len(system.network.trace.of_kind("send")),
            stats.mean,
            len(system.inconsistent_queries()),
            len(system.flagged_queries()),
        ])
    print(format_table(
        ["engine", "broadcasts", "qry latency", "inconsistent", "flagged"],
        rows,
        title="Name service: total order vs app-specific checks",
    ))
    return 0


def _figure2(seed: int):
    """Run the Figure 2 scenario: its network, stacks and labels."""
    from repro.broadcast.osend import OSendBroadcast
    from repro.group.membership import GroupMembership
    from repro.net.latency import UniformLatency
    from repro.net.network import Network
    from repro.sim.rng import RngRegistry
    from repro.sim.scheduler import Scheduler

    scheduler = Scheduler()
    network = Network(
        scheduler, latency=UniformLatency(0.2, 3.0), rng=RngRegistry(seed),
    )
    membership = GroupMembership(["ai", "aj", "ak"])
    stacks = {
        m: network.register(OSendBroadcast(m, membership))
        for m in ("ai", "aj", "ak")
    }
    mk = stacks["ak"].osend("mk")
    mi = stacks["ai"].osend("mi", occurs_after=mk)
    mj = stacks["aj"].osend("mj", occurs_after=mk)
    ml = stacks["ai"].osend("ml", occurs_after=[mi, mj])
    scheduler.run()
    return network, stacks, ml


def demo_graph(args: argparse.Namespace) -> int:
    """Run the Figure 2 scenario and render the extracted graph."""
    from repro.graph.render import to_ascii, to_dot

    _network, stacks, ml = _figure2(args.seed)
    graph = stacks["ai"].graph
    if args.dot:
        print(to_dot(graph, title="Figure 2", highlight={ml}))
    else:
        print("Figure 2 scenario — graph extracted by member 'ai':\n")
        print(to_ascii(graph, highlight={ml}))
        print("\n(* marks the synchronizing message; run with --dot for Graphviz)")
    return 0


def demo_timeline(args: argparse.Namespace) -> int:
    """Run the Figure 2 scenario and draw its space-time diagram."""
    from repro.analysis.timeline import render_timeline

    network, _stacks, _ml = _figure2(args.seed)
    print("Figure 2 scenario — space-time diagram:\n")
    print(render_timeline(network.trace))
    return 0


def run_chaos(args: argparse.Namespace) -> int:
    """Run seeded chaos campaigns and audit every safety invariant."""
    from repro.chaos import CHAOS_PROTOCOLS, ChaosCluster, random_campaign

    if args.protocol == "all":
        protocols = sorted(CHAOS_PROTOCOLS)
    elif args.protocol in CHAOS_PROTOCOLS:
        protocols = [args.protocol]
    else:
        print(
            f"unknown protocol {args.protocol!r}; choose from "
            f"{', '.join(sorted(CHAOS_PROTOCOLS))} or 'all'",
            file=sys.stderr,
        )
        return 2
    members = tuple(f"n{i}" for i in range(args.members))
    failures = 0
    for seed in range(args.seed, args.seed + args.seeds):
        for protocol in protocols:
            cluster = ChaosCluster(
                protocol=protocol,
                members=members,
                seed=seed,
                overlap=args.overlap,
            )
            campaign = random_campaign(
                members, seed=seed, overlap=args.overlap
            )
            result = cluster.run_campaign(campaign)
            print(result.summary())
            if not result.ok:
                failures += 1
                for violation in result.violations:
                    print(f"    {violation}")
    total = len(protocols) * args.seeds
    status = "all safe" if not failures else f"{failures} FAILED"
    mode = "overlapping" if args.overlap else "serialised"
    print(f"\nchaos: {total} {mode} campaign(s), {status}")
    return 1 if failures else 0


def run_shard(args: argparse.Namespace) -> int:
    """Run seeded sharded campaigns with the cross-shard causal audit."""
    from repro.shard import (
        SHARDED_DISTURBANCES,
        ShardedCluster,
        sharded_campaign,
    )

    if args.disturbances == "all":
        disturbances = SHARDED_DISTURBANCES
    else:
        disturbances = tuple(args.disturbances.split(","))
        unknown = set(disturbances) - set(SHARDED_DISTURBANCES)
        if unknown:
            print(
                f"unknown disturbances {sorted(unknown)}; choose from "
                f"{', '.join(SHARDED_DISTURBANCES)} or 'all'",
                file=sys.stderr,
            )
            return 2
    failures = 0
    for seed in range(args.seed, args.seed + args.seeds):
        cluster = ShardedCluster(
            shards=args.shards,
            members_per_shard=args.members,
            seed=seed,
        )
        campaign = sharded_campaign(
            cluster.shard_map,
            {s: g.members for s, g in cluster.groups.items()},
            seed=seed,
            sessions=args.sessions,
            ops_per_session=args.ops,
            cross_fraction=args.cross,
            read_fraction=args.reads,
            disturbances=disturbances,
            rebalance=not args.no_rebalance,
        )
        result = cluster.run_campaign(campaign)
        print(result.summary())
        if not result.ok:
            failures += 1
            for violation in result.violations:
                print(f"    {violation}")
    status = "all consistent" if not failures else f"{failures} FAILED"
    print(
        f"\nshard: {args.seeds} campaign(s) x {args.shards} shard(s), "
        f"{status}"
    )
    return 1 if failures else 0


def run_serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Serve the sharded object space to real TCP clients."""
    import asyncio
    import signal
    import time

    from repro.errors import ConfigurationError
    from repro.serve import ServeServer

    try:
        server = ServeServer(
            shards=args.shards,
            members_per_shard=args.members,
            seed=args.seed,
            host=args.host,
            port=args.port,
        )
    except ConfigurationError as exc:
        # The cluster's constructors own the shard and member bounds.
        parser.error(f"serve: {exc}")

    async def main() -> int:
        await server.start()
        # Explicit handlers: a backgrounded shell job inherits SIGINT as
        # ignored, so the default KeyboardInterrupt path never fires.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # platforms without unix signal support
        print(
            f"serving {args.shards} shard(s) x {args.members} member(s) "
            f"on {args.host}:{server.port}  "
            "(SIGINT/SIGTERM drains and stops)"
        )
        serve_task = asyncio.ensure_future(server.serve_forever())
        await stop.wait()
        await server.shutdown()
        serve_task.cancel()
        try:
            await serve_task
        except asyncio.CancelledError:
            pass
        if args.stats:
            print(server.metrics.render())
        started = time.perf_counter()
        violations = server.check_invariants()
        seconds = time.perf_counter() - started
        status = "clean" if not violations else f"{len(violations)} VIOLATION(S)"
        print(
            f"drained; audit: {status} "
            f"({len(server.cluster.ledger)} labels in {seconds:.2f} s)"
        )
        for violation in violations:
            print(f"    {violation}")
        return 1 if violations else 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        return 0


def run_loadgen(args: argparse.Namespace) -> int:
    """Drive a running server with pipelined client sessions."""
    import asyncio

    from repro.serve import run_load

    async def main() -> int:
        report = await run_load(
            args.host,
            args.port,
            clients=args.clients,
            ops_per_client=args.ops,
            pipeline=args.pipeline,
            read_every=args.read_every,
            get_every=args.get_every,
            reconnect_every=args.reconnect_every,
            rate=args.rate,
            seed=args.seed,
            fetch_stats=args.stats,
        )
        print(report.summary())
        if args.stats and report.server_stats is not None:
            print("server stats:")
            for key, value in sorted(report.server_stats.items()):
                if key != "latency":
                    print(f"  {key:<22} {value}")
            for kind, quantiles in report.server_stats.get(
                "latency", {}
            ).items():
                print(f"  latency[{kind}]: {quantiles}")
        return 1 if report.errors else 0

    return asyncio.run(main())


def run_chaos_wire(args: argparse.Namespace) -> int:
    """Run seeded chaos-over-the-wire campaigns with black-box auditing."""
    import asyncio

    from repro.chaos.wire import WIRE_CAMPAIGNS, run_wire_campaigns

    kinds = [k.strip() for k in args.campaigns.split(",") if k.strip()]
    for kind in kinds:
        if kind not in WIRE_CAMPAIGNS:
            print(
                f"unknown campaign {kind!r} "
                f"(know {', '.join(WIRE_CAMPAIGNS)})"
            )
            return 2

    async def main() -> int:
        failures = 0
        total = 0
        for offset in range(args.runs):
            results = await run_wire_campaigns(
                kinds, args.seed + offset * 101,
                clients=args.clients, ops_per_client=args.ops,
            )
            for result in results:
                total += 1
                print(result.summary())
                if not result.ok:
                    failures += 1
        status = "all clean" if not failures else f"{failures} FAILED"
        print(f"\nchaos-wire: {total} campaign(s), {status}")
        return 1 if failures else 0

    return asyncio.run(main())


def port_number(text: str) -> int:
    """An argparse type: a TCP port, 0 (ephemeral) through 65535."""
    port = int(text)
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port must be 0-65535, got {port}")
    return port


def count_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse type: an integer count of at least ``minimum``."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value
    return count


def positive_rate(text: str) -> float:
    """An argparse type: an open-loop rate in ops/s, above 0."""
    rate = float(text)
    if not rate > 0:
        raise argparse.ArgumentTypeError(f"rate must be > 0, got {text}")
    return rate


DEMOS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "counter": demo_counter,
    "lock": demo_lock,
    "cardgame": demo_cardgame,
    "nameservice": demo_nameservice,
    "timeline": demo_timeline,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Demos for the causal-broadcast reproduction "
        "(Ravindran & Shah, ICDCS 1994).",
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list available demos")

    demo = subparsers.add_parser("demo", help="run a demo scenario")
    demo.add_argument("name", choices=sorted(DEMOS))
    demo.add_argument("--seed", type=int, default=42)
    demo.add_argument("--members", type=int, default=3)
    demo.add_argument("--cycles", type=int, default=3)

    graph = subparsers.add_parser(
        "graph", help="render the Figure 2 dependency graph"
    )
    graph.add_argument("--seed", type=int, default=42)
    graph.add_argument("--dot", action="store_true", help="emit Graphviz DOT")

    chaos = subparsers.add_parser(
        "chaos",
        help="run seeded fault-injection campaigns with invariant checks",
    )
    chaos.add_argument(
        "--protocol",
        default="all",
        help="protocol to torture, or 'all' (default)",
    )
    chaos.add_argument("--seed", type=int, default=1, help="first seed")
    chaos.add_argument(
        "--seeds", type=int, default=3, help="number of seeds per protocol"
    )
    chaos.add_argument(
        "--members", type=int, default=4, help="group size (>= 2)"
    )
    chaos.add_argument(
        "--overlap",
        action="store_true",
        help="let disturbances overlap (detector-driven repair mode)",
    )

    shard = subparsers.add_parser(
        "shard",
        help="run sharded campaigns with the cross-shard causal audit",
    )
    shard.add_argument(
        "--shards", type=int, default=3, help="replication groups (>= 1)"
    )
    shard.add_argument(
        "--members", type=int, default=3, help="members per shard (>= 2)"
    )
    shard.add_argument("--seed", type=int, default=1, help="first seed")
    shard.add_argument(
        "--seeds", type=int, default=3, help="number of campaigns"
    )
    shard.add_argument(
        "--sessions", type=int, default=4, help="client sessions"
    )
    shard.add_argument(
        "--ops", type=int, default=10, help="operations per session"
    )
    shard.add_argument(
        "--cross", type=float, default=0.5,
        help="fraction of writes leaving a session's home shard",
    )
    shard.add_argument(
        "--reads", type=float, default=0.2,
        help="fraction of operations that are multi-shard barrier reads",
    )
    shard.add_argument(
        "--disturbances", default="crash,partition,loss",
        help="comma-separated fault kinds, or 'all'",
    )
    shard.add_argument(
        "--no-rebalance", action="store_true",
        help="skip the mid-campaign slot move",
    )

    serve = subparsers.add_parser(
        "serve", help="serve the sharded object space over TCP"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=port_number, default=7411,
        help="listen port (0 picks an ephemeral port)",
    )
    serve.add_argument("--shards", type=int, default=2)
    serve.add_argument(
        "--members", type=int, default=3, help="replicas per shard group"
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--stats", action="store_true",
        help="print the server metrics table after drain",
    )

    loadgen = subparsers.add_parser(
        "loadgen", help="drive a running serve instance with pipelined load"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=port_number, default=7411)
    loadgen.add_argument("--clients", type=count_at_least(1), default=8)
    loadgen.add_argument(
        "--ops", type=count_at_least(1), default=100,
        help="operations per client",
    )
    loadgen.add_argument(
        "--pipeline", type=count_at_least(1), default=8,
        help="writes kept in flight per connection",
    )
    loadgen.add_argument(
        "--read-every", type=count_at_least(0), default=10,
        help="every Nth op is a consistent barrier read (0 disables)",
    )
    loadgen.add_argument(
        "--get-every", type=count_at_least(0), default=0,
        help="every Nth op is a causally gated replica get (0 disables)",
    )
    loadgen.add_argument(
        "--reconnect-every", type=count_at_least(0), default=0,
        help="reconnect with the causal token every N ops (0 disables)",
    )
    loadgen.add_argument(
        "--rate", type=positive_rate, default=None,
        help="open-loop target ops/s per client (default: closed loop)",
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--stats", action="store_true",
        help="also fetch and print the server metrics snapshot",
    )

    chaos_wire = subparsers.add_parser(
        "chaos-wire",
        help="end-to-end wire fault injection with black-box "
        "causal-consistency auditing",
    )
    chaos_wire.add_argument(
        "--campaigns",
        default="disconnects,stalls,truncations,overload",
        help="comma-separated campaign kinds "
        "(disconnects, stalls, truncations, overload)",
    )
    chaos_wire.add_argument("--seed", type=int, default=1, help="first seed")
    chaos_wire.add_argument(
        "--runs", type=count_at_least(1), default=1,
        help="repeat the campaign list this many times with shifted seeds",
    )
    chaos_wire.add_argument("--clients", type=count_at_least(1), default=4)
    chaos_wire.add_argument(
        "--ops", type=count_at_least(1), default=20,
        help="operations per client session",
    )

    experiment = subparsers.add_parser(
        "experiment", help="run a reproduced experiment and print its table"
    )
    experiment.add_argument(
        "exp_id",
        metavar="ID",
        help="experiment id, e.g. FIG2 or CLAIM-COMMUTE (see 'repro list')",
    )

    return parser


def main(argv: List[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        from repro.experiments import EXPERIMENTS

        print("demos:", ", ".join(sorted(DEMOS)))
        print("also: graph (Figure 2 rendering)")
        print("experiments:", ", ".join(sorted(EXPERIMENTS)))
        print("  (run with: python -m repro experiment <ID>; "
              "timed + asserted via pytest benchmarks/)")
        return 0
    if args.command == "demo":
        return DEMOS[args.name](args)
    if args.command == "graph":
        return demo_graph(args)
    if args.command == "chaos":
        return run_chaos(args)
    if args.command == "shard":
        return run_shard(args)
    if args.command == "serve":
        return run_serve(args, parser)
    if args.command == "loadgen":
        return run_loadgen(args)
    if args.command == "chaos-wire":
        return run_chaos_wire(args)
    if args.command == "experiment":
        from repro.errors import ConfigurationError
        from repro.experiments import get_experiment

        try:
            experiment = get_experiment(args.exp_id)
        except ConfigurationError as exc:
            print(exc)
            return 1
        print(experiment.table())
        return 0
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())
