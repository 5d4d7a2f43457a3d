#!/usr/bin/env python3
"""The serving layer end-to-end, over real sockets.

Boots a :class:`repro.serve.ServeServer` fronting a 2-shard / 6-replica
causal object space on an ephemeral TCP port, then:

1. drives 8 concurrent pipelined client sessions against it (each keeps
   several writes in flight and periodically issues a consistent
   multi-shard barrier read, reconnecting mid-run with its causal
   session token);
2. crashes one replica of shard 0 **while the load is running** — the
   server's repair loop and retrying session layer carry traffic over
   the remaining replicas;
3. runs a get-heavy load against the replica-routed read path and kills
   the replica currently serving a probe's reads mid-run — the session
   layer must drop the corpse from the eligible set and reroute every
   later get with zero session-guarantee violations;
4. walks one scripted session through the visible API: pipelined puts,
   a causally gated get, a barrier read, and a token reconnect that
   provably preserves read-your-writes;
5. drains gracefully, heals the crashed replicas, and replays the
   entire recorded wire history through the session-guarantee checker
   (including the per-key freshness audit of every replica-served get);
6. boots a *fresh* server behind a fault-injecting TCP proxy (cuts
   mid-frame, duplicated and delayed frames) and drives self-healing
   clients through it — then audits what the clients *observed* with
   the black-box causal-consistency checker: no simulator stamps, no
   server cooperation.

Every step asserts, so this doubles as the CI smoke test for the wire
path.  Run::

    python examples/serve_demo.py
"""

from __future__ import annotations

import asyncio

from repro.analysis.wire_history import (
    WireHistory,
    WireRecorder,
    check_wire_history,
)
from repro.serve import (
    ChaosProxy,
    ServeClient,
    ServeServer,
    WireFaultPlan,
    run_load,
)


async def main() -> None:
    server = ServeServer(shards=2, members_per_shard=3, seed=7)
    await server.start()
    print(f"server up on 127.0.0.1:{server.port} (2 shards x 3 replicas)")

    # -- 8 pipelined clients, one replica murdered mid-run -----------------
    load = asyncio.ensure_future(run_load(
        "127.0.0.1", server.port,
        clients=8, ops_per_client=40, pipeline=8,
        read_every=10, reconnect_every=17, seed=3,
    ))
    await asyncio.sleep(0.15)  # let the load get going first

    control = ServeClient("127.0.0.1", server.port, "control")
    await control.connect()
    crashed = await control.chaos("crash", shard=0)
    print(f"crashed {crashed['member']} of shard 0 mid-run")

    report = await load
    print(f"load: {report.summary()}")
    assert report.errors == 0, f"load saw errors: {report.errors}"
    assert report.reconnects >= 8, "every client should have reconnected"
    assert report.ops == 8 * 40

    # -- replica failover: kill the serving read target mid-run ------------
    get_load = asyncio.ensure_future(run_load(
        "127.0.0.1", server.port,
        clients=6, ops_per_client=50, pipeline=4,
        read_every=0, get_every=2, seed=5,
        session_prefix="fail",
    ))
    await asyncio.sleep(0.05)  # let the get-heavy load get going first

    probe = ServeClient("127.0.0.1", server.port, "probe")
    await probe.connect()
    await probe.put_wait("probe-key", "v")
    first = await probe.get_submit("probe-key")
    target, shard = first["replica"], first["shard"]
    await probe.chaos("crash", shard=shard, member=target)
    print(f"crashed {target} (serving probe's reads on shard {shard}) "
          "mid-get-load")
    # The session must serve the same causal floor from a surviving
    # replica; the reply names which one did.
    second = await probe.get_submit("probe-key")
    assert second["value"] == "v", "failover lost the value"
    rerouted = second["replica"]
    assert rerouted != target, "get still routed to the crashed replica"
    print(f"probe rerouted to {rerouted}; read-your-writes held")

    report = await get_load
    print(f"get-load: {report.summary()}")
    assert report.errors == 0, f"get-load saw errors: {report.errors}"
    assert report.gets > 0, "get-heavy load issued no gets"
    served = {
        key for key, count in server.metrics.counters.items()
        if key.startswith("replica_reads_") and count > 0
    }
    assert len(served) >= 2, f"reads never spread beyond one replica: {served}"
    await probe.close()

    # -- one scripted session, narrated ------------------------------------
    alice = ServeClient("127.0.0.1", server.port, "alice")
    await alice.connect()
    futures = [alice.put(f"demo{i}", f"v{i}") for i in range(4)]  # pipelined
    replies = await asyncio.gather(*futures)
    print(f"alice pipelined 4 puts: labels {[r['label'] for r in replies]}")

    reply = await alice.get_submit("demo3")  # read-your-writes, same conn
    assert reply["value"] == "v3"
    print(f"alice's causally gated get served by replica "
          f"{reply.get('replica')} of shard {reply.get('shard')}")

    snapshot = await alice.read()
    assert all(snapshot["value"][f"demo{i}"] == f"v{i}" for i in range(4))
    print(f"barrier read across shards {snapshot['shards']}: "
          f"{len(snapshot['value'])} keys, rounds={snapshot['rounds']}")

    # Reconnect with the causal token: the new connection's first get
    # still observes alice's own writes — the token carries the session.
    await alice.reconnect()
    assert await alice.get("demo3") == "v3", "token lost read-your-writes"
    print("token reconnect: read-your-writes preserved across connections")
    await alice.close()
    await control.close()

    # -- graceful drain + the audit ----------------------------------------
    await server.shutdown()
    assert server.heal_violations == [], server.heal_violations
    violations = server.session_guarantee_violations()
    assert violations == [], violations
    audit = server.check_invariants()
    assert audit == [], audit

    ops = server.metrics.counters["ops"]
    batches = server.metrics.counters["batches"]
    events = sum(len(entries) for entries in server.history.values())
    print(f"drained; {ops} wire ops in {batches} batch cycles, "
          f"{events} logged writes and reads across "
          f"{len(server.history)} sessions (gets are audited as served)")
    print("session-guarantee audit over the full wire history: OK "
          "(zero violations)")

    # -- chaos over the wire + the black-box audit -------------------------
    await wire_chaos_pass()


async def wire_chaos_pass() -> None:
    """Faulty network, self-healing clients, black-box verdict."""
    server = ServeServer(shards=2, members_per_shard=3, seed=11)
    await server.start()
    plan = WireFaultPlan(13, cut_rate=0.02, dup_rate=0.05, delay_rate=0.08,
                         delay_seconds=0.02)
    proxy = ChaosProxy("127.0.0.1", server.port, plan=plan)
    await proxy.start()
    print(f"\nchaos proxy up on 127.0.0.1:{proxy.port} "
          f"(cuts mid-frame, dups, delays) -> server :{server.port}")

    recorders = []

    async def drive(index: int) -> None:
        name = f"wchaos{index}"
        recorder = WireRecorder(name)
        recorders.append(recorder)
        client = ServeClient(
            "127.0.0.1", proxy.port, name, request_timeout=2.0, heal=True,
        )
        await client.connect()
        # Record what the client observed: a put on its ack, a get on
        # its answer.
        for i in range(12):
            key = f"wkey{i % 3}"
            if i % 3 == 2:
                recorder.get(key, await client.get(key))
            else:
                await client.put_wait(key, f"{name}:{i}")
                recorder.put(key, f"{name}:{i}")
        await client.close()
        healing = {k: v for k, v in client.counters.items() if v}
        print(f"  {name}: {healing}")

    await asyncio.gather(*[drive(i) for i in range(3)])
    await proxy.stop()
    await server.shutdown(heal=True)

    faults = {k: v for k, v in proxy.counters.items() if v}
    print(f"proxy injected: {faults}")
    history = WireHistory.merge(recorders)
    violations = check_wire_history(history)
    assert violations == [], violations
    print(f"black-box audit over {len(history)} client-observed ops: OK "
          "(CC, CCv and CM all hold)")


if __name__ == "__main__":
    asyncio.run(main())
