from dataclasses import replace

import pytest

import replay
import traced
from spans import Tracer
from workloads import WORKLOADS


def test_budget_row_sums_to_server_cpu_per_op():
    layers = {"sim.scheduler": 0.010, "net.network": 0.070,
              "shard.cluster": 0.031, "shard.router": 0.012}
    row = traced.budget_row(0.2656, 0.0086, layers)
    assert sum(row.values()) == pytest.approx(0.2656, rel=0.01)
    assert row["serve.wire"] == 0.0086
    assert row["serve.server.residual"] == pytest.approx(
        0.2656 - 0.0086 - sum(layers.values()))
    assert traced.drive_ms(row) == pytest.approx(0.080)


def test_request_document_is_what_the_client_sends():
    put = traced.request_document(("put", "k1", "s:3", None), 5)
    assert put == {"t": "put", "key": "k1", "value": "s:3", "rid": 5,
                   "ttl": 30.0}
    assert traced.request_document(("read", None, None, None), 0) == \
        {"t": "read", "rid": 0, "ttl": 30.0}


def _ops(spec):
    return [(kind, "k", None, None) for kind in spec.split()]


def test_windows_cut_at_depth_and_at_barrier_reads():
    plans = [_ops("put put put read put"), _ops("get get")]
    cycles = [
        [(s, i, op[0]) for s, i, op in window]
        for window in replay.windows(plans, depth=2, sessions_per_cycle=1)
    ]
    assert cycles == [
        [(0, 0, "put"), (0, 1, "put")],
        [(1, 0, "get"), (1, 1, "get")],
        [(0, 2, "put")],               # stops before the read: sync point
        [(0, 3, "read")],              # the read travels alone
        [(0, 4, "put")],
    ]
    both = list(replay.windows(plans, depth=2, sessions_per_cycle=2))
    assert [len(w) for w in both] == [4, 1, 1, 1]


@pytest.mark.parametrize("name", ["barrier_mix", "serial_crash"])
def test_replay_counts_repeat_exactly_traced_or_not(name):
    small = replace(WORKLOADS[name].verification(), ops_per_session=60)
    if small.chaos:
        small = replace(small, chaos=(20, 40))
    bare = replay.replay(small, 4, 1)
    again = replay.replay(small, 4, 1)
    tracer = Tracer()
    under_spans = replay.replay(small, 4, 1, tracer)
    assert bare.counts == again.counts == under_spans.counts
    assert bare.ops == 120 and bare.wrong == 0
    assert bare.puts + bare.gets + bare.reads == bare.ops
    # Spans were recorded, carry a cycle id, and the patches are gone.
    assert tracer.cycle == len(
        [n for n in tracer.name if tracer.names[n] == replay.ROOT])
    from repro.sim.scheduler import Scheduler
    assert not hasattr(Scheduler.run, "__wrapped__")
    layers = {replay.layer_of(n) for n in tracer.names}
    assert "shard.barrier" in layers and "sim.scheduler" in layers
