"""The names ``bench/`` reaches into ``src/`` by must keep resolving.

``bench/replay.py`` monkey-patches the methods in its ``WRAPPED`` table
by name (``owner.__dict__[method]``) and calls a few more directly;
``BENCHMARK.json`` freezes everything under ``bench/``, so a refactor of
``src/`` that renames one of them breaks ``bench/run.py --trace`` — which
tier-1 never runs.  This test makes ``pytest`` say so instead.  The
same holds on the wire: ``bench/traced.py`` calls the frame codec and
``bench/wireload.py`` drives ``ServeClient``.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

import pytest

from repro.shard.cluster import ShardedCluster
from repro.shard.router import Session, ShardRouter
from repro.types import MessageId

BENCH = Path(__file__).resolve().parent.parent / "bench"

#: What the replay calls directly, beyond what it wraps.
CALLED = (
    (ShardedCluster, "watch"),
    (ShardedCluster, "contact"),
    (ShardedCluster, "read_members"),
    (ShardedCluster, "drain"),
    (ShardRouter, "session"),
    (ShardRouter, "kick"),
    (Session, "put"),
    (Session, "read"),
    (Session, "read_floor"),
    (Session, "observe"),
    (Session, "export_token"),
)


@pytest.fixture
def replay(monkeypatch):
    # The benchmark's modules are plain files next to run.py (see
    # bench/tests/conftest.py); the path entry is removed at teardown.
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("replay")


def test_every_wrapped_method_is_defined_on_its_class(replay):
    assert len(replay.WRAPPED) >= 17
    for owner, method, span in replay.WRAPPED:
        # Tracer.wrap reads owner.__dict__, so inheriting is not enough.
        assert callable(vars(owner).get(method)), (
            f"{span}: {owner.__name__}.{method} is gone"
        )


def test_every_directly_called_method_resolves(replay):
    for owner, method in CALLED:
        assert callable(vars(owner).get(method)), (
            f"{owner.__name__}.{method} is gone"
        )
    assert isinstance(vars(Session)["idle"], property)


def test_group_attributes_the_replay_reaches_resolve():
    """``replay.py`` counts through ``cluster.groups`` and re-creates the
    server's crash / restart / repair-round verbs on a group by hand."""
    cluster = ShardedCluster(shards=1, members_per_shard=2, seed=0)
    (group,) = cluster.groups.values()
    member = group.members[0]
    assert callable(group.crash) and callable(group.restart)
    assert group.stacks[member].crashed is False
    assert group.stacks[member].max_holdback == 0
    assert callable(group.recoveries[member].anti_entropy_round)
    assert callable(group.trackers[member].gossip_round)
    assert group.view_syncs[member].changes_installed == 0
    assert group.network.hops_sent == 0


def test_the_wire_codec_the_traced_run_times_resolves():
    """``traced.py`` times ``wire.encode_frame_body`` / ``decode_frame``
    on the segment's own request and reply documents."""
    from repro.serve import wire

    request = {"t": "put", "key": "k", "value": "w0s0:1", "rid": 7,
               "ttl": 30.0}
    reply = {"t": "reply", "rid": 7, "ok": True,
             "label": MessageId("s0n0", 3), "token": "{}"}
    for document in (request, reply):
        body = wire.encode_frame_body(document)
        assert isinstance(body, bytes)
        assert wire.decode_frame(body) == document


def test_the_client_surface_the_load_generator_drives_resolves():
    """``wireload.py`` builds ``ServeClient(host, port, session,
    request_timeout=)`` and calls the verbs below; ``ServeError`` is
    what it catches."""
    from repro.serve import ServeClient, ServeError

    parameters = inspect.signature(ServeClient.__init__).parameters
    assert list(parameters)[1:4] == ["host", "port", "session"]
    assert "request_timeout" in parameters
    for method in ("connect", "close", "put", "get_submit", "submit",
                   "chaos", "stats"):
        assert callable(vars(ServeClient).get(method)), method
    for coroutine in ("connect", "close", "chaos", "stats"):
        assert inspect.iscoroutinefunction(vars(ServeClient)[coroutine])
    assert issubclass(ServeError, Exception)


def test_cluster_attributes_the_replay_reads_resolve():
    """``replay.py`` ends a run on ``len(cluster.graph)`` and
    ``cluster.reads_failed``, and diffs ``scheduler.events_processed``."""
    cluster = ShardedCluster(shards=1, members_per_shard=2, seed=0)
    assert len(cluster.graph) == 0
    assert cluster.reads_failed == 0
    before = cluster.scheduler.events_processed
    cluster.router.session("s").put("k", "v")
    cluster.drain()
    assert len(cluster.graph) == 1
    assert cluster.scheduler.events_processed > before
