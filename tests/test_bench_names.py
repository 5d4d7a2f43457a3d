"""The names ``bench/`` reaches into ``src/`` by must keep resolving.

``bench/replay.py`` monkey-patches the methods in its ``WRAPPED`` table
by name (``owner.__dict__[method]``) and calls a few more directly;
``BENCHMARK.json`` freezes everything under ``bench/``, so a refactor of
``src/`` that renames one of them breaks ``bench/run.py --trace`` — which
tier-1 never runs.  This test makes ``pytest`` say so instead.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from repro.shard.cluster import ShardedCluster
from repro.shard.router import Session, ShardRouter

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
