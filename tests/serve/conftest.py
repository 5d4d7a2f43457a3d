"""Fixtures shared by the serving tests."""

from __future__ import annotations

import gc

import pytest


@pytest.fixture(autouse=True)
def collector():
    """Start from a collected heap; leave no frozen heap behind.

    Every batch cycle freezes the heap (``ServeServer._cycle``), and a
    test that drives a server without shutting it down would otherwise
    pin the rest of the run's garbage.
    """
    gc.unfreeze()
    gc.collect()
    yield
    gc.enable()
    gc.unfreeze()
    gc.collect()
