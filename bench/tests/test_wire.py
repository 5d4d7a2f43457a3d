"""One real child server: the correctness gate, end to end (~2 s)."""

import asyncio

import child
import verify
from workloads import WORKLOADS


def test_verification_pass_is_green_and_reaps_its_server():
    verdict = asyncio.run(
        verify.verification_pass(WORKLOADS["get_heavy"], seed=1)
    )
    assert verdict.ok, verdict.problems
    assert verdict.failed == 0 and verdict.attempted >= 600
    assert verdict.history_ops > verdict.attempted  # warm-up writes too
    assert 0 < verdict.setup_s < 30
    assert child.live_children() == []


def test_free_port_is_bindable():
    import socket
    port = child.free_port()
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", port))


def test_calibrator_samples_until_stopped_and_is_reaped():
    import time
    calibrator = child.Calibrator()
    started = time.perf_counter()
    time.sleep(0.2)
    samples = calibrator.stop()
    assert len(samples) >= 3
    assert all(ms > 0 and at >= started - 0.1 for at, ms in samples)
    assert [at for at, _ms in samples] == sorted(at for at, _ms in samples)
    assert child.live_children() == []
