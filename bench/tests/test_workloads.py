import json
from pathlib import Path

import pytest

from metrics import END_TO_END, PER_LAYER
from workloads import (
    VERIFY_OPS, VERIFY_SHARED_KEYS, WORKLOADS, session_name, session_ops,
)

NAMES = ["put_pipelined", "get_heavy", "barrier_mix", "serial_crash"]


def sequence_bytes(workload, seed, connections):
    """One segment's whole op sequence, serialised."""
    return json.dumps([
        [session_name(wave, index), session_ops(workload, seed, wave, index)]
        for wave in range(workload.waves)
        for index in range(connections)
    ], separators=(",", ":")).encode("utf-8")


def test_the_four_workloads_exist_under_their_stable_names():
    assert list(WORKLOADS) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_byte_identical_op_sequence(name):
    workload = WORKLOADS[name]
    assert sequence_bytes(workload, 7, 2) == sequence_bytes(workload, 7, 2)
    assert sequence_bytes(workload, 7, 2) != sequence_bytes(workload, 8, 2)


@pytest.mark.parametrize("name", NAMES)
def test_op_counts_are_constants_and_mix_matches(name):
    workload = WORKLOADS[name]
    ops = session_ops(workload, 3, 0, 0)
    assert len(ops) == workload.ops_per_session
    share = {k: sum(op[0] == k for op in ops) / len(ops)
             for k in ("put", "get", "read")}
    assert share["put"] == pytest.approx(workload.put_share, abs=0.04)
    assert share["read"] == pytest.approx(1 - workload.get_share, abs=0.02)


@pytest.mark.parametrize("name", NAMES)
def test_histories_are_differentiated(name):
    """No value is written twice to a key: the black-box check needs it."""
    workload = WORKLOADS[name]
    written = [
        (op[1], op[2])
        for wave in range(workload.waves) for index in range(2)
        for op in session_ops(workload, 5, wave, index) if op[0] == "put"
    ]
    assert len(written) == len(set(written))


def test_get_heavy_never_writes_a_key_with_a_get_in_flight():
    workload = WORKLOADS["get_heavy"]
    ops = session_ops(workload, 11, 0, 1)
    for i, op in enumerate(ops):
        if op[0] == "put":
            window = ops[max(0, i - workload.depth + 1):i]
            assert all(o[0] != "get" or o[1] != op[1] for o in window)


def test_get_heavy_expectation_is_the_sessions_last_put():
    last = {}
    for kind, key, value, expect in session_ops(WORKLOADS["get_heavy"], 2, 1, 0):
        if kind == "put":
            last[key] = value
        else:
            assert expect == last.get(key, f"w1s0:init:{key}")


def test_verification_is_the_same_mix_shrunk():
    workload = WORKLOADS["serial_crash"]
    small = workload.verification()
    assert (small.ops_per_session, small.waves) == (VERIFY_OPS, 1)
    assert small.shared_keys == VERIFY_SHARED_KEYS
    assert (small.put_share, small.get_share, small.depth) == (
        workload.put_share, workload.get_share, workload.depth)
    assert small.chaos == (100, 200)


def test_benchmark_json_repeats_the_declarations():
    manifest = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
    )
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert manifest["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in manifest["end_to_end"]
    } == END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]
    } == PER_LAYER
    assert all(m["bound"] <= 0.25 for m in manifest["end_to_end"])
