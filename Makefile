# Convenience targets for the causal-broadcast reproduction.

.PHONY: install test bench bench-quick bench-serve bench-serve-tests perf-guard chaos-quick chaos-wire serve-smoke examples demos outputs

install:
	python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Core trio (drain-scale, claim-scale, proto-overhead) -> BENCH_core.json,
# plus the full drain sweep -> BENCH_drain_scale.json and the shard
# scaling sweep -> BENCH_shard_scale.json.
bench-quick:
	PYTHONPATH=src:benchmarks python benchmarks/bench_drain_scale.py
	PYTHONPATH=src:benchmarks python benchmarks/bench_shard_scale.py
	PYTHONPATH=src:benchmarks python benchmarks/run_core.py

# The serving benchmark BENCHMARK.json declares: four fixed-work wire
# workloads against `repro serve` child processes, every metric printed
# by name, a black-box CC/CCv verification pass per workload (see
# bench/README.md; ~2-3 min).  `--workload W --seconds 20` runs one.
bench-serve:
	python3 bench/run.py

# The benchmark harness's own tests (outside tier-1).
bench-serve-tests:
	python -m pytest bench/tests -q

# Fail if the indexed drain or the sharded throughput regresses >25% vs
# the committed baselines, or if 1->8 shard scaling drops below 3x at 0%
# cross traffic (override with PERF_GUARD_TOLERANCE=0.4).
perf-guard:
	PYTHONPATH=src:benchmarks python benchmarks/perf_guard.py

# Boot the serving layer end-to-end over real sockets: 8 pipelined
# clients, a replica crash mid-run, token reconnects, graceful drain,
# and a session-guarantee audit of the recorded wire history.
serve-smoke:
	PYTHONPATH=src python examples/serve_demo.py

# Chaos over the wire: 10 seeded end-to-end campaigns through a
# fault-injecting TCP proxy (cuts mid-frame, stalls, delays, duplicated
# and truncated frames, replica crash/restart, queue-full overload).
# Self-healing clients drive the traffic; afterwards the black-box
# auditor checks CC/CCv over what the clients *observed* — zero
# violations, zero hangs, or the target fails.
chaos-wire:
	PYTHONPATH=src python -m repro chaos-wire \
	  --seed 11 --campaigns disconnects,stalls,truncations,overload
	PYTHONPATH=src python -m repro chaos-wire \
	  --seed 21 --campaigns disconnects,truncations
	PYTHONPATH=src python -m repro chaos-wire \
	  --seed 31 --campaigns disconnects,overload
	PYTHONPATH=src python -m repro chaos-wire \
	  --seed 41 --campaigns stalls,truncations

# Seeded fault-injection campaigns (crash/partition/loss/churn) across
# every crash-eligible protocol; fails on any safety-invariant violation.
# The two-shard run (seeds 12-17) holds the campaigns whose barrier reads
# need a supplemental closure round: seeds 12 and 17 fail the
# `snapshot-closure` audit on the pre-PR-22 barrier.
chaos-quick:
	PYTHONPATH=src python -m repro chaos --protocol all --seeds 2
	PYTHONPATH=src python -m repro chaos --protocol all --seeds 2 --overlap
	PYTHONPATH=src python -m repro shard --seeds 2
	PYTHONPATH=src python -m repro shard --shards 2 --seed 12 --seeds 6

examples:
	@for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src python $$f > /dev/null || exit 1; echo ok; done

demos:
	python -m repro list

outputs:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt
