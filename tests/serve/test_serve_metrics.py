"""Unit tests for the serve-layer metrics."""

from __future__ import annotations

from repro.serve.metrics import RESERVOIR, ServeMetrics, percentile


class TestPercentile:
    def test_empty_is_none(self):
        assert percentile([], 0.5) is None

    def test_single_sample(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_median_of_odd_run(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_p99_is_near_max(self):
        samples = list(map(float, range(100)))
        assert percentile(samples, 0.99) == 98.0
        assert percentile(samples, 1.0) == 99.0

    def test_monotone_in_q(self):
        samples = [5.0, 1.0, 9.0, 3.0, 7.0]
        quantiles = [percentile(samples, q / 10) for q in range(11)]
        assert quantiles == sorted(quantiles)

    def test_order_independent(self):
        assert percentile([1.0, 2.0, 3.0], 0.99) == percentile(
            [3.0, 1.0, 2.0], 0.99
        )


class TestServeMetrics:
    def test_bump_known_and_ad_hoc_counters(self):
        metrics = ServeMetrics()
        metrics.bump("puts")
        metrics.bump("puts", 2)
        metrics.bump("ad_hoc", 5)
        assert metrics.counters["puts"] == 3
        assert metrics.counters["ad_hoc"] == 5

    def test_batch_recording_feeds_snapshot(self):
        metrics = ServeMetrics()
        metrics.record_batch(4)
        metrics.record_batch(8)
        snap = metrics.snapshot()
        assert snap["batches"] == 2
        assert snap["batched_ops"] == 12
        assert snap["batch_mean"] == 6.0
        assert snap["batch_max"] == 8

    def test_latency_quantiles_per_kind(self):
        metrics = ServeMetrics()
        for ms in (1.0, 2.0, 3.0):
            metrics.record_latency("put", ms)
        metrics.record_latency("read", 10.0)
        put = metrics.latency_quantiles("put")
        assert put["p50_ms"] == 2.0 and put["samples"] == 3
        assert metrics.latency_quantiles("read")["max_ms"] == 10.0
        assert metrics.latency_quantiles("nothing")["samples"] == 0

    def test_reservoir_keeps_newest(self):
        metrics = ServeMetrics()
        for i in range(RESERVOIR + 100):
            metrics.record_latency("op", float(i))
        quantiles = metrics.latency_quantiles("op")
        assert quantiles["samples"] == RESERVOIR
        # The oldest 100 samples were evicted.
        assert quantiles["p50_ms"] > 100.0

    def test_snapshot_is_json_compatible(self):
        import json

        metrics = ServeMetrics()
        metrics.bump("ops")
        metrics.record_latency("op", 1.5)
        metrics.record_batch(1)
        json.dumps(metrics.snapshot())  # must not raise

    def test_render_mentions_counters_and_latency(self):
        metrics = ServeMetrics()
        metrics.bump("ops", 9)
        metrics.record_latency("op", 2.5)
        metrics.record_batch(3)
        text = metrics.render()
        assert "ops" in text and "9" in text
        assert "op latency" in text and "batch size" in text

    def test_empty_render_has_no_latency_lines(self):
        text = ServeMetrics().render()
        assert "latency" not in text

    def test_render_samples_the_gauges_once(self):
        """A gauge walks caches (the closure cache, every member stack):
        one `render()` pays for one sample, as one `snapshot()` does."""
        calls = []

        def gauges():
            calls.append(1)
            return {"graph_nodes": 7}

        metrics = ServeMetrics(gauges=gauges)
        text = metrics.render()
        assert "graph_nodes" in text and "7" in text
        assert len(calls) == 1
        metrics.snapshot()
        assert len(calls) == 2
