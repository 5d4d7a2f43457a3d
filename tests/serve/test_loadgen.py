"""Load-generator tests (small shapes; the big runs live in benchmarks)."""

from __future__ import annotations

import asyncio

from repro.serve import (
    ChaosProxy,
    LoadReport,
    ServeServer,
    WireFaultPlan,
    run_load,
)


def run_shape(plan=None, **kwargs):
    """Run one load shape; through a :class:`ChaosProxy` if ``plan``."""

    async def scenario():
        srv = ServeServer(shards=2, members_per_shard=3, seed=9)
        await srv.start()
        proxy = None
        port = srv.port
        if plan is not None:
            proxy = ChaosProxy("127.0.0.1", srv.port, plan=plan)
            await proxy.start()
            port = proxy.port
        try:
            report = await run_load("127.0.0.1", port, **kwargs)
        finally:
            if proxy is not None:
                await proxy.stop()
            await srv.shutdown()
        return srv, report

    return asyncio.run(scenario())


class TestClosedLoop:
    def test_all_ops_complete_without_errors(self):
        srv, report = run_shape(clients=4, ops_per_client=12, pipeline=4)
        assert report.ops == 4 * 12
        assert report.errors == 0
        assert report.elapsed > 0
        assert len(report.latencies_ms) == report.ops

    def test_reads_happen_at_the_requested_cadence(self):
        srv, report = run_shape(
            clients=2, ops_per_client=12, pipeline=3, read_every=4
        )
        assert report.reads == 2 * 3  # every 4th of 12 ops, per client
        assert report.errors == 0

    def test_reconnects_present_tokens(self):
        srv, report = run_shape(
            clients=3, ops_per_client=10, pipeline=2, reconnect_every=5
        )
        assert report.reconnects == 3 * 2
        assert srv.metrics.counters["tokens_imported"] == report.reconnects
        assert srv.metrics.counters["token_labels_dropped"] == 0
        assert report.errors == 0

    def test_load_history_passes_session_guarantees(self):
        srv, report = run_shape(
            clients=4, ops_per_client=10, pipeline=4,
            read_every=3, reconnect_every=7,
        )
        assert report.errors == 0
        assert srv.session_guarantee_violations() == []

    def test_server_stats_folded_into_report(self):
        srv, report = run_shape(
            clients=2, ops_per_client=6, pipeline=2, fetch_stats=True
        )
        assert report.server_stats is not None
        assert report.server_stats["puts"] >= 8
        assert "latency" in report.server_stats


class TestDroppedConnections:
    def test_a_cut_costs_its_inflight_ops_and_one_reconnect(self):
        """A dropped connection used to raise ``not connected`` out of
        the run (and leave its futures' exceptions unretrieved)."""
        srv, report = run_shape(
            WireFaultPlan(5, cut_rate=0.05),
            clients=2, ops_per_client=60, pipeline=4, request_timeout=2.0,
        )
        assert report.errors > 0 and report.reconnects > 0
        # Every op is accounted for exactly once.
        assert report.ops + report.errors + report.overloads == 2 * 60
        assert srv.session_guarantee_violations() == []

    def test_timeouts_accumulate_across_reconnects(self):
        """Every reply stalls past its deadline: each op times out on its
        own connection, and the report counts all three deadlines, not
        the last connection's."""
        srv, report = run_shape(
            WireFaultPlan(1, stall_rate=1.0, grace_frames=1),
            clients=1, ops_per_client=3, pipeline=1, read_every=0,
            request_timeout=0.1,
        )
        assert (report.timeouts, report.errors) == (3, 3)
        assert (report.ops, report.reconnects) == (0, 2)

    def test_a_failed_reconnect_ends_the_client_with_its_ops_as_errors(self):
        async def scenario():
            srv = ServeServer(shards=2, members_per_shard=3, seed=9)
            await srv.start()
            proxy = ChaosProxy("127.0.0.1", srv.port)
            await proxy.start()
            load = asyncio.ensure_future(run_load(
                "127.0.0.1", proxy.port, clients=1, ops_per_client=400,
                pipeline=1, read_every=0, rate=400.0,
            ))
            await asyncio.sleep(0.2)
            await proxy.stop()  # nothing listens on the proxy's port now
            try:
                return await asyncio.wait_for(load, 30)
            finally:
                await srv.shutdown()

        report = asyncio.run(scenario())
        assert report.reconnects == 0
        assert 0 < report.errors < 400
        assert report.ops + report.errors == 400


class TestOpenLoop:
    def test_rate_limited_run_completes(self):
        srv, report = run_shape(
            clients=2, ops_per_client=6, pipeline=2, rate=200.0
        )
        assert report.ops == 12
        assert report.errors == 0


class TestReport:
    def test_quantiles_and_summary(self):
        report = LoadReport(
            clients=1, pipeline=1, ops=4, reads=1, errors=0,
            reconnects=0, elapsed=2.0,
            latencies_ms=[1.0, 2.0, 3.0, 4.0],
        )
        assert report.ops_per_sec == 2.0
        assert report.p50_ms == 3.0  # nearest-rank on an even-size sample
        assert report.p99_ms == 4.0
        text = report.summary()
        assert "2 ops/s" in text and "p99=4.00ms" in text

    def test_empty_report_summary(self):
        report = LoadReport(
            clients=0, pipeline=1, ops=0, reads=0, errors=0,
            reconnects=0, elapsed=0.0,
        )
        assert report.p50_ms is None
        assert "p50=-" in report.summary()
