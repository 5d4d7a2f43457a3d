"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParsing:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "counter" in out and "lock" in out

    def test_unknown_demo_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "nonsense"])

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "demos" in capsys.readouterr().out.lower()


class TestDemos:
    @pytest.mark.parametrize(
        "name", ["counter", "lock", "cardgame", "nameservice", "timeline"]
    )
    def test_demo_runs_clean(self, name, capsys):
        assert main(["demo", name, "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_counter_demo_agrees(self, capsys):
        main(["demo", "counter"])
        assert "stable-point agreement: OK" in capsys.readouterr().out

    def test_lock_demo_consensus(self, capsys):
        main(["demo", "lock", "--members", "4", "--cycles", "2"])
        assert "consensus on holder sequence: True" in capsys.readouterr().out

    def test_demo_parameters_respected(self, capsys):
        main(["demo", "cardgame", "--members", "5", "--cycles", "2"])
        out = capsys.readouterr().out
        # Distances 1..5 are swept.
        assert out.count("\n") >= 7


class TestShard:
    def test_sharded_campaign_runs_clean(self, capsys):
        assert main(["shard", "--shards", "2", "--seeds", "1",
                     "--sessions", "3", "--ops", "6"]) == 0
        out = capsys.readouterr().out
        assert "sharded-1" in out
        assert "all consistent" in out

    def test_multiple_seeds_and_shards(self, capsys):
        assert main(["shard", "--shards", "3", "--seeds", "2",
                     "--sessions", "3", "--ops", "5",
                     "--disturbances", "crash"]) == 0
        out = capsys.readouterr().out
        assert "2 campaign(s) x 3 shard(s)" in out

    def test_unknown_disturbance_rejected(self, capsys):
        assert main(["shard", "--disturbances", "meteor"]) == 2
        assert "unknown disturbance" in capsys.readouterr().err

    def test_seed_determinism(self, capsys):
        main(["shard", "--seeds", "1", "--sessions", "3", "--ops", "6"])
        first = capsys.readouterr().out
        main(["shard", "--seeds", "1", "--sessions", "3", "--ops", "6"])
        second = capsys.readouterr().out
        # Summaries embed wall-clock time; compare everything before it.
        strip = lambda s: [line.split(" t=")[0] for line in s.splitlines()]
        assert strip(first) == strip(second)

    def test_no_rebalance_flag(self, capsys):
        assert main(["shard", "--shards", "2", "--seeds", "1",
                     "--sessions", "2", "--ops", "4",
                     "--no-rebalance"]) == 0
        assert "moves=0" in capsys.readouterr().out


class TestGraph:
    def test_ascii_rendering(self, capsys):
        assert main(["graph"]) == 0
        out = capsys.readouterr().out
        assert "‖{" in out and "*" in out

    def test_dot_rendering(self, capsys):
        assert main(["graph", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "->" in out

    def test_seed_determinism(self, capsys):
        main(["graph", "--seed", "9"])
        first = capsys.readouterr().out
        main(["graph", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second


class TestServeCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port) == ("127.0.0.1", 7411)
        assert (args.shards, args.members) == (2, 3)
        assert args.stats is False

    def test_loadgen_parser_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert (args.clients, args.ops, args.pipeline) == (8, 100, 8)
        assert args.read_every == 10
        assert args.reconnect_every == 0
        assert args.rate is None

    def test_procs_and_codec_flags_are_gone(self):
        """One topology, one wire format: argparse refuses the old knobs."""
        for argv in (
            ["serve", "--procs", "2"],
            ["loadgen", "--codec", "binary"],
            ["chaos-wire", "--procs", "2"],
            ["chaos-wire", "--codec", "json"],
        ):
            with pytest.raises(SystemExit) as refused:
                build_parser().parse_args(argv)
            assert refused.value.code == 2

    def test_serve_rejects_bad_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--port", "lots"])

    @pytest.mark.parametrize("argv, complaint", [
        (["--shards", "0"], "needs >= 1 shard"),
        (["--members", "1"], "needs >= 2 members"),
        (["--port", "99999"], "port must be 0-65535"),
        (["--port", "-1"], "port must be 0-65535"),
    ])
    def test_serve_reports_bad_arguments_as_usage_errors(
        self, argv, complaint, capsys
    ):
        # A usage error (exit 2, one line on stderr) before anything
        # binds, not a ConfigurationError / OverflowError traceback.
        with pytest.raises(SystemExit) as refused:
            main(["serve", *argv])
        assert refused.value.code == 2
        err = capsys.readouterr().err
        assert complaint in err and "Traceback" not in err

    def test_port_bounds_are_inclusive(self):
        for port in ("0", "65535"):
            args = build_parser().parse_args(["serve", "--port", port])
            assert args.port == int(port)

    def test_chaos_wire_parser_defaults(self):
        args = build_parser().parse_args(["chaos-wire"])
        assert args.campaigns == "disconnects,stalls,truncations,overload"
        assert (args.clients, args.ops, args.runs) == (4, 20, 1)

    def test_chaos_wire_rejects_unknown_campaign(self, capsys):
        assert main(["chaos-wire", "--campaigns", "meteors"]) == 2
        assert "unknown campaign" in capsys.readouterr().out

    def test_chaos_wire_small_campaign_runs_clean(self, capsys):
        assert main([
            "chaos-wire", "--campaigns", "overload", "--seed", "5",
            "--clients", "2", "--ops", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "[ok] overload" in out
        assert "all clean" in out

    def test_loadgen_cli_against_live_server(self, capsys):
        import asyncio
        import threading

        from repro.serve import ServeServer

        started = threading.Event()
        holder = {}

        def serve_thread():
            async def body():
                srv = ServeServer(shards=2, members_per_shard=3, seed=2)
                await srv.start()
                holder["port"] = srv.port
                holder["stop"] = asyncio.Event()
                holder["loop"] = asyncio.get_running_loop()
                started.set()
                await holder["stop"].wait()
                await srv.shutdown()
                holder["violations"] = srv.session_guarantee_violations()

            asyncio.run(body())

        thread = threading.Thread(target=serve_thread)
        thread.start()
        assert started.wait(10)
        try:
            rc = main([
                "loadgen", "--port", str(holder["port"]),
                "--clients", "2", "--ops", "6", "--pipeline", "2",
                "--reconnect-every", "4",
            ])
        finally:
            holder["loop"].call_soon_threadsafe(holder["stop"].set)
            thread.join(15)
        assert rc == 0
        out = capsys.readouterr().out
        assert "ops/s" in out and "errors=0" in out
        assert holder["violations"] == []
