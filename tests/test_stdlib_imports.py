"""``import repro`` needs nothing outside the standard library.

``pyproject.toml`` declares no runtime dependency.  ``repro.graph``
re-exports the antichain helpers, which run on networkx; the import of
networkx happens when a width is asked for, so a host without it can
still import the package, run the CLI and serve.  Nor does the serving
process load anything it does not serve with: the package ``__init__`` files
re-export lazily and the data plane imports its audits where they run.
Each check runs in a fresh interpreter: this test process may already
hold networkx, or any module, from another test.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_package_cli_and_server_work_without_networkx():
    out = run_python("""
        import asyncio, sys
        sys.modules["networkx"] = None  # any import of it now fails
        import repro, repro.cli, repro.serve

        async def main():
            server = repro.serve.ServeServer(shards=1)
            await server.start()
            client = repro.serve.ServeClient("127.0.0.1", server.port, "c")
            await client.connect()
            await client.put_wait("k", "v")
            print(await client.get("k"))
            await client.close()
            await server.shutdown()

        asyncio.run(main())
    """)
    assert out == "v"


def test_importing_the_cli_and_the_server_does_not_load_networkx():
    out = run_python("""
        import sys
        import repro.cli, repro.serve
        print("networkx" in sys.modules)
    """)
    assert out == "False"


def test_the_serving_process_loads_only_the_serving_path():
    # What `repro serve` has loaded once its cluster exists: no
    # applications, audits, chaos harness, paper-model core, experiments
    # or workload generators, none of the client side of `repro.serve`,
    # and none of the graph helpers only analysis uses.
    loaded = json.loads(run_python("""
        import json, sys
        import repro.cli
        from repro.serve import ServeServer
        ServeServer(shards=2, members_per_shard=3)
        print(json.dumps(sorted(
            m for m in sys.modules if m == "repro" or m.startswith("repro.")
        )))
    """))
    packages = (
        "repro.apps", "repro.analysis", "repro.chaos", "repro.core",
        "repro.experiments", "repro.workload", "repro.shard.campaign",
    )
    modules = {
        "repro.serve.client", "repro.serve.faults", "repro.serve.loadgen",
        "repro.serve.resilient", "repro.graph.antichain",
        "repro.graph.render", "repro.graph.stability",
    }
    strays = [
        m for m in loaded
        if m in modules or any(m == p or m.startswith(p + ".") for p in packages)
    ]
    assert strays == []
    assert "repro.shard.barrier" in loaded  # the read verb's, before any read
    assert len(loaded) <= 52, loaded
