"""``import repro`` needs nothing outside the standard library.

``pyproject.toml`` declares no runtime dependency.  ``repro.graph``
re-exports the antichain helpers, which run on networkx; the import of
networkx happens when a width is asked for, so a host without it can
still import the package, run the CLI and serve.  Each check runs in a
fresh interpreter: this test process may already hold networkx from
another test.
"""

from __future__ import annotations

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
