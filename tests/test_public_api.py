"""Lazy package re-exports keep the public API.

Every package ``__init__`` re-exports through a PEP 562 ``__getattr__``
(:mod:`repro.lazy`) instead of importing its submodules.  These checks
hold that to what the eager ``__init__`` files exported: the same names,
resolving to the same objects (``public_api.json`` records each one's
``__module__`` and ``__qualname__``, or its type for a plain value), a
working ``from repro import *``, and no import cycle that eager loading
used to hide.  ``Violation`` is the one deliberate move: it lives in
:mod:`repro.types` and :mod:`repro.analysis` still re-exports it.

Each check runs in a fresh interpreter: this test process has long
since loaded every submodule, which would hide a name the lazy table
fails to resolve.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = json.loads((HERE / "public_api.json").read_text())


def run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_every_exported_name_resolves_to_the_same_object():
    resolved = json.loads(run_python(f"""
        import importlib, json

        def describe(obj):
            module = getattr(obj, "__module__", None)
            qualname = getattr(obj, "__qualname__", None)
            if callable(obj) and isinstance(module, str) and isinstance(qualname, str):
                return [module, qualname]
            return ["<value>", type(obj).__qualname__]

        out = {{}}
        for name in {sorted(EXPECTED)!r}:
            package = importlib.import_module(name)
            missing = set(package.__all__) - set(dir(package))
            assert not missing, (name, sorted(missing))
            out[name] = {{n: describe(getattr(package, n)) for n in package.__all__}}
        print(json.dumps(out))
    """))
    assert resolved == EXPECTED


def test_star_import_binds_every_name():
    out = run_python("""
        import repro
        namespace = {}
        exec("from repro import *", namespace)
        print(sorted(set(repro.__all__) - set(namespace)), len(repro.__all__))
    """)
    assert out == f"[] {len(EXPECTED['repro'])}"


def test_submodules_stay_reachable_as_attributes():
    out = run_python("""
        import repro
        print(repro.broadcast.osend.OSendBroadcast.__name__,
              repro.shard.barrier.StablePointBarrier.__name__,
              hasattr(repro, "no_such_module"))
    """)
    assert out == "OSendBroadcast StablePointBarrier False"


def test_every_module_imports_on_its_own():
    # One interpreter, but every `repro` module is dropped from the
    # module cache before the next import: each import starts from
    # nothing of the package, as a fresh process would.
    out = run_python("""
        import importlib, pkgutil, sys
        import repro

        names = ["repro"] + sorted(
            m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
            if m.name not in ("repro.__main__",)
        )
        failures = []
        for name in names:
            for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
                del sys.modules[loaded]
            try:
                importlib.import_module(name)
            except Exception as exc:
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
        print(len(names), failures)
    """)
    count, failures = out.split(" ", 1)
    assert failures == "[]"
    assert int(count) > 100
