"""The once-built C encoder and scanner behind frames and session tokens."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.compact_json import dumps, loads

SRC = Path(__file__).resolve().parent.parent / "src"


class TestDumps:
    def test_matches_json_dumps_with_compact_separators(self):
        document = {"a": [1, 2.5, None, True], "é": {"1": "x\n"}, "n": -0.0}
        assert dumps(document) == json.dumps(document, separators=(",", ":"))

    def test_refuses_what_json_dumps_refuses_with_its_text(self):
        with pytest.raises(TypeError) as ours:
            dumps({"a": [object()]})
        with pytest.raises(TypeError) as theirs:
            json.dumps({"a": [object()]})
        assert str(ours.value) == str(theirs.value)

    def test_a_refusal_mid_document_leaves_nothing_behind(self):
        # A circular-check table shared across calls would keep the
        # containers the failed call was inside, and refuse the same
        # containers in the next, acyclic document as "circular".
        holder = {"items": [object()]}
        with pytest.raises(TypeError):
            dumps({"holder": holder})
        holder["items"][0] = 1
        assert dumps({"holder": holder}) == '{"holder":{"items":[1]}}'


class TestLoads:
    @pytest.mark.parametrize(
        "text", ['{"a":1}', ' {"a":1} ', "[1]", '"s"', "NaN", "1e400"],
    )
    def test_accepts_what_json_loads_accepts(self, text):
        assert repr(loads(text)) == repr(json.loads(text))

    @pytest.mark.parametrize(
        "text", ["", " ", '{"a":1}x', '{"a":}', "\ufeff{}", "[1,]"],
    )
    def test_refuses_what_json_loads_refuses_with_its_text(self, text):
        with pytest.raises(ValueError) as ours:
            loads(text)
        with pytest.raises(ValueError) as theirs:
            json.loads(text)
        assert str(ours.value) == str(theirs.value)


def test_without_the_c_accelerators_the_stdlib_paths_are_chosen_once():
    """An interpreter without `_json` gets `JSONEncoder.encode` and the
    pure-Python scanner, picked at import, with the same results."""
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent("""
            import json.encoder, json.scanner
            json.encoder.c_make_encoder = None
            json.scanner.make_scanner = json.scanner.py_make_scanner
            from repro import compact_json
            print(compact_json.dumps.__qualname__)
            print(compact_json.dumps({"a": [1, 2.5, None], "s": "é"}))
            print(compact_json.loads(' {"a": [1, NaN]} '))
            print(compact_json.loads('{"b":{"c":"d"}}'))
        """)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "JSONEncoder.encode",
        '{"a":[1,2.5,null],"s":"\\u00e9"}',
        "{'a': [1, nan]}",
        "{'b': {'c': 'd'}}",
    ]
