"""Only ``repro.broadcast`` knows the form of a member's state.

The chassis keeps its settled set as ``_prefix`` / ``_above``, its
hold-back queue as ``_pending``, its repair store as ``_envelopes_by_id``
and its skipped ranges as ``_skipped_stable``.  Every other package asks
the chassis (``has_settled``, ``settles_all``, ``cut``, ``known_cut``,
``store_size``, ``holdback_ids``, ``skipped_stable``) and never reads
those fields.  This scan of ``src/repro`` outside ``repro/broadcast/``
fails on any attribute access of one of those names whose receiver is
not ``self``: a class's own field of the same name (``ServeServer``'s
``_pending``) is its own state.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
CHASSIS_STATE = frozenset(
    ("_prefix", "_above", "_pending", "_envelopes_by_id", "_skipped_stable")
)


def foreign_reads(source: str) -> List[str]:
    """Each access of a chassis field through a receiver other than
    ``self``, as ``line: expression``."""
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr in CHASSIS_STATE
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]


def test_no_module_outside_the_broadcast_package_reads_the_chassis_state():
    found = [
        f"{path.relative_to(SRC)}:{hit}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != "broadcast"
        for hit in foreign_reads(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_the_scan_tells_a_foreign_read_from_an_own_field():
    assert foreign_reads("known = protocol._pending") == [
        "1: protocol._pending"
    ]
    assert foreign_reads("n = len(stack.group._prefix)")
    assert foreign_reads("self._pending = {}\nx = self._above") == []
