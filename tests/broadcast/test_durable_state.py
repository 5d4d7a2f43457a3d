"""What survives a crash is declared once and built once.

Each class builds the state a crash loses in its ``_init_volatile()``,
which both ``__init__`` and the restart call; whatever ``__init__``
assigns outside it is durable.  The one written declaration of that
split is the durable/volatile table in ``docs/ROBUSTNESS.md``, one row
per class with state.

* ``TestTheTableIsTheCode`` reads each class's ``__init__`` and
  ``_init_volatile`` and holds the table to them in both directions.
* ``TestARestartRebuildsTheVolatileState`` crashes and restarts a member
  that delivered its peers' traffic and sent nothing of its own (a
  Lamport member sends its acks), sidecars included.  Right after the
  restart rebuilds an object — before the restart settles and replays
  the member's own streams — what the table calls volatile equals a
  fresh instance's, and everything else is the very object it was
  before the crash; only the restart counters move.

Mutation check (done by hand): assigning ``RstBroadcast._sent`` in
``__init__`` instead of ``_init_volatile`` fails the ``[RstBroadcast]``
and ``[rst]`` cases — the restarted member keeps its pre-crash matrix.
(``FifoBroadcast`` and ``CbcastBroadcast`` keep no volatile state of
their own: FIFO's cursor and CBCAST's clock are the chassis's settled
prefix.)
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
import textwrap
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

import repro.broadcast
from repro.broadcast.asend import ASendTotalOrder
from repro.broadcast.base import BroadcastProtocol
from repro.broadcast.gc import StabilityTracker
from repro.broadcast.recovery import RecoveryAgent
from repro.chaos import CHAOS_PROTOCOLS
from repro.group.auto_membership import MembershipManager
from repro.group.membership import GroupMembership
from repro.group.replica_group import ReplicaGroup
from repro.group.view_sync import ViewSyncAgent, attach_view_sync
from repro.sim.node import SimNode
from tests.conftest import build_group

DOC = Path(__file__).resolve().parents[2] / "docs" / "ROBUSTNESS.md"
NAME = re.compile(r"`([A-Za-z_]\w*)`")
SIDECARS = (StabilityTracker, RecoveryAgent, ViewSyncAgent, MembershipManager)
# Moved by the restart itself, never rebuilt.
RESTART_COUNTERS = ("_incarnation", "_settled_version")


def _protocol_classes() -> List[type]:
    for module in pkgutil.iter_modules(repro.broadcast.__path__):
        importlib.import_module(f"repro.broadcast.{module.name}")
    found, stack = [], [BroadcastProtocol]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__module__.startswith("repro.broadcast."):
                found.append(sub)
            stack.append(sub)
    return sorted(set(found), key=lambda cls: cls.__name__)


CLASSES = [SimNode, BroadcastProtocol, *_protocol_classes(), *SIDECARS]


def assigned(cls: type, method: str) -> List[str]:
    """The ``self.<name>`` targets ``cls``'s own ``method`` assigns."""
    (body,) = ast.parse(textwrap.dedent(inspect.getsource(cls))).body
    names: List[str] = []
    for node in body.body:
        if isinstance(node, ast.FunctionDef) and node.name == method:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign):
                    targets = sub.targets
                elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                    targets = [sub.target]
                else:
                    continue
                names.extend(
                    target.attr
                    for target in targets
                    if isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                )
    return names


def table() -> Dict[str, Tuple[Set[str], Set[str]]]:
    """Class name -> (names that survive, volatile names), per row."""
    lines = DOC.read_text(encoding="utf-8").splitlines()
    header = next(
        i for i, line in enumerate(lines) if line.startswith("| class |")
    )
    rows: Dict[str, Tuple[Set[str], Set[str]]] = {}
    for line in lines[header + 2:]:
        if not line.startswith("|"):
            break
        cells = line.strip().strip("|").split("|")
        (name,) = NAME.findall(cells[0])
        assert name not in rows, f"two rows for {name}"
        survive = {n for cell in cells[1:-1] for n in NAME.findall(cell)}
        rows[name] = (survive, set(NAME.findall(cells[-1])))
    return rows


def declared(obj: object) -> Tuple[Set[str], Set[str]]:
    """What the table says of ``obj``: the rows of its classes, merged."""
    rows = table()
    survive: Set[str] = set()
    volatile: Set[str] = set()
    for cls in type(obj).__mro__:
        kept, lost = rows.get(cls.__name__, (set(), set()))
        survive |= kept
        volatile |= lost
    return survive, volatile


class TestTheTableIsTheCode:
    def test_every_class_with_state_has_one_row(self):
        with_state = {
            cls.__name__
            for cls in CLASSES
            if assigned(cls, "__init__") or assigned(cls, "_init_volatile")
        }
        assert set(table()) == with_state

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_the_row_is_what_the_class_assigns(self, cls):
        built = assigned(cls, "__init__")
        rebuilt = assigned(cls, "_init_volatile")
        assert len(set(rebuilt)) == len(rebuilt), "a volatile field twice"
        assert not set(built) & set(rebuilt), "built in two places"
        survive, volatile = table().get(cls.__name__, (set(), set()))
        assert (survive, volatile) == (set(built), set(rebuilt))

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_no_volatile_field_is_built_in_two_classes(self, cls):
        seen: Dict[str, str] = {}
        for each in cls.__mro__:
            if each is object:
                continue
            for name in [
                *assigned(each, "__init__"),
                *assigned(each, "_init_volatile"),
            ]:
                assert name not in seen, (name, seen.get(name), each.__name__)
                seen[name] = each.__name__

    def test_the_restart_names_no_volatile_field(self):
        volatile = {n for _, lost in table().values() for n in lost}
        source = textwrap.dedent(
            inspect.getsource(BroadcastProtocol._on_restart)
        )
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                for target in targets:
                    assert getattr(target, "attr", None) not in volatile
            if isinstance(node, ast.Attribute):
                assert node.attr != "clear", "rebuild, do not clear"


def _group(protocol: str):
    """A three-member group in which ``b`` delivers ``a``'s and ``c``'s
    traffic and sends nothing (but Lamport acks); every sidecar on."""
    if protocol == "asend":
        scheduler, _, stacks = build_group(
            ASendTotalOrder, expected_per_epoch=2
        )
        agents = {m: RecoveryAgent(stack) for m, stack in stacks.items()}
        trackers = {m: StabilityTracker(stack) for m, stack in stacks.items()}
        syncs = attach_view_sync(stacks)
        for sender in ("a", "c"):
            stacks[sender].asend("op", sender)
        scheduler.run()
        return stacks["b"], [agents["b"], trackers["b"], syncs["b"]]
    group = ReplicaGroup(protocol=protocol, members=("a", "b", "c"), seed=3)
    for round_ in range(3):
        for sender in ("a", "c"):
            group.stacks[sender].bcast("op", (sender, round_))
        group.drain()
    group.repair_round()
    group.drain()
    return group.stacks["b"], [
        group.recoveries["b"],
        group.trackers["b"],
        group.view_syncs["b"],
        group.managers["b"],
    ]


def _fresh(stack: BroadcastProtocol) -> Dict[type, object]:
    """A fresh instance of the stack and of each rebuilt sidecar."""
    kwargs = {}
    if isinstance(stack, ASendTotalOrder):
        kwargs["expected_per_epoch"] = 2
    group = GroupMembership(stack.group.view.members)
    fresh = type(stack)(stack.entity_id, group, **kwargs)
    return {
        type(stack): fresh,
        RecoveryAgent: RecoveryAgent(fresh),
        StabilityTracker: StabilityTracker(fresh),
        ViewSyncAgent: ViewSyncAgent(fresh),
    }


def _state(value: object) -> object:
    """A comparable picture of ``value``: objects without an ``__eq__``
    of their own compare by their attributes."""
    if isinstance(value, dict):
        return {key: _state(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_state(item) for item in value]
    if type(value).__eq__ is object.__eq__ and hasattr(value, "__dict__"):
        return type(value), _state(vars(value))
    return value


def _check(obj: object, then: dict, fresh: object) -> None:
    """``obj`` as rebuilt, against its pre-crash self and a fresh one."""
    now = {k: v for k, v in vars(obj).items() if k != "_init_volatile"}
    survive, volatile = declared(obj)
    undeclared = set(now) - survive - volatile
    assert not undeclared, (type(obj).__name__, undeclared)
    for name in volatile:
        assert _state(now[name]) == _state(vars(fresh)[name]), (
            type(obj).__name__,
            name,
        )
    for name in set(now) - volatile:
        if name in RESTART_COUNTERS:
            assert now[name] > then[name], name
        else:
            assert now[name] is then[name], (type(obj).__name__, name)


@pytest.mark.parametrize("protocol", sorted(CHAOS_PROTOCOLS) + ["asend"])
class TestARestartRebuildsTheVolatileState:
    def test_volatile_is_fresh_and_the_rest_is_kept(self, protocol):
        stack, sidecars = _group(protocol)
        assert stack.settled_labels()
        fresh = _fresh(stack)
        objects = [stack, *sidecars]
        rebuilt: List[object] = []
        untouched = []  # nothing to rebuild: checked after the restart
        for obj in objects:
            then = dict(vars(obj))
            if not hasattr(obj, "_init_volatile"):
                untouched.append((obj, then))
                continue

            def rebuild(obj=obj, then=then):
                # Checked at once: the restart's replay refills the
                # rebuilt containers next.
                type(obj)._init_volatile(obj)
                _check(obj, then, fresh[type(obj)])
                rebuilt.append(obj)

            obj._init_volatile = rebuild
        stack.crash()
        stack.restart()
        assert len(rebuilt) + len(untouched) == len(objects)
        for obj, then in untouched:
            _check(obj, then, None)
