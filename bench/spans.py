"""In-memory spans recorded from the harness side of each layer boundary.

A span is ``(name, start, end, parent, cycle)``: ``parent`` is the index
of the span that was open when this one began (the span that caused
it), ``cycle`` the batch cycle it belongs to.  Spans stay in memory as
five parallel lists and are written out once, when the benchmark ends.
A layer's **self time** is its spans' duration minus the part their
child spans cover, so self times of all spans add up to the traced
interval exactly — which is what lets a budget sum to its total.

Nothing here is inside the program under test: the harness wraps public
methods of the layer classes in its own process for the duration of a
traced replay and unwraps them afterwards.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.name: List[int] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.parent: List[int] = []
        self.cycle_of: List[int] = []
        self._open: List[int] = []
        #: Identifier shared by every span of the current batch cycle.
        self.cycle = 0
        self._patched: List[Tuple[type, str, Callable]] = []

    def _intern(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def begin(self, name_index: int) -> int:
        span = len(self.name)
        self.name.append(name_index)
        self.parent.append(self._open[-1] if self._open else -1)
        self.cycle_of.append(self.cycle)
        self.end.append(0)
        self._open.append(span)
        self.start.append(_clock())
        return span

    def finish(self, span: int) -> None:
        self.end[span] = _clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a call the harness itself makes into a layer."""
        span = self.begin(self._intern(name))
        try:
            yield
        finally:
            self.finish(span)

    def wrap(self, owner: type, method: str, name: str) -> None:
        """Record a span around every call of ``owner.method``."""
        original = owner.__dict__[method]
        name_index = self._intern(name)
        begin, finish = self.begin, self.finish

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = begin(name_index)
            try:
                return original(*args, **kwargs)
            finally:
                finish(span)

        self.patch(owner, method, traced)

    def patch(self, owner: type, method: str, replacement: Callable) -> None:
        """Replace ``owner.method`` until :meth:`unwrap_all`."""
        self._patched.append((owner, method, owner.__dict__[method]))
        setattr(owner, method, replacement)

    def unwrap_all(self) -> None:
        while self._patched:
            owner, method, original = self._patched.pop()
            setattr(owner, method, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> Dict[str, Tuple[int, int, int]]:
        """name -> (span count, total ns, self ns)."""
        return self_times(self.names, self.name, self.start, self.end,
                          self.parent)

    def dump(self, path: str, extra: Dict[str, object]) -> None:
        with open(path, "w") as handle:
            json.dump({
                **extra,
                "columns": "names[name[i]], start_ns[i], end_ns[i], "
                           "parent[i] (span index or -1), cycle[i]",
                "names": self.names,
                "name": self.name,
                "start_ns": self.start,
                "end_ns": self.end,
                "parent": self.parent,
                "cycle": self.cycle_of,
            }, handle, separators=(",", ":"))


def self_times(
    names: List[str], name: List[int], start: List[int], end: List[int],
    parent: List[int],
) -> Dict[str, Tuple[int, int, int]]:
    """Per span name: (count, total ns, self ns = total - children)."""
    covered = [0] * len(name)
    for span, above in enumerate(parent):
        if above >= 0:
            covered[above] += end[span] - start[span]
    totals: Dict[str, List[int]] = {n: [0, 0, 0] for n in names}
    for span, name_index in enumerate(name):
        duration = end[span] - start[span]
        entry = totals[names[name_index]]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - covered[span]
    return {n: (c, t, s) for n, (c, t, s) in totals.items()}
