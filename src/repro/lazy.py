"""Lazy package re-exports (PEP 562).

Every package ``__init__`` re-exports its public names from the
submodules that define them, but imports none of those submodules when
the package loads: the first access to a name imports its submodule and
caches the value in the package namespace, so the second access is a
plain attribute read.  A process therefore loads only the code it uses —
``repro serve`` never loads the applications, the analysis batteries or
the chaos harness just because a package ``__init__`` names them.

``__all__`` is still written out in each ``__init__``; ``dir()`` lists it
together with whatever the package has loaded; and any submodule is
reachable as an attribute (``repro.broadcast.osend``) without an
explicit import, as it was when the ``__init__`` imported everything.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a submodule, relative to ``package`` (``"osend"``
    for ``repro.broadcast.osend``), to the names the package re-exports
    from it.  Call it from the package's ``__init__``::

        __getattr__, __dir__ = lazy_exports(__name__, {"osend": ("OSendBroadcast",)})
    """
    origin: Dict[str, str] = {
        name: f"{package}.{submodule}"
        for submodule, names in exports.items()
        for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        source = origin.get(name)
        if source is not None:
            value = getattr(importlib.import_module(source), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            qualified = f"{package}.{name}"
            try:
                # Importing a submodule binds it in the package namespace.
                return importlib.import_module(qualified)
            except ModuleNotFoundError as exc:
                if exc.name != qualified:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
