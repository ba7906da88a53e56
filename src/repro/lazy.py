"""Package exports that load on first use (PEP 562).

A package imports eagerly only what a cluster run executes.  The rest
of its public names go in one table, defining module -> names, and the
package installs the module-level ``__getattr__`` and ``__dir__`` that
:func:`lazy_exports` returns::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.mpi.rma": ("RmaError", "Window", "WindowBuffer", "win_create"),
    })

The first read of such a name imports its module and binds the name in
the package, so later reads are plain attribute lookups.  ``from
package import name``, ``package.name`` and ``from package import *``
(over ``__all__``) all work as they did with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(package: str, table: Mapping[str, tuple[str, ...]]
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, whose names in
    ``table`` (defining module -> names) load on first use."""
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | where.keys())

    return __getattr__, __dir__
