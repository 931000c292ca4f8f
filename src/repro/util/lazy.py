"""Lazy package re-exports (PEP 562).

A package ``__init__`` names its public objects and the submodules that
define them; a submodule is imported the first time one of its names is
read, so importing a package costs only the modules a caller touches.
"""

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module (relative to ``package`` when it starts
    with ``"."``) to the names it defines.  ``__getattr__`` resolves
    those names, and a submodule not imported yet, on first access;
    anything else raises :class:`AttributeError`.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name in home:
            return getattr(importlib.import_module(home[name], package), name)
        if not name.startswith("_"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *home})

    return list(home), __getattr__, __dir__
