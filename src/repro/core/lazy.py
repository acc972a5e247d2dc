"""Package attributes that load their module on first use (PEP 562).

A package ``__init__`` keeps its public names while the modules behind some
of them stay unimported until a caller reads one, so ``import repro.cli``
does not pay for trace forensics, code counting or the scenario miner.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Iterable


def lazy_attributes(
    package: str, modules: dict[str, Iterable[str]]
) -> Callable[[str], Any]:
    """A module ``__getattr__`` for ``package``.

    ``modules`` maps a module path relative to ``package`` to the names it
    provides; reading one of them imports that module and keeps the value
    on the package, so later reads are plain attribute hits.
    """
    where = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f".{where[name]}", package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
