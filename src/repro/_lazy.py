"""Lazy package exports (PEP 562).

Each package ``__init__`` names its public API up front and imports the
module that defines a name only when the name is first read.  A launch
then pays for what its command runs: ``adassure serve`` loads the
protocol, session and checker modules, never the simulator or the
experiment harness.
"""

from __future__ import annotations

import importlib
import sys

__all__ = ["lazy_exports"]


def lazy_exports(package: str, sources: dict[str, tuple[str, ...]]):
    """The module ``__getattr__`` of ``package``.

    Args:
        package: the package's ``__name__``.
        sources: defining module (relative to ``package``, e.g.
            ``".schema"``) -> the names it exports.

    A name resolves on first access and is then stored in the package
    namespace, so later reads (and ``monkeypatch``) see a plain attribute.
    """
    owner = {name: module for module, names in sources.items()
             for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    return __getattr__
