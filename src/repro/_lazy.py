"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports its submodules' names eagerly
imports every submodule, so ``from repro.core.fleet import x`` would
load the BDD engine, the encoders and both vendor parsers even on a run
that never diffs or parses anything.  :func:`lazy_exports` lets a
package name its exports and import each submodule only when one of
its names is first read.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Dict[str, Tuple[str, ...]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a submodule path relative to ``package`` to the
    names it exports.  The first read of a name imports its submodule
    and binds the name on the package, so later reads are plain
    attribute lookups.  A name that is also a submodule name must be
    bound eagerly by the package instead: importing that submodule
    sets the package attribute to the module itself.
    """
    source = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(source))

    return __getattr__, __dir__, sorted(source)
