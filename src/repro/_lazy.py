"""Lazy re-exports for the package ``__init__`` modules.

A package names what it re-exports and from which submodule; the
submodule is imported the first time one of its names is read (a
PEP 562 module ``__getattr__``/``__dir__``, the idiom of
scientific-python's ``lazy_loader``).  So ``import repro.aig`` loads the
graph and nothing else until a name from another submodule is asked for,
and a run imports only what it runs.

The one trap: importing ``pkg.sub`` binds the *module* ``sub`` on
``pkg``.  Where ``pkg`` re-exports a same-named function from it
(``repro.aig.check``, ``repro.library.isop``) that binding would shadow
the function, and an attribute that exists never reaches
``__getattr__``.  So :func:`attach` gives the package a module class
whose ``__setattr__`` sees the import system bind a submodule and binds
every name the table maps to that submodule right after it.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

# package name -> {re-exported name: submodule}
_OWNERS: Dict[str, Dict[str, str]] = {}


class _LazyPackage(types.ModuleType):
    """A package module that binds a submodule's re-exports when the
    import system binds the submodule itself."""

    def __setattr__(self, name: str, value: object) -> None:
        super().__setattr__(name, value)
        if (isinstance(value, types.ModuleType)
                and value.__name__ == f"{self.__name__}.{name}"):
            _bind(self, name, value)


def _bind(package: types.ModuleType, sub: str,
          loaded: types.ModuleType) -> None:
    """Bind on ``package`` each name it re-exports from ``loaded`` that
    ``loaded`` already holds (a lazy subpackage's unread names stay
    unread)."""
    held, names = vars(loaded), vars(package)
    for name, owner in _OWNERS[package.__name__].items():
        if owner == sub and name in held:
            names[name] = held[name]


def attach(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """Re-export ``exports`` (``{submodule: names}``) from ``package``
    lazily; returns the package's ``__getattr__``, ``__dir__`` and
    ``__all__``.  A submodule listed with no names is reachable as an
    attribute (``repro.galois``) but re-exports nothing.  Call it before
    the package imports any submodule itself, so the binding rule sees
    every submodule load."""
    module = sys.modules[package]
    owners = _OWNERS[package] = {
        name: sub for sub, names in exports.items() for name in names
    }
    module.__class__ = _LazyPackage
    public = list(owners)

    def __getattr__(name: str) -> object:
        sub = owners.get(name)
        if sub is None:
            if name not in exports:
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}")
            return importlib.import_module(f"{package}.{name}")
        # Loading the submodule binds its names here (``_bind``); a lazy
        # subpackage resolves its own on the ``getattr``.
        loaded = importlib.import_module(f"{package}.{sub}")
        value = vars(module)[name] = getattr(loaded, name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(module)) | set(public) | set(exports))

    return __getattr__, __dir__, public
