"""Package exports that import their defining module on first access.

A package ``__init__`` lists its public names in a name -> module table
and installs the pair this module returns as its PEP 562 module
``__getattr__``/``__dir__``::

    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())

``from package import name`` and ``package.name`` then work as with
eager imports, but the defining module is imported only when one of its
names is first used; the value is then cached in the package namespace.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, str], namespace: Dict[str, Any],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` resolving ``exports`` into ``namespace``."""

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
