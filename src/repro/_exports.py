"""Package names resolved on first use (PEP 562).

``repro.designs`` and ``repro.analysis`` re-export a dozen submodules;
importing them all to hand out one name would load the TCP stack, the
sanitizer and numpy into a process that runs a UDP echo.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from importlib import import_module


def lazy_exports(package: str,
                 table: dict[str, str]) -> Callable[[str], object]:
    """The module-level ``__getattr__`` for ``package``."""

    def __getattr__(name: str) -> object:
        if name not in table:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{table[name]}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
