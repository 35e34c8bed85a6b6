"""Package names resolved on first use (PEP 562).

``repro.designs`` and ``repro.analysis`` re-export a dozen submodules;
importing them all to hand out one name would load the TCP stack, the
sanitizer and numpy into a process that runs a UDP echo.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from importlib import import_module


def lazy_exports(
    package: str, table: dict[str, str],
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module-level ``(__getattr__, __dir__)`` pair for ``package``."""

    def __getattr__(name: str) -> object:
        if name not in table:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{table[name]}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *table})

    return __getattr__, __dir__
