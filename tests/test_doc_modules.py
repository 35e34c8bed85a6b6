"""Doc truth: every module the tracked docs name exists.

A back-ticked ``repro.x[.y...]`` in DESIGN.md, README.md or
docs/TUTORIAL.md must resolve — as a module, or as an attribute of
one.  PAPER.md is the source paper's text, not a description of this
repository, so it is not checked.
"""

import pkgutil
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md", "docs/TUTORIAL.md")
NAME = re.compile(r"`(repro(?:\.\w+)+)`")


@pytest.mark.parametrize("doc", DOCS)
def test_every_named_module_imports(doc):
    missing = []
    for name in sorted(set(NAME.findall((ROOT / doc).read_text()))):
        try:
            pkgutil.resolve_name(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert not missing, f"{doc} names modules that do not exist: {missing}"
