"""No module under ``src/`` imports a name it never uses.

An imported name that occurs only once as a word in its module — the import
itself — is unused.  The count runs over the module's whole text, so a name
used only inside a string annotation (``"Topology | None"``) still counts as
used.  ``__init__`` modules are skipped: what they import they re-export.
"""

from __future__ import annotations

import ast
import pathlib
import re
from typing import Iterator, List

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(path for path in SRC.rglob("*.py") if path.name != "__init__.py")


def imported_names(tree: ast.AST) -> Iterator[str]:
    """Every name an import statement binds (``__future__`` features aside)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0]
                        for alias in node.names)


def unused_imports(text: str) -> List[str]:
    return [name for name in imported_names(ast.parse(text))
            if len(re.findall(rf"\b{re.escape(name)}\b", text)) == 1]


def test_the_scan_sees_the_package():
    assert len(MODULES) > 50


@pytest.mark.parametrize("text, unused", [
    ("from typing import Any, Dict\nx: Dict = {}\n", ["Any"]),
    ("import os.path\n", ["os"]),
    ("import json as j\nj.dumps(1)\n", []),
    ("from __future__ import annotations\n", []),
    ('from .topology import Topology\ndef f(t: "Topology | None"): ...\n', []),
], ids=["from", "dotted", "alias", "future", "string-annotation"])
def test_the_word_count(text, unused):
    assert unused_imports(text) == unused


def test_every_imported_name_is_used():
    offenders = {str(path.relative_to(SRC)): unused
                 for path in MODULES
                 if (unused := unused_imports(path.read_text()))}
    assert offenders == {}
