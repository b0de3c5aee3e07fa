"""Every top-level function and class of the package is public (in
`costaskit.__all__`) or named by other code in the package or its scripts,
so a second copy of a kernel that only the tests call cannot linger."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import costaskit

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "costaskit").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "scripts").glob("*.py"))


def test_every_top_level_name_is_public_or_used():
    defined = {
        node.name
        for path in PACKAGE
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    # Drop every unindented def and class header, so a name's own definition
    # does not count as a use of it.
    corpus = "\n".join(
        re.sub(r"^(?:async +)?(?:def|class) +\w+", "", path.read_text(encoding="utf-8"), flags=re.M)
        for path in SOURCES
    )
    unused = sorted(
        name for name in defined - set(costaskit.__all__)
        if not re.search(rf"\b{name}\b", corpus)
    )
    assert unused == []
