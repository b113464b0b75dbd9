"""Library invariants raise real errors: ``assert`` vanishes under ``python -O``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mtshapes"


def test_library_has_no_assert_statements():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
