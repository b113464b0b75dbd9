"""Shapes are checked once, where they enter the library.

Only ``shapes.py`` reads outside input into a ``TreeShape``; every other
module derives its shapes from checked data and builds them through
``TreeShape._trusted``.  A validating ``TreeShape(...)`` call elsewhere
would re-check a shape that is valid by construction.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mtshapes"


def test_only_shapes_module_calls_the_validating_constructor():
    sources = sorted(p for p in SRC.glob("*.py") if p.name != "shapes.py")
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "TreeShape"
    ]
    assert found == []
