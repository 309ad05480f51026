"""Rules the library source keeps: postconditions raise, never ``assert``,
since ``python -O`` strips every assert statement."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stabkit"


def test_library_has_no_assert_statements():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == [], "postconditions must raise, not assert: " + ", ".join(found)
