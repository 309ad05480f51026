"""Rules the library source keeps: postconditions raise, never ``assert``,
since ``python -O`` strips every assert statement; and every module uses
each name it imports, so a deletion leaves no stale import behind."""
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


def _unused_imports(tree):
    """(name, line) of every name an import binds that no bare name in the
    module reads. ``__future__`` imports bind nothing."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in bound if name not in used]


def test_every_imported_name_is_used():
    """The package ``__init__`` imports only to export, so it is exempt."""
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert files
    found = [f"{path.name}:{line} {name}" for path in files
             for name, line in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [], "imported but never used: " + ", ".join(found)


def test_unused_import_rule_sees_a_stale_import():
    tree = ast.parse("from math import floor, isqrt\nimport os.path\nx = isqrt(4)\n")
    assert _unused_imports(tree) == [("floor", 1), ("os", 2)]
