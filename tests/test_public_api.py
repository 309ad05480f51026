"""Dead-API guard: every public top-level name of a stabkit module is used
by another part of the program or is named in the README's library-only
list, and every name ``stabkit`` exports resolves."""
import ast
import re
from pathlib import Path

import stabkit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stabkit"


def _modules():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}


def _definitions(tree):
    """(name, first line, last line) of every public top-level function,
    class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        for name in names:
            if not name.startswith("_"):
                yield name, first, node.end_lineno


def _uses(tree):
    """(name, line) of every name the code reads, as a bare name or as an
    attribute; imports and docstrings do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def library_only_names():
    """The backquoted names that open the bullets of the README's
    "Library-only functions" section, before each bullet's colon."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library-only functions\n", 1)[1].split("\n## ", 1)[0]
    return {name for line in section.splitlines() if line.startswith("- ")
            for name in re.findall(r"`(\w+)`", line.split(":", 1)[0])}


def test_every_public_definition_is_reached_or_listed():
    modules = _modules()
    uses = {mod: list(_uses(tree)) for mod, tree in modules.items()}
    listed = library_only_names()
    dead = []
    for mod, tree in modules.items():
        for name, first, last in _definitions(tree):
            used = any(used_name == name and (other != mod or not first <= line <= last)
                       for other, found in uses.items() for used_name, line in found)
            if not used and name not in listed:
                dead.append(f"{mod}.{name}")
    assert dead == [], ("public names that no command or other module reaches; "
                        "delete them or list them in the README: " + ", ".join(dead))


def test_library_only_list_names_existing_definitions():
    defined = {name for tree in _modules().values() for name, _, _ in _definitions(tree)}
    assert library_only_names() - defined == set()


def test_every_export_resolves():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert exported
    assert [name for name in exported if not hasattr(stabkit, name)] == []
