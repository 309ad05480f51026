"""Dead-API guard: every public top-level function of a stabkit module serves
a command or is named in the README's library-only list, every listed name
serves none and its bullet cites the ROADMAP item that adopts it, every other
public name is used by another part of the program or listed, and every name
``stabkit`` exports resolves."""
import ast
import re
from pathlib import Path

import stabkit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stabkit"


def _modules():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}


def _top_level(tree):
    """(name, node) of every top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    yield t.id, node


def _definitions(tree):
    """(name, node, first line, last line) of every public top-level
    function, class and assigned name."""
    for name, node in _top_level(tree):
        if not name.startswith("_"):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            yield name, node, first, node.end_lineno


def _uses(tree):
    """(name, line) of every name the code reads, as a bare name or as an
    attribute; imports and docstrings do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def reached_names(modules):
    """Every name that the command handlers reach: start from ``cli.main``,
    ``build_parser`` and every ``cmd_*``, and follow each name used in the
    body of a reached top-level function, class or assignment to every
    top-level definition of that name in any module."""
    defs = {}
    for tree in modules.values():
        for name, node in _top_level(tree):
            defs.setdefault(name, []).append(node)
    todo = [name for name, _ in _top_level(modules["cli"])
            if name in ("main", "build_parser") or name.startswith("cmd_")]
    reached = set(todo)
    while todo:
        for node in defs.get(todo.pop(), ()):
            for name, _ in _uses(node):
                if name not in reached:
                    reached.add(name)
                    todo.append(name)
    return reached


def library_only_bullets():
    """The bullets of the README's "Library-only functions" section, each
    with its continuation lines joined into one line."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library-only functions\n", 1)[1].split("\n## ", 1)[0]
    return [" ".join(b.split()) for b in re.findall(r"^- .*(?:\n  .*)*", section, re.M)]


def library_only_names():
    """The backquoted names that open the bullets of the README's
    "Library-only functions" section, before each bullet's colon."""
    return {name for bullet in library_only_bullets()
            for name in re.findall(r"`(\w+)`", bullet.split(":", 1)[0])}


def test_every_public_definition_is_reached_or_listed():
    """A public function must serve a command; a public class or assigned
    name must be used outside its own definition. Either may be listed
    instead."""
    modules = _modules()
    uses = {mod: list(_uses(tree)) for mod, tree in modules.items()}
    reached = reached_names(modules)
    listed = library_only_names()
    dead = []
    for mod, tree in modules.items():
        for name, node, first, last in _definitions(tree):
            if isinstance(node, ast.FunctionDef):
                used = name in reached
            else:
                used = any(used_name == name and (other != mod or not first <= line <= last)
                           for other, found in uses.items() for used_name, line in found)
            if not used and name not in listed:
                dead.append(f"{mod}.{name}")
    assert dead == [], ("public names that no command reaches; "
                        "delete them or list them in the README: " + ", ".join(dead))


def test_library_only_names_serve_no_command():
    assert sorted(library_only_names() & reached_names(_modules())) == []


def test_every_library_only_bullet_cites_its_roadmap_item():
    """A name stays library-only only while a ROADMAP item plans its caller,
    so the list can shrink but not grow."""
    bullets = library_only_bullets()
    assert bullets
    assert [b for b in bullets if not re.search(r"\bitem \d+", b)] == []


def test_library_only_list_names_existing_definitions():
    defined = {name for tree in _modules().values() for name, _, _, _ in _definitions(tree)}
    assert library_only_names() - defined == set()


def test_every_export_resolves():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert exported
    assert [name for name in exported if not hasattr(stabkit, name)] == []
