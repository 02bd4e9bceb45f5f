"""Every public module-level name of the package has a caller.

A module-level public `def`, `class` or assignment in `src/stripscat/*.py`
counts as used when an AST `Name` or `Attribute` that reads it appears in
the package (outside its own definition, and not counting the re-exports of
`__init__.py`) or in `perfbench/*.py`.  Tests do not count: code that only
its own tests call is dead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stripscat"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions():
    """(module file, name, first line, last line) of every public module-level binding."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            out += [(path, n, node.lineno, node.end_lineno) for n in names
                    if not n.startswith("_")]
    return out


def _references():
    """(file, name, line) of every Name or Attribute read in the package and perfbench."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    out = []
    for path in files:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                out.append((path, node.id, node.lineno))
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                out.append((path, node.attr, node.lineno))
    return out


def _unreferenced():
    refs = _references()
    return sorted(
        f"{path.stem}.{name}" for path, name, first, last in _definitions()
        if not any(n == name and not (p == path and first <= line <= last)
                   for p, n, line in refs))


def test_every_public_name_has_a_caller():
    assert _unreferenced() == []


def test_guard_sees_a_dead_function(tmp_path, monkeypatch):
    # negative control: a public function nothing calls must be reported
    dead = tmp_path / "stripscat"
    dead.mkdir()
    (dead / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def unused():\n    return unused()\n\n\n"
        "VALUE = used()\n")
    monkeypatch.setitem(globals(), "PACKAGE", dead)
    assert _unreferenced() == ["mod.VALUE", "mod.unused"]

