"""Every defaulted parameter of the package has a caller that sets it.

For each function defined in `src/stripscat/*.py`, a parameter with a
default counts as used when some call in the package or in `perfbench/*.py`
passes it, by keyword or by position.  A call is matched to a function by
its name: `f(...)` or `obj.f(...)`, and for a class's `__init__` a call of
the class name.  A call that unpacks `*args` or `**kwargs` sets every
parameter it could reach.  Tests do not count: a value only its own tests
change is one value, and belongs inside the function as a constant.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stripscat"

# the hook a negative control plants; no caller of the package sets it
EXEMPT = {"rhstructure.continuation_identity_check(wrong_shore)"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defaulted(package: Path):
    """(module, callee name, display name, positional names, defaulted names)
    of every function with defaults; an `__init__` is called by its class name."""
    out = []
    for path in sorted(package.glob("*.py")):
        tree = _parse(path)
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    owner[child] = node.name
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                             if d is not None]
            if not with_default:
                continue
            cls = owner.get(node)
            callee = cls if node.name == "__init__" and cls else node.name
            display = f"{cls}.{node.name}" if cls else node.name
            if cls:               # a method's callers do not pass self
                positional = positional[1:]
            out.append((path.stem, callee, display, positional, with_default))
    return out


def _calls(package: Path):
    """callee name -> [(number of positional arguments, keyword names, unpacks)]."""
    files = sorted(package.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    out = {}
    for path in files:
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) \
                else None
            if name is None:
                continue
            unpacks = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            out.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords if k.arg}, unpacks))
    return out


def _unset(package: Path):
    calls = _calls(package)
    out = []
    for module, callee, display, positional, with_default in _defaulted(package):
        for p in with_default:
            i = positional.index(p) if p in positional else None
            if not any(unpacks or p in kw or (i is not None and n > i)
                       for n, kw, unpacks in calls.get(callee, [])):
                out.append(f"{module}.{display}({p})")
    return sorted(set(out) - EXEMPT)


def test_every_defaulted_parameter_has_a_caller():
    assert _unset(PACKAGE) == []


def test_guard_sees_an_unset_default(tmp_path):
    # negative control: a default nothing overrides is reported, one set by
    # position or by keyword, or through a class name, is not
    (tmp_path / "mod.py").write_text(
        "def f(x, n=4, m=8, *, k=1, j=2):\n    return x + n + m + k + j\n\n\n"
        "class Box:\n    def __init__(self, size=3, fill=0):\n        self.size = size\n\n"
        "    def grow(self, by=1):\n        return self.size + by\n\n\n"
        "VALUE = f(1, 2, k=3) + Box(5).grow()\n")
    assert _unset(tmp_path) == ["mod.Box.__init__(fill)", "mod.Box.grow(by)",
                                "mod.f(j)", "mod.f(m)"]
