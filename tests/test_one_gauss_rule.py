"""The package takes its Gauss-Legendre rule and its graded panel layouts
from one place.

`chebkit.gauss_legendre` memoizes NumPy's `legendre.leggauss`, whose cost
grows like n^3; a module that calls `leggauss` itself builds the rule again
on every call.  An AST `Attribute` named `leggauss` or a `from ... import
leggauss` in any `src/stripscat/*.py` other than `chebkit.py` is reported.

`chebkit.graded_panels` builds every layout graded by doubling toward a
point.  A `while` loop outside `chebkit.py` whose body multiplies by the
constant 2 (`t *= 2`, `t *= 2.0`, `t = t * 2`, `lad[-1] * 2.0`) builds such a
ladder by hand and is reported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stripscat"


def _leggauss_uses(package: Path):
    """(module name, line) of every reference to `leggauss` outside chebkit.py."""
    out = []
    for path in sorted(package.glob("*.py")):
        if path.name == "chebkit.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "leggauss":
                out.append((path.stem, node.lineno))
            elif isinstance(node, ast.ImportFrom) and any(a.name == "leggauss" for a in node.names):
                out.append((path.stem, node.lineno))
    return out


def _doubling_ladders(package: Path):
    """(module name, line) of every `while` loop outside chebkit.py whose
    body multiplies by the constant 2."""
    def doubles(node):
        # `x *= 2` or a product with the constant 2 (AugAssign and BinOp carry a Mult)
        if not isinstance(getattr(node, "op", None), ast.Mult):
            return False
        factors = [node.value] if isinstance(node, ast.AugAssign) else [node.left, node.right]
        return any(isinstance(f, ast.Constant) and f.value == 2 for f in factors)

    out = []
    for path in sorted(package.glob("*.py")):
        if path.name == "chebkit.py":
            continue
        for loop in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(loop, ast.While) and any(
                    doubles(n) for stmt in loop.body for n in ast.walk(stmt)):
                out.append((path.stem, loop.lineno))
    return out


def test_only_chebkit_builds_gauss_legendre():
    assert _leggauss_uses(PACKAGE) == []


def test_guard_sees_a_direct_leggauss(tmp_path):
    # negative control: both spellings outside chebkit are reported, chebkit's is not
    (tmp_path / "chebkit.py").write_text(
        "import numpy as np\n\nRULE = np.polynomial.legendre.leggauss(4)\n")
    (tmp_path / "mod.py").write_text(
        "import numpy as np\nfrom numpy.polynomial.legendre import leggauss\n\n\n"
        "def rule(n):\n    return np.polynomial.legendre.leggauss(n)\n")
    assert _leggauss_uses(tmp_path) == [("mod", 2), ("mod", 6)]


def test_only_chebkit_builds_a_doubling_ladder():
    assert _doubling_ladders(PACKAGE) == []


def test_guard_sees_a_hand_rolled_ladder(tmp_path):
    # negative control: the spellings the package's ladders used are
    # reported, a loop without a doubling and chebkit's own ladder are not
    (tmp_path / "chebkit.py").write_text(
        "def rule(t):\n    while t < 1:\n        t *= 2\n    return t\n")
    (tmp_path / "mod.py").write_text(
        "def a(t):\n    while t < 1:\n        t *= 2.0\n    return t\n\n\n"
        "def b(lad):\n    while lad[-1] < 1:\n        lad.append(lad[-1] * 2.0)\n    return lad\n\n\n"
        "def c(t):\n    while t < 1:\n        if t:\n            t = 2 * t\n    return t\n\n\n"
        "def d(t):\n    while t < 1:\n        t += 2\n    return t\n")
    assert _doubling_ladders(tmp_path) == [("mod", 2), ("mod", 8), ("mod", 14)]
