"""The package takes its Gauss-Legendre rule from one place.

`chebkit.gauss_legendre` memoizes NumPy's `legendre.leggauss`, whose cost
grows like n^3; a module that calls `leggauss` itself builds the rule again
on every call.  An AST `Attribute` named `leggauss` or a `from ... import
leggauss` in any `src/stripscat/*.py` other than `chebkit.py` is reported.
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
