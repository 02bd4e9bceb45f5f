"""The package takes every Fourier image of its Chebyshev families from one
place.

`chebkit.fourier_image` evaluates the images of sqrt(w) U_n, T_n and
T_n/sqrt(w) as one truncated Jacobi-Anger row of J_m(z) times the family's
T-moments.  A module that calls `jv` itself evaluates an image (or a right-
hand side) by a rule of its own.  An AST `Name` or `Attribute` named `jv`, or
a `from ... import jv`, in any `src/stripscat/*.py` other than `chebkit.py`
and `kernels.py` (whose kernel factors P are Bessel functions of the
distance, not images) is reported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stripscat"
ALLOWED = {"chebkit.py", "kernels.py"}


def _jv_uses(package: Path):
    """(module name, line) of every reference to `jv` outside ALLOWED."""
    out = []
    for path in sorted(package.glob("*.py")):
        if path.name in ALLOWED:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name) and node.id == "jv":
                out.append((path.stem, node.lineno))
            elif isinstance(node, ast.Attribute) and node.attr == "jv":
                out.append((path.stem, node.lineno))
            elif isinstance(node, ast.ImportFrom) and any(a.name == "jv" for a in node.names):
                out.append((path.stem, node.lineno))
    return out


def test_only_chebkit_and_kernels_call_jv():
    assert _jv_uses(PACKAGE) == []


def test_guard_sees_a_direct_jv(tmp_path):
    # negative control: the import, the bare call and the attribute call
    # outside the two modules are reported; theirs and other names are not
    (tmp_path / "chebkit.py").write_text(
        "from scipy.special import jv\n\nROW = jv(0, 1.0)\n")
    (tmp_path / "kernels.py").write_text(
        "import scipy.special\n\nP = scipy.special.jv(0, 1.0)\n")
    (tmp_path / "mod.py").write_text(
        "import scipy.special\nfrom scipy.special import hankel1, jv\n\n\n"
        "def rhs(m, z):\n    return jv(m, z)\n\n\n"
        "def image(m, z):\n    return scipy.special.jv(m, z) + scipy.special.yv(m, z)\n")
    assert _jv_uses(tmp_path) == [("mod", 2), ("mod", 6), ("mod", 10)]
