"""The package solves the boundary integral equations on one path.

`bie.solve_block` solves a block of incidences on one medium; above `bie`,
only `spectral.Scattering` calls it, and every multi-incidence reader takes
its data from a `Scattering`.  An AST `Name` or `Attribute` named
`solve_block`, or a `from ... import solve_block`, in any
`src/stripscat/*.py` other than `bie.py` and outside the body of
`spectral.Scattering` is reported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stripscat"


def _solve_block_uses(package: Path):
    """(module name, line) of every reference to `solve_block` outside bie.py
    and outside the class `Scattering` of spectral.py."""
    out = []
    for path in sorted(package.glob("*.py")):
        if path.name == "bie.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = [(n.lineno, n.end_lineno) for n in tree.body
                   if path.name == "spectral.py" and isinstance(n, ast.ClassDef)
                   and n.name == "Scattering"]
        for node in ast.walk(tree):
            hit = ((isinstance(node, ast.Name) and node.id == "solve_block")
                   or (isinstance(node, ast.Attribute) and node.attr == "solve_block")
                   or (isinstance(node, ast.ImportFrom)
                       and any(a.name == "solve_block" for a in node.names)))
            if hit and not any(a <= node.lineno <= b for a, b in allowed):
                out.append((path.stem, node.lineno))
    return out


def test_only_scattering_calls_solve_block():
    assert _solve_block_uses(PACKAGE) == []


def test_guard_sees_a_stray_solve_block(tmp_path):
    # negative control: a caller outside Scattering is reported in every
    # spelling, Scattering's own call and bie's definition are not
    (tmp_path / "bie.py").write_text(
        "def solve_block(cfg, parity, theta_in, N):\n    return None\n")
    (tmp_path / "spectral.py").write_text(
        "from . import bie\n\n\n"
        "class Scattering:\n    def __init__(self, cfg):\n"
        "        self.block = bie.solve_block(cfg, 0, [0.5], 8)\n\n\n"
        "def stray(cfg):\n    return bie.solve_block(cfg, 0, [0.5], 8)\n")
    (tmp_path / "verify.py").write_text(
        "from .bie import solve_block\n\n\n"
        "def check(cfg):\n    return solve_block(cfg, 0, [0.5], 8)\n")
    assert _solve_block_uses(tmp_path) == [("spectral", 10), ("verify", 1), ("verify", 5)]
