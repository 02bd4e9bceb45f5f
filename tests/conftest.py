import os
from pathlib import Path

import numpy as np
import pytest

import stripscat
from stripscat.bie import solve_antisymmetric, solve_symmetric
from stripscat.core import ProblemConfig
from stripscat.spectral import SpectralBundle

# reference configuration shared across the suite
REF_K0 = 2 + 0.05j
REF_A = 1.0
REF_ETA = 1 - 1j
REF_THETA = np.pi / 3


@pytest.fixture(scope="session")
def cli_env():
    """Environment for child `python -m stripscat.cli` processes.

    The directory holding the imported `stripscat` package goes first on
    PYTHONPATH, so a child started in another working directory imports the
    same package even when the parent found it through a relative path.
    A RuntimeWarning is an error in the child as it is in the test process
    (pyproject.toml's filterwarnings).
    """
    env = dict(os.environ)
    pkg_root = str(Path(stripscat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return env


@pytest.fixture(scope="session")
def ref_cfg():
    return ProblemConfig(REF_K0, REF_A, REF_ETA, REF_THETA)


@pytest.fixture(scope="session")
def ref_solves(ref_cfg):
    da, dga = solve_antisymmetric(ref_cfg, 64)
    ds, dgs = solve_symmetric(ref_cfg, 64)
    return da, ds, dga, dgs


@pytest.fixture(scope="session")
def ref_solves_fine(ref_cfg):
    da, _ = solve_antisymmetric(ref_cfg, 128)
    ds, _ = solve_symmetric(ref_cfg, 128)
    return da, ds


@pytest.fixture(scope="session")
def ref_bundles(ref_cfg, ref_solves):
    da, ds, _, _ = ref_solves
    return SpectralBundle(ref_cfg, da), SpectralBundle(ref_cfg, ds)


class _CountingNumpy:
    """Stands in for `numpy` inside a module and counts the 2-D `exp`
    results: the phase matrices exp(+-i k x) of the half-line transforms."""

    def __init__(self):
        self.count = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, *args, **kwargs):
        out = np.exp(*args, **kwargs)
        self.count += np.ndim(out) == 2
        return out


@pytest.fixture()
def phase_builds(monkeypatch):
    """Counts the phase matrices `stripscat.spectral` builds."""
    from stripscat import spectral
    counter = _CountingNumpy()
    monkeypatch.setattr(spectral, "np", counter)
    return counter


@pytest.fixture()
def poly_calls(monkeypatch):
    """Records the number of points of every `Density.poly` call: the
    Chebyshev series evaluations of the package."""
    from stripscat.bie import Density
    calls = []
    poly = Density.poly

    def counted(self, s):
        calls.append(np.size(s))
        return poly(self, s)

    monkeypatch.setattr(Density, "poly", counted)
    return calls
