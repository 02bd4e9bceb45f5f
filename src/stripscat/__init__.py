"""stripscat: impedance-strip diffraction solver and verification suite."""

from .core import (
    BranchMode,
    Parity,
    ProblemConfig,
    incident_field,
    xi,
)
from .bie import (
    Density,
    SolveDiagnostics,
    scattered_field,
    solve_antisymmetric,
    solve_symmetric,
)

__all__ = [
    "BranchMode",
    "Parity",
    "ProblemConfig",
    "incident_field",
    "xi",
    "Density",
    "SolveDiagnostics",
    "scattered_field",
    "solve_antisymmetric",
    "solve_symmetric",
]

__version__ = "0.1.0"
