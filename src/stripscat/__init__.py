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
    off_strip_normal_derivative,
    off_strip_trace,
    scattered_field,
    solve_antisymmetric,
    solve_symmetric,
    strip_trace,
)

__all__ = [
    "BranchMode",
    "Parity",
    "ProblemConfig",
    "incident_field",
    "xi",
    "Density",
    "SolveDiagnostics",
    "off_strip_normal_derivative",
    "off_strip_trace",
    "scattered_field",
    "solve_antisymmetric",
    "solve_symmetric",
    "strip_trace",
]

__version__ = "0.1.0"
