"""Classical simulator for amplitude-steering local search on k-SAT.

The package evolves a quantum-style state vector over all 2**n variable
assignments: each step flips amplitude signs according to a conflict or
neighborhood policy, then mixes amplitudes between assignments with a
Hamming-distance kernel.  A shell-space engine reproduces the planted
1-SAT family exactly at thousands of variables, and a CLI wraps instance
generation, trial runs, parameter sweeps, and self-verification.
"""

from .compact import build_v_scaled, compact_run
from .engine import RunResult, run_trial
from .generate import (
    EnsembleSpec,
    GeneratedInstance,
    backtrack_count,
    backtrack_solve,
    generate,
    instance_seed_sequence,
)
from .mixer import MixerSpec, apply_u, dense_u, u_coefficients
from .phases import KIND_NEIGHBORHOOD, KIND_SIMPLE, PolicySpec, resolve_policy
from .sat import (
    CapacityError,
    ConflictPattern,
    SatProblem,
    from_dimacs,
    to_dimacs,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ConflictPattern",
    "EnsembleSpec",
    "GeneratedInstance",
    "KIND_NEIGHBORHOOD",
    "KIND_SIMPLE",
    "MixerSpec",
    "PolicySpec",
    "RunResult",
    "SatProblem",
    "apply_u",
    "backtrack_count",
    "backtrack_solve",
    "build_v_scaled",
    "compact_run",
    "dense_u",
    "from_dimacs",
    "generate",
    "instance_seed_sequence",
    "resolve_policy",
    "run_trial",
    "to_dimacs",
    "u_coefficients",
    "__version__",
]
