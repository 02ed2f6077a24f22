"""Leakage classification for encrypted-cloning storage registers on qudits.

The package answers one question two independent ways: given the
encrypted-cloning protocol's storage register, which subsets of its qudits
carry information about the input state?  An arithmetic criterion (a gcd of
the register shape) and closed-form reduced states answer it analytically;
a brute-force statevector oracle answers it numerically; the classify and
sweep layers keep the two honest against each other.

The package namespace holds what the README documents; everything else is
imported from its own module.
"""

from .analytic import aligned_reduced
from .classify import SweepConfig, analytic_reduced, classify_subset, run_sweep, trace_distance
from .pauli import PureState, random_states
from .protocol import (
    ENCODER_DIM_LIMIT,
    REDUCED_SIDE_LIMIT,
    STATE_AMPLITUDE_LIMIT,
    CapacityError,
    RegisterSubset,
    encode,
    oracle_reduced,
    reduce_encoded,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ENCODER_DIM_LIMIT",
    "PureState",
    "REDUCED_SIDE_LIMIT",
    "RegisterSubset",
    "STATE_AMPLITUDE_LIMIT",
    "SweepConfig",
    "aligned_reduced",
    "analytic_reduced",
    "classify_subset",
    "encode",
    "oracle_reduced",
    "random_states",
    "reduce_encoded",
    "run_sweep",
    "trace_distance",
    "__version__",
]
