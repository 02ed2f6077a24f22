"""Leakage classification for encrypted-cloning storage registers on qudits.

The package answers one question two independent ways: given the
encrypted-cloning protocol's storage register, which subsets of its qudits
carry information about the input state?  An arithmetic criterion (a gcd of
the register shape) and closed-form reduced states answer it analytically;
a brute-force statevector oracle answers it numerically; the classify and
sweep layers keep the two honest against each other.
"""

from .analytic import (
    LeakTerm,
    aligned_coefficient_exponent,
    aligned_reduced,
    leaked_words,
    missing_pair_reduced,
    missing_pair_subset_reduced,
)
from .classify import (
    COMPLETELY_UNINFORMATIVE,
    FULLY_INFORMATIVE,
    PARTIALLY_INFORMATIVE,
    Classification,
    SweepConfig,
    SweepReport,
    SweepRow,
    analytic_reduced,
    classify_subset,
    is_authorized,
    maximally_mixed,
    run_sweep,
    trace_distance,
)
from .modnum import (
    CongruenceSolutionSet,
    delta,
    enumerate_system,
    satisfies_system,
    solve_aligned_system,
    system_gcd,
)
from .pauli import (
    PauliWord,
    PureState,
    enc_coefficient,
    enc_coefficient_value,
    expectation,
    phase_value,
    random_states,
)
from .protocol import (
    ENCODER_DIM_LIMIT,
    REDUCED_SIDE_LIMIT,
    STATE_AMPLITUDE_LIMIT,
    CapacityError,
    ReducedState,
    RegisterSubset,
    bell_state,
    build_encoder,
    encode,
    oracle_reduced,
    partial_trace,
    permute_subsystems,
    reduce_encoded,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "Classification",
    "CongruenceSolutionSet",
    "COMPLETELY_UNINFORMATIVE",
    "ENCODER_DIM_LIMIT",
    "FULLY_INFORMATIVE",
    "LeakTerm",
    "PARTIALLY_INFORMATIVE",
    "PauliWord",
    "PureState",
    "REDUCED_SIDE_LIMIT",
    "ReducedState",
    "RegisterSubset",
    "STATE_AMPLITUDE_LIMIT",
    "SweepConfig",
    "SweepReport",
    "SweepRow",
    "aligned_coefficient_exponent",
    "aligned_reduced",
    "analytic_reduced",
    "bell_state",
    "build_encoder",
    "classify_subset",
    "delta",
    "enc_coefficient",
    "enc_coefficient_value",
    "encode",
    "enumerate_system",
    "expectation",
    "is_authorized",
    "leaked_words",
    "maximally_mixed",
    "missing_pair_reduced",
    "missing_pair_subset_reduced",
    "oracle_reduced",
    "partial_trace",
    "permute_subsystems",
    "phase_value",
    "random_states",
    "reduce_encoded",
    "run_sweep",
    "satisfies_system",
    "solve_aligned_system",
    "system_gcd",
    "trace_distance",
    "__version__",
]
