"""Exact reference helpers that only the tests use.

``single_clone_reduced`` is the aligned closed form written out for one kept
signal qudit at n = 1, and ``numeric_independence_test`` takes the exact
largest pairwise trace distance of oracle states, one ``trace_distance``
per pair, with no bound in between.  ``bell_state`` is the pair state the
encoder prepares, written out as a vector for the dense reference routes.
"""

import itertools
from typing import NamedTuple

import numpy as np

from cloneleak.classify import trace_distance
from cloneleak.modnum import require_dim
from cloneleak.pauli import PauliWord, PureState, expectation, phase_value, random_states
from cloneleak.protocol import ReducedState, RegisterSubset, encode, reduce_encoded


def bell_state(d: int) -> np.ndarray:
    """Maximally entangled pair (1/sqrt(d)) sum_k |kk> as a length-d^2 vector."""
    require_dim(d)
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = 1.0 / np.sqrt(d)
    return vec


def single_clone_reduced(psi: PureState, d: int) -> ReducedState:
    """One kept signal qudit at n = 1: (1/d) sum_a w^{-a^2} <X^a Z^{-a}> X^a Z^{-a}.

    Specialization of the aligned formula to p = 1, q = 0, where the
    congruence system pins b = -a and every residue a survives (g = d).
    """
    require_dim(d)
    if psi.d != d:
        raise ValueError(f"state dimension {psi.d} does not match d={d}")
    acc = np.zeros((d, d), dtype=complex)
    for a in range(d):
        word = PauliWord(d, a=a, b=-a)
        acc += phase_value(d, -2 * a * a) * expectation(psi, word) * word.matrix()
    return ReducedState(d=d, labels=("S1",), matrix=acc / d)


class IndependenceResult(NamedTuple):
    independent: bool
    max_distance: float


def numeric_independence_test(
    d: int,
    n: int,
    subset: RegisterSubset,
    samples: int = 10,
    seed: int = 0,
    tol: float = 1e-9,
) -> IndependenceResult:
    """Exact largest pairwise trace distance of oracle states over seeded inputs."""
    states = random_states(d, samples, seed)
    reduced = [reduce_encoded(encode(psi, d, n), d, n, subset) for psi in states]
    worst = max(
        (trace_distance(a, b) for a, b in itertools.combinations(reduced, 2)), default=0.0
    )
    return IndependenceResult(worst <= tol, worst)
