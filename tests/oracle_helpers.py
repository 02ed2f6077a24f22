"""Exact reference helpers that only the tests use.

``single_clone_reduced`` is the aligned closed form written out for one kept
signal qudit at n = 1, and ``numeric_independence_test`` takes the exact
largest pairwise trace distance of oracle states, one ``trace_distance``
per pair, with no bound in between.  ``bell_state`` is the pair state the
encoder prepares, written out as a vector for the dense reference routes,
and ``dense_reduced`` is the dense route itself: the whole register, with
no support, plan or block in between.
``scan_pairs`` runs the sweep's comparison, ``classify._max_distance``, on
any list of pairs of dense states, laid out by ``dense_stacks``.
``build_encoder`` is the dense encoding unitary, summed branch by branch
from Kronecker products (``kron_all``) under its own side guard
``ENCODER_DIM_LIMIT``, and ``enumerate_system`` solves the aligned
congruence system by scanning all of Z_d x Z_d; the package computes
neither, so both stay independent of what they check.
"""

import itertools
from typing import NamedTuple

import numpy as np

from cloneleak import classify
from cloneleak.classify import trace_distance
from cloneleak.modnum import (
    CongruenceSolutionSet,
    _require_shape,
    require_dim,
    satisfies_system,
)
from cloneleak.pauli import (
    PauliWord,
    PureState,
    enc_coefficient_value,
    expectation,
    phase_value,
    random_states,
)
from cloneleak.protocol import (
    ReducedState,
    RegisterSubset,
    encode,
    reduce_encoded,
    require_capacity,
    require_pairs,
)

# the side of the d^(n+1) square encoder that build_encoder allocates
ENCODER_DIM_LIMIT = 4096


def kron_all(factors) -> np.ndarray:
    """Kronecker product of a sequence, empty product being the 1x1 identity."""
    out = np.ones((1, 1), dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def build_encoder(d: int, n: int) -> np.ndarray:
    """Dense encoding unitary on [A, S1, ..., Sn].

    Sums the d^2 branches c_kl * (X^k Z^l)^{(x)(n+1)} / d.  Unitarity is not
    an input here; it emerges from the phase choice and is what the tests
    pin down.
    """
    require_dim(d)
    require_pairs(n)
    side = d ** (n + 1)
    require_capacity("encoder side d^(n+1)", side, ENCODER_DIM_LIMIT)
    out = np.zeros((side, side), dtype=complex)
    for k in range(d):
        for l in range(d):
            w = PauliWord(d, a=k, b=l).matrix()
            out += enc_coefficient_value(d, k, l) * kron_all([w] * (n + 1))
    return out / d


def enumerate_system(d: int, p: int, q: int) -> CongruenceSolutionSet:
    """Brute-force scan of Z_d x Z_d; independent oracle for the closed form."""
    require_dim(d)
    _require_shape(p, q)
    sols = tuple(
        (a, b)
        for a in range(d)
        for b in range(d)
        if satisfies_system(d, p, q, a, b)
    )
    return CongruenceSolutionSet(d=d, p=p, q=q, g=len(sols), solutions=sols)


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


def dense_reduced(psi: PureState, d: int, n: int, subset: RegisterSubset) -> np.ndarray:
    """The reduced state as m @ m^H, m the dense register with its kept axes as rows."""
    kept = subset.kept_axes()
    tensor = encode(psi, d, n).reshape((d,) * (2 * n + 1))
    m = np.moveaxis(tensor, kept, range(len(kept))).reshape(d ** len(kept), -1)
    return m @ m.conj().T


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


def dense_stacks(states) -> list[np.ndarray]:
    """``classify._stacks`` of dense states, each one part over every row."""
    side = len(states[0])
    rows = np.arange(side)[None]
    parts = [([k], rows, np.asarray(state, dtype=complex)[None]) for k, state in enumerate(states)]
    return classify._stacks(parts, side, len(states))


def scan_pairs(pairs, tol: float, witness: float) -> tuple[float, bool]:
    """``classify._max_distance`` over ``pairs``, on stacks laid out once for all of them.

    Pair k is states 2k and 2k + 1 of one ``dense_stacks`` call, as a sweep
    row names its pairs by index into its own stacks.
    """
    states = [state for pair in pairs for state in pair]
    first, side = np.arange(0, len(states), 2), len(states[0])
    return classify._max_distance(dense_stacks(states), first, first + 1, side, tol, witness)
