"""Closed-form reduced states of the storage register.

Everything here is evaluated directly from coefficient formulas and the
congruence solution set; no register statevector is ever built.  Agreement
with :func:`cloneleak.protocol.oracle_reduced` is therefore a genuine
two-route consistency check, not a tautology.

Aligned subsets (one qudit per pair, p signals and q = n - p noises) reduce
to

    rho = (1/d^n) * sum_{(a,b)} gamma(a,b) <psi|X^a Z^b|psi>
                    * (X^a Z^b)^{(x)p} (x) (X^{-a} Z^b)^{(x)q}

where the sum runs over the aligned congruence solutions and
gamma(a,b) = exp(-i*pi*(a^2 + b^2 + 2*q*a*b + delta*(a+b))/d).  Subsets that
miss a whole pair instead collapse to an input-independent uniform mixture
of Bell-basis product states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modnum import CongruenceSolutionSet, delta, require_dim, solve_aligned_system
from .pauli import PauliWord, PureState, expectation, phase_value
from .protocol import (
    BOTH,
    NONE,
    REDUCED_SIDE_LIMIT,
    ReducedState,
    RegisterSubset,
    kron_all,
    permute_subsystems,
    require_capacity,
    require_pairs,
)


def aligned_coefficient_exponent(d: int, q: int, a: int, b: int) -> int:
    """Exponent (mod 2d) of gamma(a, b) for q kept noises, no solution-set filtering."""
    dl = delta(d)
    a, b = a % d, b % d
    return (-(a * a + b * b + 2 * q * a * b + dl * (a + b))) % (2 * d)


@dataclass(frozen=True)
class LeakTerm:
    """One nontrivial word surviving in an aligned reduced state."""

    d: int
    a: int
    b: int
    phase_exponent: int

    @property
    def coefficient(self) -> complex:
        return phase_value(self.d, self.phase_exponent)

    def signal_word(self) -> PauliWord:
        """Factor applied to each kept signal qudit."""
        return PauliWord(self.d, a=self.a, b=self.b)

    def noise_word(self) -> PauliWord:
        """Factor applied to each kept noise qudit."""
        return PauliWord(self.d, a=-self.a, b=self.b)

    def to_dict(self) -> dict[str, int]:
        return {"a": self.a, "b": self.b, "phase_exponent": self.phase_exponent}


def leaked_words(sols: CongruenceSolutionSet) -> tuple[LeakTerm, ...]:
    """The nontrivial terms of an aligned reduced state, in generator order.

    Empty exactly when g = gcd(d, p*(q+1) - 1) is 1, i.e. when the subset is
    completely uninformative.
    """
    return tuple(
        LeakTerm(
            d=sols.d,
            a=a,
            b=b,
            phase_exponent=aligned_coefficient_exponent(sols.d, sols.q, a, b),
        )
        for a, b in sols.nontrivial()
    )


def aligned_reduced(d: int, subset: RegisterSubset, psi: PureState) -> ReducedState:
    """Closed-form reduced state of an aligned subset, canonical qudit order.

    The maximally mixed background I/d^n plus one tensor-product term per
    leaked word: its signal factor on each kept signal, its noise factor on
    each kept noise.
    """
    if not subset.is_aligned:
        raise ValueError(f"subset {subset} is not aligned")
    p = subset.signal_count
    q = subset.n - p
    sols = solve_aligned_system(d, p, q)
    if psi.d != d:
        raise ValueError(f"state dimension {psi.d} does not match d={d}")
    side = d**subset.n
    require_capacity("reduced side d^n", side, REDUCED_SIDE_LIMIT)
    acc = np.eye(side, dtype=complex)
    for term in leaked_words(sols):
        sig, noi = term.signal_word(), term.noise_word()
        amp = term.coefficient * expectation(psi, sig)
        acc += amp * kron_all([sig.matrix()] * p + [noi.matrix()] * q)
    return ReducedState(d=d, labels=subset.kept_labels(), matrix=acc / side)


def missing_pair_reduced(d: int, n: int, missing: int) -> ReducedState:
    """State of the n-1 surviving pairs when pair ``missing`` is dropped whole.

    Input-independent: a uniform mixture over the d^2 Bell-basis states,
    each surviving pair carrying the same basis label,

        (1/d^2) sum_{k,l} (|phi_kl><phi_kl|)^{(x)(n-1)},

    over canonical order (signals ascending, then noises).  This is
    :func:`missing_pair_subset_reduced` of the subset that keeps every
    other pair whole.
    """
    require_dim(d)
    require_pairs(n)
    if not 1 <= missing <= n:
        raise ValueError(f"missing pair {missing} outside 1..{n}")
    if n == 1:
        return ReducedState(d=d, labels=(), matrix=np.ones((1, 1), dtype=complex))
    members = [BOTH] * n
    members[missing - 1] = NONE
    return missing_pair_subset_reduced(d, n, RegisterSubset(tuple(members)))


def missing_pair_subset_reduced(d: int, n: int, subset: RegisterSubset) -> ReducedState:
    """Closed-form state of any subset missing at least one whole pair.

    Input-free: the m complete pairs the subset keeps share one Bell label,
    and every lone kept qudit is I/d,

        (1/d^2) sum_{k,l} (|phi_kl><phi_kl|)^{(x)m} (x) (I/d)^{(x)lone},

    permuted from that pairwise order to canonical order.  For m <= 1 this
    is I/d^size.  Raises CapacityError when the kept side d^size exceeds
    ``REDUCED_SIDE_LIMIT``.
    """
    require_dim(d)
    if subset.n != n:
        raise ValueError(f"subset spans {subset.n} pairs, register has {n}")
    if subset.touches_all_pairs:
        raise ValueError(f"subset {subset} touches every pair; no pair is missing")
    kept = subset.kept_labels()
    require_capacity("kept side d^size", d ** len(kept), REDUCED_SIDE_LIMIT)
    # (X^k Z^l (x) I)|phi> lists the entries of X^k Z^l row by row, over sqrt(d)
    bell = np.array(
        [PauliWord(d, a=k, b=l).matrix().reshape(-1) for k in range(d) for l in range(d)]
    ) / np.sqrt(d)
    vecs = np.ones((d * d, 1), dtype=complex)
    for _ in subset.full_pairs:
        vecs = (vecs[:, :, None] * bell[:, None, :]).reshape(d * d, -1)
    pairwise = [lab for i in subset.full_pairs for lab in (f"S{i}", f"N{i}")]
    lone = [lab for lab in kept if lab not in pairwise]
    lone_side = d ** len(lone)
    matrix = np.kron(vecs.T @ vecs.conj() / (d * d), np.eye(lone_side) / lone_side)
    order = pairwise + lone
    perm = [order.index(lab) for lab in kept]
    matrix = permute_subsystems(matrix, (d,) * len(kept), perm)
    return ReducedState(d=d, labels=kept, matrix=matrix)
