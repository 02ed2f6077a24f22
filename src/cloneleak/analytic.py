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
miss a whole pair are input-free: the m pairs they keep whole share one Bell
label (k, l) of |phi_kl> = d^(-1/2) sum_j w^(l*j) |j+k>|j>, and each lone
kept qudit is I/d.  Averaging over k asks the kept pairs for one shared
shift S_i - N_i, and averaging over l for equal noise sums, so each entry
is 0 or 1/d^(m+1+lone) by digit arithmetic (see missing_pair_subset_reduced).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .modnum import CongruenceSolutionSet, delta, require_dim, solve_aligned_system
from .pauli import PauliWord, PureState, expectation, phase_value, require_state
from .protocol import (
    BOTH,
    NONE,
    REDUCED_SIDE_LIMIT,
    ReducedState,
    RegisterSubset,
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


def _column_entries(word: PauliWord) -> tuple[np.ndarray, np.ndarray]:
    """Row and value of each column's one nonzero in a word's matrix.

    X^a Z^b sends column k to row k + a; the value is read from the word's
    own matrix, so it carries the same bits.
    """
    col = np.arange(word.d)
    to = (col + word.a) % word.d
    return to, word.matrix()[to, col]


def _monomial(
    d: int, factors: Sequence[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """The Kronecker product of monomial d x d factors, one entry per column.

    ``factors`` gives each factor's ``_column_entries``.  Column j of the
    product holds its only nonzero at row ``rows[j]``, with value
    ``values[j]``; the values are multiplied in the order ``np.kron``
    multiplies them, so they equal the dense product's entries bit for bit.
    """
    rows = np.zeros(1, dtype=np.intp)
    values = np.ones(1, dtype=complex)
    for to, entries in factors:
        rows = (rows[:, None] * d + to).ravel()
        values = (values[:, None] * entries).ravel()
    return rows, values


def aligned_reduced(
    d: int, subset: RegisterSubset, psi: PureState | Sequence[PureState]
) -> ReducedState | list[ReducedState]:
    """Closed-form reduced state of an aligned subset, canonical qudit order.

    The maximally mixed background I/d^n plus one tensor-product term per
    leaked word: its signal factor on each kept signal, its noise factor on
    each kept noise.  That product is monomial, so each term adds d^n
    entries, one per column, and only the entries some term or the
    background touches are written and scaled; no dense side x side word is
    formed.  A sequence of states gives a list with one state per input,
    each bit-identical to the one its input gives alone.
    """
    if not subset.is_aligned:
        raise ValueError(f"subset {subset} is not aligned")
    p = subset.signal_count
    q = subset.n - p
    sols = solve_aligned_system(d, p, q)
    states = [psi] if isinstance(psi, PureState) else list(psi)
    for state in states:
        require_state(state, d)
    side = d**subset.n
    require_capacity("reduced side d^n", side, REDUCED_SIDE_LIMIT)
    acc = np.zeros((len(states), side, side), dtype=complex)
    flat = acc.reshape(len(states), -1)
    cols = np.arange(side)
    touched = [cols * (side + 1)]  # the diagonal
    flat[:, touched[0]] = 1
    for term in leaked_words(sols):
        sig, noi = term.signal_word(), term.noise_word()
        rows, values = _monomial(d, [_column_entries(sig)] * p + [_column_entries(noi)] * q)
        scale = np.array([term.coefficient * expectation(state, sig) for state in states])
        touched.append(rows * side + cols)
        flat[:, touched[-1]] += scale[:, None] * values
    at = np.sort(np.concatenate(touched))
    flat[:, at[np.append(True, at[1:] != at[:-1])]] /= side  # each touched entry once
    labels = subset.kept_labels()
    reduced = [ReducedState(d=d, labels=labels, matrix=mat) for mat in acc]
    return reduced[0] if isinstance(psi, PureState) else reduced


def missing_pair_reduced(d: int, n: int, missing: int) -> ReducedState:
    """State of the n-1 surviving pairs when pair ``missing`` is dropped whole.

    This is :func:`missing_pair_subset_reduced` of the subset that keeps
    every other pair whole, over canonical order (signals ascending, then
    noises): every surviving pair carries the same Bell label.
    """
    require_dim(d)
    require_pairs(n)
    if not isinstance(missing, int) or isinstance(missing, bool):
        raise TypeError(f"missing pair must be an int, got {type(missing).__name__}")
    if not 1 <= missing <= n:
        raise ValueError(f"missing pair {missing} outside 1..{n}")
    if n == 1:
        return ReducedState(d=d, labels=(), matrix=np.ones((1, 1), dtype=complex))
    members = [BOTH] * n
    members[missing - 1] = NONE
    return missing_pair_subset_reduced(d, n, RegisterSubset(tuple(members)))


def missing_pair_subset_reduced(d: int, n: int, subset: RegisterSubset) -> ReducedState:
    """Closed-form state of any subset missing at least one whole pair.

    Input-free: (1/d^2) sum_{k,l} (|phi_kl><phi_kl|)^{(x)m} (x) (I/d)^{(x)lone}
    over the m pairs kept whole and the lone kept qudits.  Read a row as one
    digit per kept qudit in canonical order; rho[r, c] = 1/d^(m+1+lone) when
    r and c share one shift k = S_i - N_i (mod d) over every kept pair i and
    agree on sum_i N_i mod d and on every lone digit, and 0 otherwise, so the
    entries are exact.  For m = 0 it is I/d^size.  Raises CapacityError when
    the kept side d^size exceeds ``REDUCED_SIDE_LIMIT``.
    """
    require_dim(d)
    if subset.n != n:
        raise ValueError(f"subset spans {subset.n} pairs, register has {n}")
    if subset.touches_all_pairs:
        raise ValueError(f"subset {subset} touches every pair; no pair is missing")
    kept = subset.kept_labels()
    side = d ** len(kept)
    require_capacity("kept side d^size", side, REDUCED_SIDE_LIMIT)
    pairs = subset.full_pairs
    if not pairs:
        return ReducedState(d=d, labels=kept, matrix=np.eye(side, dtype=complex) / side)
    # row r's digits, the first kept qudit's most significant
    digits = np.arange(side)[:, None] // d ** np.arange(len(kept) - 1, -1, -1) % d
    noise = digits[:, [kept.index(f"N{i}") for i in pairs]]
    shift = (digits[:, [kept.index(f"S{i}") for i in pairs]] - noise) % d
    rows = (shift == shift[:, :1]).all(axis=1).nonzero()[0]
    key = shift[rows, 0] * d + noise[rows].sum(axis=1) % d
    lone = [t for t, lab in enumerate(kept) if int(lab[1:]) not in pairs]
    for t in lone:
        key = key * d + digits[rows, t]
    matrix = np.zeros((side, side), dtype=complex)
    matrix[np.ix_(rows, rows)] = (key[:, None] == key) / d ** (len(pairs) + 1 + len(lone))
    return ReducedState(d=d, labels=kept, matrix=matrix)
