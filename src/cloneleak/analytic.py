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
is 0 or 1/d^(m+1+lone).

Both closed forms write their entries from an index rule on the digits of
the kept side, one digit per kept qudit, with no matrix or Kronecker
product: an aligned term (a, b) shifts each digit by +a on a signal and -a
on a noise, with a phase that is a power of zeta = exp(i*pi/d) (see
aligned_reduced), and a missing-pair entry compares shifts, noise sums and
lone digits (see missing_pair_subset_reduced).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .modnum import CongruenceSolutionSet, delta, require_dim, require_int, solve_aligned_system
from .pauli import PauliWord, PureState, expectation, require_state
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

    def signal_word(self) -> PauliWord:
        """Factor applied to each kept signal qudit."""
        return PauliWord(self.d, a=self.a, b=self.b)

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


@functools.lru_cache(maxsize=32)
def _digits(d: int, count: int) -> np.ndarray:
    """Each index of a d^count side as one digit per kept qudit, read-only.

    Row r holds r's base-d digits, the first kept qudit's most significant.
    Cached per (d, count), so every caller shares the table; the largest,
    d = 2 at side 4096, takes 0.4 MB.  Raises CapacityError when the kept
    side d^size exceeds ``REDUCED_SIDE_LIMIT``.
    """
    side = d**count
    require_capacity("kept side d^size", side, REDUCED_SIDE_LIMIT)
    digits = np.arange(side)[:, None] // d ** np.arange(count - 1, -1, -1) % d
    digits.flags.writeable = False
    return digits


def aligned_reduced(
    d: int, subset: RegisterSubset, psi: PureState | Sequence[PureState]
) -> ReducedState | list[ReducedState]:
    """Closed-form reduced state of an aligned subset, canonical qudit order.

    The maximally mixed background I/d^n plus one tensor-product term per
    leaked word: X^a Z^b on each kept signal, X^(-a) Z^b on each kept noise.
    Read a column c as one digit c_i per kept qudit and let s_i be +1 on a
    signal and -1 on a noise.  The term sends c to the row with digits
    c_i + a*s_i (mod d), with value <psi|X^a Z^b|psi>/d^n times the 2d-th
    root of unity exp(i*pi*(phase_exponent + 2*b*sum_i c_i)/d), so it is
    written entry by entry, d^n entries per term, with no matrix or
    Kronecker product.  A sequence of states gives a list with one state
    per input, each bit-identical to the one its input gives alone.  Raises
    CapacityError when the kept side d^size exceeds ``REDUCED_SIDE_LIMIT``.
    """
    if not subset.is_aligned:
        raise ValueError(f"subset {subset} is not aligned")
    n, p = subset.n, subset.signal_count
    sols = solve_aligned_system(d, p, n - p)
    states = [psi] if isinstance(psi, PureState) else list(psi)
    for state in states:
        require_state(state, d)
    digits = _digits(d, n)
    side = len(digits)
    sign = np.array([1] * p + [-1] * (n - p))
    place = d ** np.arange(n - 1, -1, -1)
    roots = np.exp(1j * np.pi * np.arange(2 * d) / d)
    cols = np.arange(side)
    digit_sum = digits.sum(axis=1)
    acc = np.zeros((len(states), side, side), dtype=complex)
    acc[:, cols, cols] = 1 / side
    for term in leaked_words(sols):
        sig = term.signal_word()
        rows = (digits + term.a * sign) % d @ place
        values = roots[(term.phase_exponent + 2 * term.b * digit_sum) % (2 * d)]
        scale = np.array([expectation(state, sig) for state in states]) / side
        acc[:, rows, cols] += scale[:, None] * values
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
    require_int(missing, "missing pair")
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
    digits = _digits(d, len(kept))
    side = len(digits)
    pairs = subset.full_pairs
    if not pairs:
        return ReducedState(d=d, labels=kept, matrix=np.eye(side, dtype=complex) / side)
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
