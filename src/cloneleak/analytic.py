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

What depends only on the shape is built once and kept, apart from the
oracle's store: the digit table per (d, kept count), and one entry per
aligned (d, p, q) with its orbits, digit sums, leak terms and 2d roots of
unity.  None holds a word matrix, a phase table or any value of a state,
so an aligned request pays for its word images, its expectations and the
entries they write; one with no leak term writes only its diagonal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .modnum import CongruenceSolutionSet, delta, require_dim, require_int, solve_aligned_system
from .pauli import PauliWord, PureState, require_states
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


@functools.lru_cache(maxsize=128)
def _aligned_shape(
    d: int, p: int, q: int
) -> tuple[np.ndarray, np.ndarray, tuple[LeakTerm, ...], np.ndarray]:
    """What an aligned state, p signals then q noises, owes to its shape alone.

    Every term moves a digit c_i by a multiple of s_i, +1 on a signal and
    -1 on a noise, so the state is zero outside the orbits {c + t*s : t in
    Z_d} of the columns.  Each orbit is listed from its column with first
    digit 0, one of the first d^(n-1) indices, so member t has first digit
    t*s_1 and the orbits partition the side.  Returns the (d^(n-1), d) rows
    of the orbits, each member's digit sum, ``leaked_words`` of the
    congruence solutions and the powers exp(i*pi*r/d) for r in 0..2d-1, the
    arrays read-only.  Cached per (d, p, q) like ``_digits``, with room for
    well over the 45 keys of the aligned grid d 2..6 x n 1..3, which a sweep
    visits in turn, so no pass evicts what the next one needs.  An entry
    holds no word matrix or phase table: at most 64 KB of orbits at side
    4096, and d - 1 terms and 2d roots, a few KB at d = 56.
    """
    n = p + q
    digits = _digits(d, n)
    sign = np.array([1] * p + [-1] * q)
    bases = digits[: len(digits) // d]
    rowsets = (bases[:, None, :] + np.arange(d)[:, None] * sign) % d @ d ** np.arange(n - 1, -1, -1)
    digit_sum = digits.sum(axis=1)[rowsets]
    roots = np.exp(1j * np.pi * np.arange(2 * d) / d)
    for table in (rowsets, digit_sum, roots):
        table.flags.writeable = False
    return rowsets, digit_sum, leaked_words(solve_aligned_system(d, p, q)), roots


def _aligned_blocks(
    d: int, subset: RegisterSubset, psi: PureState | Sequence[PureState]
) -> tuple[np.ndarray, np.ndarray]:
    """The aligned closed form as its blocks: ``(rowsets, blocks)``.

    The blocks are the orbits of ``_aligned_shape``, whose (side/d, d) rows
    are ``rowsets``.  Term (a, b) writes, for each column, the entry whose
    row is a members further along the column's orbit, and the diagonal
    holds the background 1/d^n.  Each block is then replaced by its Hermitian
    part, so the state is exactly Hermitian; with no term, the real diagonal
    already is.  The orbits, terms and roots come from one ``_aligned_shape``
    lookup per (d, p, q).  The (states, side/d, d, d) blocks are what
    :func:`aligned_reduced`'s states hold.
    """
    if not subset.is_aligned:
        raise ValueError(f"subset {subset} is not aligned")
    n, p = subset.n, subset.signal_count
    require_dim(d)  # before the caches: 2.0 would find 2's entries
    states = require_states(psi, d)
    rowsets, digit_sum, terms, roots = _aligned_shape(d, p, n - p)
    side = rowsets.size
    members = np.arange(d)
    blocks = np.zeros((len(states), len(rowsets), d, d), dtype=complex)
    blocks[:, :, members, members] = 1 / side
    if not terms:
        return rowsets, blocks
    for term in terms:
        word = term.signal_word().matrix()  # built once; <psi|word|psi> as pauli.expectation
        values = roots[(term.phase_exponent + 2 * term.b * digit_sum) % (2 * d)]
        scale = np.array([np.vdot(psi.amplitudes, word @ psi.amplitudes) for psi in states]) / side
        blocks[:, :, (members + term.a) % d, members] += scale[:, None, None] * values
    # entries (r, c) and (c, r) come from the expectations of two different
    # words, equal only up to rounding: keep the Hermitian part, so that
    # each block is exactly Hermitian (numpy copies an overlapping operand)
    re, im = blocks.real, blocks.imag
    re += re.swapaxes(-1, -2)
    im -= im.swapaxes(-1, -2)
    blocks *= 0.5
    return rowsets, blocks


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
    Kronecker product.  ``_aligned_blocks`` writes them into the orbits
    {c + t*s}, blocks of side d, and the state holds those side*d entries at
    their rows, no dense matrix.  A sequence of states gives a list with one
    state per input, each bit-identical to the one its input gives alone.
    Raises CapacityError when the kept side d^size exceeds
    ``REDUCED_SIDE_LIMIT``.
    """
    rowsets, blocks = _aligned_blocks(d, subset, psi)
    labels = subset.kept_labels()
    reduced = [ReducedState(d, labels, parts=[(rowsets, mine)]) for mine in blocks]
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
    entries are exact.  The state is one constant block per class of equal
    key (I/d^size as 1 x 1 blocks for m = 0), with no dense matrix.  Raises
    CapacityError when the kept side d^size exceeds ``REDUCED_SIDE_LIMIT``.
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
    rowsets, value = np.arange(side)[:, None], 1 / side  # m = 0: I/d^size
    if pairs:
        noise = digits[:, [kept.index(f"N{i}") for i in pairs]]
        shift = (digits[:, [kept.index(f"S{i}") for i in pairs]] - noise) % d
        rows = (shift == shift[:, :1]).all(axis=1).nonzero()[0]
        key = shift[rows, 0] * d + noise[rows].sum(axis=1) % d
        lone = [t for t, lab in enumerate(kept) if int(lab[1:]) not in pairs]
        for t in lone:
            key = key * d + digits[rows, t]
        # each class of equal key holds d^(m-1) rows, one per noise tuple of its sum
        rowsets = rows[key.argsort(kind="stable")].reshape(-1, d ** (len(pairs) - 1))
        value = 1 / d ** (len(pairs) + 1 + len(lone))
    blocks = np.full((*rowsets.shape, rowsets.shape[1]), value, dtype=complex)
    return ReducedState(d, kept, parts=[(rowsets, blocks)])
