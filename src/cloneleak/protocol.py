"""Register subsets, encoding circuit, and the brute-force reduction oracle.

The full register is [A, S1, N1, S2, N2, ..., Sn, Nn]: the source qudit A,
then n signal/noise pairs, each pair prepared in the generalized Bell state
before encoding.  Axis order is fixed and row-major, so A is axis 0 and pair
i occupies axes (2i-1, 2i); :meth:`RegisterSubset.kept_axes` is where that
layout is read.

Encoding applies (1/d) * sum_{k,l} c_kl (X^k Z^l) on A and every signal
qudit simultaneously, with c_kl the exact phases from
:func:`cloneleak.pauli.enc_coefficient`.  The oracle has two halves that
meet at the register's support.  :func:`encode_support` computes only the
d^(n+2) of the register's d^(2n+1) amplitudes that can be nonzero, with
their flat indices: it groups the d^2 branches by the nonzero pattern of
their pair factor, read from its own pair table, and forms each group's
products over that pattern alone, about d^(n+3) products per state where
a dense contraction costs d^(2n+3).  :func:`reduce_support` traces a
register given as such a list of entries down to a subset, exactly and with
no appeal to any closed form; the analytic module reproduces the reduced
states the other way around, which is what makes the cross-check
meaningful.  It multiplies only amplitudes that share a traced index:
traced indices whose columns hold the same kept rows form one block of the
reduced state, and each block is the Gram of its columns, taken for all
blocks of a shape in one batched complex matmul and added into the state
by one scatter, exactly Hermitian.  It drops the exact zeros itself,
so it learns nothing from the encoder but where the entries sit.
:func:`oracle_reduced` and the sweep hand the encoder's support straight to
the reduction, so no d^(2n+1) register is allocated on the oracle path.
:func:`encode` scatters the support into a dense register, and
:func:`reduce_encoded` scans a dense register for its nonzeros and reduces
them by the same kernel, so it is exact for any vector.

Reduced states keep their qudits in a canonical order: selected signal
qudits ascending by pair index, then selected noise qudits ascending.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .modnum import require_dim, require_int
from .pauli import PauliWord, PureState, enc_coefficient_value, require_state

# Size guards; exceeding one raises CapacityError instead of silently
# allocating gigabytes.  ENCODER_DIM_LIMIT bounds the side of the d^(n+1)
# square encoder, and REDUCED_SIDE_LIMIT the side of a reduced state, d to
# the number of kept qudits: both are allocated.  STATE_AMPLITUDE_LIMIT
# bounds the d^(2n+1) register that encode writes and whose flat indices
# encode_support addresses, though encode_support builds only d^(n+2)
# amplitudes per state, and the d^4 pair table of the encoder tables.
ENCODER_DIM_LIMIT = 4096
STATE_AMPLITUDE_LIMIT = 10_000_000
REDUCED_SIDE_LIMIT = 4096

NONE, SIGNAL, NOISE, BOTH = "none", "signal", "noise", "both"
MEMBERSHIPS = (NONE, SIGNAL, NOISE, BOTH)


class CapacityError(RuntimeError):
    """Requested dense object exceeds the configured size guard.

    ``what`` names the bounded object, ``size`` is what was asked for and
    ``limit`` the guard it exceeds.
    """

    def __init__(self, what: str, size: int, limit: int) -> None:
        super().__init__(what, size, limit)
        self.what, self.size, self.limit = what, size, limit

    def __str__(self) -> str:
        return f"{self.what} = {self.size} exceeds limit {self.limit}"


def require_capacity(what: str, size: int, limit: int) -> None:
    """Raise CapacityError when a dense object of ``size`` would exceed ``limit``."""
    if size > limit:
        raise CapacityError(what, size, limit)


def require_pairs(n: int) -> None:
    """Reject pair counts below 1."""
    require_int(n, "pair count")
    if n < 1:
        raise ValueError(f"need at least one signal/noise pair, got n={n}")


def parse_label(label: str) -> tuple[str, int]:
    """Split a qudit label like 'S1' or 'N12' into (kind, pair index)."""
    lab = label.strip()
    if len(lab) >= 2 and lab[0].upper() in ("S", "N") and lab[1:].isdigit():
        return lab[0].upper(), int(lab[1:])
    raise ValueError(f"bad qudit label {label!r}; expected like S1 or N2")


@dataclass(frozen=True)
class RegisterSubset:
    """Which qudits of each signal/noise pair are selected.

    ``members[i]`` records the choice for pair i+1: none, signal, noise, or
    both.  The subset must select at least one qudit.
    """

    members: tuple[str, ...]

    def __post_init__(self) -> None:
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("subset needs at least one pair slot")
        bad = [m for m in members if m not in MEMBERSHIPS]
        if bad:
            raise ValueError(f"unknown membership values: {bad}")
        if all(m == NONE for m in members):
            raise ValueError("subset must select at least one qudit")

    @classmethod
    def from_labels(cls, labels: str | Iterable[str], n: int) -> "RegisterSubset":
        """Build from labels like 'S1,N2' (string) or an iterable of labels."""
        require_pairs(n)
        if isinstance(labels, str):
            labels = [tok for tok in labels.split(",") if tok.strip()]
        members = [NONE] * n
        for label in labels:
            kind, i = parse_label(label)
            if not 1 <= i <= n:
                raise ValueError(f"pair index {i} outside 1..{n}")
            have = members[i - 1]
            add = SIGNAL if kind == "S" else NOISE
            if have in (NONE, add):
                members[i - 1] = add
            else:
                members[i - 1] = BOTH
        return cls(tuple(members))

    @classmethod
    def aligned(cls, n: int, p: int) -> "RegisterSubset":
        """Canonical aligned subset: signals on pairs 1..p, noises after."""
        require_pairs(n)
        require_int(p, "signal count")
        if not 0 <= p <= n:
            raise ValueError(f"signal count {p} outside 0..{n}")
        return cls(tuple([SIGNAL] * p + [NOISE] * (n - p)))

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def full_pairs(self) -> tuple[int, ...]:
        """Pairs contributing both qudits."""
        return tuple(i for i, m in enumerate(self.members, 1) if m == BOTH)

    @property
    def touches_all_pairs(self) -> bool:
        return NONE not in self.members

    @property
    def is_aligned(self) -> bool:
        """One qudit from every pair."""
        return self.touches_all_pairs and BOTH not in self.members

    @property
    def signal_count(self) -> int:
        """Number of pairs contributing only their signal qudit."""
        return self.members.count(SIGNAL)

    @property
    def size(self) -> int:
        """Number of selected qudits."""
        return len(self._kept())

    def _kept(self) -> list[tuple[str, int]]:
        """(label, register axis) per selected qudit: S_i on 2i-1, N_i on 2i."""
        pairs = list(enumerate(self.members, 1))
        sig = [(f"S{i}", 2 * i - 1) for i, m in pairs if m in (SIGNAL, BOTH)]
        noi = [(f"N{i}", 2 * i) for i, m in pairs if m in (NOISE, BOTH)]
        return sig + noi

    def kept_labels(self) -> tuple[str, ...]:
        """Selected qudits in canonical order: signals ascending, then noises."""
        return tuple(label for label, _ in self._kept())

    def kept_axes(self) -> tuple[int, ...]:
        """Register axis of each selected qudit, in the order of ``kept_labels``."""
        return tuple(axis for _, axis in self._kept())

    def __str__(self) -> str:
        return ",".join(self.kept_labels())


@dataclass(frozen=True)
class ReducedState:
    """Density matrix over kept qudits, labels in canonical order."""

    d: int
    labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        require_dim(self.d)
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        mat = np.asarray(self.matrix, dtype=complex)
        side = self.d ** len(labels)
        if mat.shape != (side, side):
            raise ValueError(
                f"matrix shape {mat.shape} does not match {len(labels)} qudits of dimension {self.d}"
            )
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        """tr(rho^2) as the entrywise sum of rho * rho^T, without a matmul."""
        m = self.matrix
        return float(np.sum(m * m.T).real)

    def check(self, atol: float = 1e-10) -> "ReducedState":
        """Assert hermiticity, unit trace, and positivity; return self."""
        dev = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
        if dev > atol:
            raise ValueError(f"not hermitian: deviation {dev:.3e}")
        tr = complex(np.trace(self.matrix))
        if abs(tr - 1.0) > atol:
            raise ValueError(f"trace is {tr!r}, expected 1")
        lo = float(np.min(np.linalg.eigvalsh(self.matrix)))
        if lo < -atol:
            raise ValueError(f"negative eigenvalue {lo:.3e}")
        return self

    def to_dict(self) -> dict:
        flat = self.matrix.reshape(-1)
        return {
            "d": self.d,
            "labels": list(self.labels),
            "dim": self.dim,
            "matrix": [[float(z.real), float(z.imag)] for z in flat],
        }


def kron_all(factors: Sequence[np.ndarray]) -> np.ndarray:
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


@functools.lru_cache(maxsize=8)
def _encoder_tables(d: int) -> tuple[np.ndarray, ...]:
    """The per-d tables of :func:`encode_support`, built once and read-only.

    Returns ``(words, coeffs, members, cells, factor)``: the d^2 words
    X^k Z^l, row k*d + l, with their coefficients c_kl / d; the branches of
    each group of equal pair-factor pattern; each group's d pattern cells;
    and the pair factor at them, over sqrt(d).  Only ``words`` grows as d^4:
    16 * d^4 bytes, about 157 MB at d = 56, the largest d the d^4 guard
    admits, so the 8 entries the cache holds take at most about 1.3 GB, and
    a few KB each for the dimensions of a typical sweep.
    """
    shifts = np.array([PauliWord(d, a=k).matrix() for k in range(d)])
    clocks = np.array([PauliWord(d, b=l).matrix() for l in range(d)])
    words = (shifts[:, None] @ clocks).reshape(d * d, d, d)  # X^k Z^l on row k*d + l
    coeffs = np.array([enc_coefficient_value(d, k, l) for k in range(d) for l in range(d)]) / d
    # (X^k Z^l (x) I)|Bell> lists the entries of X^k Z^l row by row, over
    # sqrt(d): row k*d + l of this table, scaled where it is gathered
    pairs = words.reshape(d * d, -1)
    groups: dict[bytes, list[int]] = {}
    for branch, pattern in enumerate(pairs != 0):
        groups.setdefault(pattern.tobytes(), []).append(branch)
    members = np.array(list(groups.values()))  # (group, branch)
    # a Pauli word is monomial, so every pattern holds d entries
    cells = np.nonzero(pairs[members[:, 0]])[1].reshape(len(members), -1)  # (group, entry)
    factor = pairs[members[:, :, None], cells[:, None, :]] / np.sqrt(d)
    tables = (words, coeffs, members, cells, factor)
    for table in tables:  # every caller shares them
        table.flags.writeable = False
    return tables


def encode_support(
    psi: PureState | Sequence[PureState], d: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The encoded register's support: its flat indices and their amplitudes.

    The (k, l) branch is c_kl * (X^k Z^l |psi>) (x) ((X^k Z^l (x) I)|Bell>)^{(x)n};
    the branches are summed and divided by d.  Only the register's support
    is computed: the branches are grouped by the nonzero pattern of their
    row in the pair table (for Pauli words, d groups of d branches with d
    entries each), each group's n-fold product runs over its pattern alone,
    and one contraction over the group's branches gives its d^(n+1)
    amplitudes.  That is about d^(n+3) products per state, against
    d^(2n+3) for a dense contraction, and neither the encoder nor the
    d^(2n+1) register is materialized.  The word, coefficient and group
    tables depend on d alone and are built once per d by ``_encoder_tables``.

    Returns ``(index, values)``: the d^(n+2) distinct flat indices of the
    support in the layout of :func:`encode`, in no particular order, and
    the amplitudes at them, one row of d^(n+2) per state for a sequence
    (1-D for a single state).  An amplitude may be an exact zero.  Each
    state's products are matrix products of a fixed shape of its own, so a
    row is bit-identical to encoding its state alone.  Raises TypeError for
    an element that is not a PureState, and CapacityError when the register
    d^(2n+1), whose layout the indices address, or the d^2 x d^2 pair
    table, the larger object at n = 1, exceeds ``STATE_AMPLITUDE_LIMIT``.
    """
    require_dim(d)
    require_pairs(n)
    states = [psi] if isinstance(psi, PureState) else list(psi)
    for state in states:
        require_state(state, d)
    require_capacity("register size d^(2n+1)", d ** (2 * n + 1), STATE_AMPLITUDE_LIMIT)
    require_capacity("encoder pair table d^4", d**4, STATE_AMPLITUDE_LIMIT)
    words, coeffs, members, cells, factor = _encoder_tables(d)
    # n-fold products over each pattern, and their flat offsets past axis A
    tail, offsets = factor, cells
    for _ in range(n - 1):
        tail = (tail[..., None] * factor[:, :, None, :]).reshape(*members.shape, -1)
        offsets = (offsets[:, :, None] * d * d + cells[:, None, :]).reshape(len(cells), -1)
    amps = np.array([state.amplitudes for state in states], dtype=complex).reshape(-1, d, 1)
    heads = coeffs[:, None] * (words.reshape(-1, d) @ amps).reshape(-1, d * d, d)
    values = heads[:, members].swapaxes(2, 3) @ tail  # (state, group, A, pattern product)
    index = (np.arange(d)[:, None] * d ** (2 * n) + offsets[:, None, :]).reshape(-1)
    values = values.reshape(len(states), index.size)
    return index, values[0] if isinstance(psi, PureState) else values


def encode(psi: PureState | Sequence[PureState], d: int, n: int) -> np.ndarray:
    """Encoded register statevector in the fixed global layout.

    The support of :func:`encode_support`, written at its flat indices into
    a zeroed register of d^(2n+1) amplitudes.  A sequence of states gives a
    (len, d^(2n+1)) array, one register per row, each bit-identical to
    encoding its state alone.  Raises what ``encode_support`` raises.
    """
    index, values = encode_support(psi, d, n)
    out = np.zeros(values.shape[:-1] + (d ** (2 * n + 1),), dtype=complex)
    out[..., index] = values
    return out


def _kept_side(d: int, n: int, subset: RegisterSubset) -> int:
    """Check a reduction of an n-pair register onto ``subset``; its kept side."""
    require_dim(d)
    require_pairs(n)
    if subset.n != n:
        raise ValueError(f"subset spans {subset.n} pairs, register has {n}")
    side = d**subset.size
    require_capacity("kept side d^size", side, REDUCED_SIDE_LIMIT)
    return side


def reduce_encoded(
    vec: np.ndarray, d: int, n: int, subset: RegisterSubset
) -> ReducedState | list[ReducedState]:
    """Contract encoded statevectors down to the selected qudits.

    ``vec`` is one register of d^(2n+1) amplitudes, which gives one
    ReducedState, or a (samples, d^(2n+1)) array of registers, which gives a
    list with one state per row.  The batch is scanned for exact zeros once,
    and the union of its rows' supports goes to :func:`reduce_support`,
    which drops each register's own zeros.  The support is read from the
    amplitudes alone, so the route is exact for any vector, dense ones
    included.  Raises CapacityError when the kept side d^size exceeds
    ``REDUCED_SIDE_LIMIT``.
    """
    _kept_side(d, n, subset)
    vecs = np.asarray(vec, dtype=complex)
    amps = d ** (2 * n + 1)
    if vecs.ndim not in (1, 2) or vecs.shape[-1] != amps:
        raise ValueError(f"expected registers of {amps} amplitudes, got shape {vecs.shape}")
    flat = np.flatnonzero(vecs.reshape(-1, amps).any(axis=0))
    return reduce_support(flat, vecs[..., flat], d, n, subset)


def _column_keys(index: np.ndarray, d: int, size: int, kept: Sequence[int]) -> np.ndarray:
    """column * side + row of each flat index into a register of ``size`` qudits.

    The row is the kept digits in the order of ``kept`` and the column the
    traced digits in axis order, so a key is its flat index with the digits
    reordered.  The digits are reordered a chunk at a time, by a table over
    the chunk's values; a chunk has as many digits as keep its table no
    longer than ``index``, so an encoded support takes two lookups per entry
    and one divmod.
    """
    where = [ax for ax in range(size) if ax not in kept] + list(kept)
    place = [0] * size  # what a digit of each axis is worth in the key
    for rank, ax in enumerate(where):
        place[ax] = d ** (size - 1 - rank)
    width = 1
    while width < size and d ** (width + 1) <= len(index):
        width += 1
    keys = np.zeros(len(index), dtype=np.int64)
    rest = index.astype(np.intp, copy=False)
    for stop in range(size, 0, -width):  # the lowest digits first
        start = max(stop - width, 0)
        # each step appends one digit on the right of the table's index
        steps = np.outer(place[start:stop], np.arange(d))
        table = functools.reduce(lambda table, row: np.add.outer(table, row).ravel(), steps)
        if start:
            rest, digits = np.divmod(rest, d ** (stop - start))
        else:
            digits = rest
        keys += table[digits]
    return keys


def _runs(changes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal items among len(changes) + 1.

    ``changes[i]`` says whether item i + 1 differs from item i.
    """
    bounds = np.concatenate(([0], changes.nonzero()[0] + 1, [len(changes) + 1]))
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _gram_plan(keys: np.ndarray, side: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group a support's traced columns into blocks of equal row-sets.

    ``keys`` are column * side + row of the entries, ascending.  Columns
    holding the same rows share one c x c block of the Gram; the blocks of
    one shape, c rows over K columns, come as ``(rowsets, entries)``: the
    (groups, c) rows of each block and the (groups, K, c) positions in
    ``keys`` of the entries summed into it.
    """
    if not len(keys):
        return []
    cols, rows = np.divmod(keys, side)
    rows = rows.astype(np.min_scalar_type(side - 1))  # small rows sort by radix
    starts, counts = _runs(cols[1:] != cols[:-1])  # each column's entries
    plan = []
    for c in np.bincount(counts).nonzero()[0]:
        entries = starts[counts == c][:, None] + np.arange(c)  # (columns, c)
        tuples = rows[entries]
        order = np.lexsort(tuples.T[::-1])  # equal row tuples become adjacent
        ranked = tuples[order]
        heads, sizes = _runs((ranked[1:] != ranked[:-1]).any(axis=1))
        for k in np.bincount(sizes).nonzero()[0]:
            first = heads[sizes == k]
            members = order[first[:, None] + np.arange(k)]  # (groups, K) columns
            plan.append((ranked[first], entries[members]))
    return plan


def reduce_support(
    index: np.ndarray, values: np.ndarray, d: int, n: int, subset: RegisterSubset
) -> ReducedState | list[ReducedState]:
    """Contract registers given by their support down to the selected qudits.

    ``index`` lists distinct flat indices into a register of d^(2n+1)
    amplitudes, and ``values`` holds the amplitudes there: one row, which
    gives one ReducedState, or a (samples, len(index)) array, which gives a
    list with one state per row.  Every amplitude off ``index`` is zero.
    The source qudit and every unselected qudit are traced out exactly,
    without forming a density matrix.  Each entry's flat index splits into
    a kept row and a traced column t, and rho = sum_t m_t m_t^H sums one
    outer product per column over that column's nonzero rows.

    The plan is read from where a register's entries are nonzero, once per
    distinct pattern in the batch: the entries are sorted by column, then
    by row, and the columns holding the same tuple of rows form a group,
    whose c x c block of rho is the Gram of its K columns.  The groups of
    one (c, K) shape are gathered into one complex (registers, groups, K, c)
    array W, the slices of the factor m, and one batched complex matmul
    gives every block, W^T conj(W).  Its Hermitian part is taken in place,
    real part plus its transpose and imaginary part minus its transpose,
    halved, and one scatter adds the blocks into rho at their rows.  An
    aligned subset of an encoded register has one shape, c = d, with
    disjoint row-sets; a dense register is one group, a dense Gram; an
    irregular vector has many groups, whose overlapping blocks add up.
    Every block is exactly Hermitian, since a + b = b + a and
    a - b = -(b - a) in floating point and numpy reads an operand that
    overlaps its output as if it had been copied, and entries (i, j) and
    (j, i) of rho receive their adds in the same order, so rho is exactly
    Hermitian.  A register's blocks depend only on its own nonzero entries,
    so a batch row is bit-identical to a call of its own and to reducing
    the dense register, whatever exact zeros or other indices ``index``
    carries.  Beside its output the call holds O(samples x len(index))
    sort and plan arrays, W and its conjugate, and per block shape the
    blocks and their target indices: samples x sum_g c_g^2 numbers: at most
    side^2 per register when the row-sets are disjoint, and at most
    sum_t c_t^2, one per product of two entries of a column, when they
    overlap.  Raises CapacityError when the kept side d^size exceeds
    ``REDUCED_SIDE_LIMIT``.
    """
    side = _kept_side(d, n, subset)
    size = 2 * n + 1
    index = np.asarray(index)
    batch = np.asarray(values, dtype=complex)
    if index.ndim != 1 or not np.issubdtype(index.dtype, np.integer):
        raise ValueError(f"expected a 1-D array of flat indices, got {index.dtype} {index.shape}")
    if batch.ndim not in (1, 2) or batch.shape[-1] != len(index):
        raise ValueError(f"expected amplitudes at {len(index)} indices, got shape {batch.shape}")
    if len(index) and not 0 <= index.min() <= index.max() < d**size:
        raise ValueError(f"flat indices must lie in 0..{d**size - 1}")
    keys = _column_keys(index, d, size, subset.kept_axes())
    order = keys.argsort(kind="stable")  # by column, then by row
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any():
        raise ValueError("flat indices must be distinct")
    single = batch.ndim == 1
    batch = np.atleast_2d(batch)
    nonzero = (batch != 0)[:, order]
    patterns: dict[bytes, list[int]] = {}
    for reg, bits in enumerate(np.packbits(nonzero, axis=1)):
        patterns.setdefault(bits.tobytes(), []).append(reg)
    out = np.zeros((len(batch), side, side), dtype=complex)
    flat = out.reshape(-1)
    for regs in patterns.values():
        mine = nonzero[regs[0]].nonzero()[0]
        source = batch if len(patterns) == 1 else batch[regs]
        at = order[mine]
        lead = np.array(regs)[:, None, None, None] * side
        for rowsets, entries in _gram_plan(keys[mine], side):
            w = source.take(at[entries], axis=1)  # (registers, groups, K, c)
            gram = w.swapaxes(-1, -2) @ w.conj()
            re, im = gram.real, gram.imag  # numpy copies an overlapping operand
            re += re.swapaxes(-1, -2)
            im -= im.swapaxes(-1, -2)
            gram *= 0.5
            target = ((lead + rowsets[:, :, None]) * side + rowsets[:, None, :]).ravel()
            np.add.at(flat, target, gram.ravel())
    labels = subset.kept_labels()
    reduced = [ReducedState(d=d, labels=labels, matrix=m) for m in out]
    return reduced[0] if single else reduced


def oracle_reduced(psi: PureState, d: int, n: int, subset: RegisterSubset) -> ReducedState:
    """Encode psi and contract: the ground-truth reduced state of a subset.

    The encoder's support goes straight to :func:`reduce_support`, so no
    d^(2n+1) register is allocated, filled or scanned.
    """
    return reduce_support(*encode_support(psi, d, n), d, n, subset)


def partial_trace(matrix: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace a multi-factor density matrix down to the factors in ``keep``.

    ``dims`` lists the factor dimensions; kept factors appear in the order
    given by ``keep``.
    """
    dims = tuple(int(x) for x in dims)
    m = len(dims)
    keep = [int(k) for k in keep]
    if sorted(set(keep)) != sorted(keep) or any(not 0 <= k < m for k in keep):
        raise ValueError(f"keep list {keep} invalid for {m} factors")
    total = math.prod(dims)
    matrix = np.asarray(matrix)
    if matrix.shape != (total, total):
        raise ValueError(f"matrix shape {matrix.shape} does not match dims {dims}")
    traced = [i for i in range(m) if i not in keep]
    d_keep = math.prod(dims[i] for i in keep) if keep else 1
    d_out = math.prod(dims[i] for i in traced) if traced else 1
    perm = keep + traced
    tensor = matrix.reshape(dims + dims)
    tensor = np.transpose(tensor, perm + [ax + m for ax in perm])
    tensor = tensor.reshape(d_keep, d_out, d_keep, d_out)
    return np.einsum("itjt->ij", tensor)


def permute_subsystems(matrix: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder the tensor factors of a square multi-factor matrix.

    ``perm[j]`` is the current position of the factor that ends up at
    position j.
    """
    dims = tuple(int(x) for x in dims)
    m = len(dims)
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(m)):
        raise ValueError(f"{perm} is not a permutation of 0..{m - 1}")
    tensor = np.asarray(matrix).reshape(dims + dims)
    axes = perm + [p + m for p in perm]
    side = math.prod(dims[p] for p in perm)
    return np.transpose(tensor, axes).reshape(side, side)
