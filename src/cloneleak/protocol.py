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
meaningful.  Traced indices whose columns hold the same kept rows form one
block, the Gram of those columns, taken for all blocks of a shape in one
batched complex matmul, exactly Hermitian.  A reduced state holds those
blocks at their rows, and a sweep row compares them directly.
:func:`oracle_reduced` and the sweep hand the encoder's support straight to
the reduction, so no d^(2n+1) register is allocated on the oracle path.

Everything that depends only on the shape is built once and kept: the
encoder's words, pattern groups, n-fold pattern products and flat indices
per (d, n), and the Gram plan of the encoder's support per (d, n, kept
axes), which row-sets each block has and where its entries sit in the
support.  Both share the byte bound ``ORACLE_CACHE_BYTES``, fill on first
use and hold no value of any state.  A :class:`RegisterSubset` computes
its kept labels and axes once per instance, and :func:`oracle_reduced`
hands the encoder's kept index to the kernel uncopied, which knows it by
identity instead of comparing it entry by entry.  A request pays only for
its own amplitudes: the word images of its state and their contraction in
the encoder, and in the reduction the gather, the batched Gram product and
its Hermitian part.  The registers of a call that hold no exact zero share
one plan; a support other than the encoder's is planned afresh for them,
and a register with an exact zero (a basis state's) is planned alone, over
its own nonzeros, all by the same code that builds the kept plans.
:func:`encode` scatters the support into a dense register, and
:func:`reduce_encoded` scans a dense register for its nonzeros and reduces
them by the same kernel, so it is exact for any vector.

Reduced states keep their qudits in a canonical order: selected signal
qudits ascending by pair index, then selected noise qudits ascending.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .modnum import require_dim, require_int
from .pauli import PauliWord, PureState, enc_coefficient_value, require_states

# Size guards; exceeding one raises CapacityError instead of silently
# allocating gigabytes.  REDUCED_SIDE_LIMIT bounds the side of a reduced
# state, d to the number of kept qudits.  STATE_AMPLITUDE_LIMIT bounds the
# d^(2n+1) register that encode writes and whose flat indices
# encode_support addresses, though encode_support builds only d^(n+2)
# amplitudes per state, and the d^4 pair table of the support tables.
STATE_AMPLITUDE_LIMIT = 10_000_000
REDUCED_SIDE_LIMIT = 4096
# ORACLE_CACHE_BYTES bounds every array that the oracle keeps between calls,
# its support tables of each (d, n) and its plans of each (d, n, kept axes)
# together: room for the largest n >= 2 support table the register guard
# admits (15.6 MB at (25, 2), words included) and one plan of it (2.3 MB).
ORACLE_CACHE_BYTES = 18_000_000

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
        return len(self._layout[0])

    @functools.cached_property
    def _layout(self) -> tuple[tuple[str, ...], tuple[int, ...]]:
        """(labels, register axes) of the selected qudits: S_i on 2i-1, N_i on 2i.

        Kept in the instance's ``__dict__``, which no comparison, hash or
        ``dataclasses.replace`` reads.
        """
        pairs = list(enumerate(self.members, 1))
        sig = [(f"S{i}", 2 * i - 1) for i, m in pairs if m in (SIGNAL, BOTH)]
        noi = [(f"N{i}", 2 * i) for i, m in pairs if m in (NOISE, BOTH)]
        labels, axes = zip(*sig, *noi)
        return labels, axes

    def kept_labels(self) -> tuple[str, ...]:
        """Selected qudits in canonical order: signals ascending, then noises."""
        return self._layout[0]

    def kept_axes(self) -> tuple[int, ...]:
        """Register axis of each selected qudit, in the order of ``kept_labels``."""
        return self._layout[1]

    def __str__(self) -> str:
        return ",".join(self.kept_labels())


@dataclass(frozen=True, eq=False, init=False)
class ReducedState:
    """Density matrix over kept qudits, labels in canonical order, held as its blocks.

    ``parts`` holds read-only ``(rowsets, blocks)`` pairs: (G, c) integer
    kept rows and the (G, c, c) blocks added in at them.  The reductions
    pass their blocks as ``parts=``, taken over without a copy, and form no
    side^2 array; ``ReducedState(d, labels, matrix)`` keeps a private copy
    of a dense matrix as one part over every row.  ``.matrix`` adds the
    parts onto zeros in part order with ``np.add.at`` and returns a fresh
    read-only array on each access, keeping none, so a caller that needs it
    twice holds it.  States compare and hash by identity.
    """

    d: int
    labels: tuple[str, ...]
    parts: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __init__(self, d: int, labels: Sequence[str], matrix: np.ndarray | None = None, *,
                 parts: Sequence[tuple[np.ndarray, np.ndarray]] | None = None) -> None:
        require_dim(d)
        labels = tuple(labels)
        side = d ** len(labels)
        if parts is None:
            mat = np.array(matrix, dtype=complex)  # a copy: the caller's array stays its own
            if mat.shape != (side, side):
                raise ValueError(f"matrix {mat.shape} does not fit {len(labels)} qudits of d={d}")
            parts = [(np.arange(side)[None], mat[None])]
        held = []
        for rows, blocks in parts:
            rows, blocks = np.asarray(rows).view(), np.asarray(blocks, dtype=complex).view()
            if rows.dtype.kind not in "iu":
                raise ValueError(f"block rows must be integers, got {rows.dtype}")
            fits = rows.ndim == 2 and blocks.shape == (*rows.shape, rows.shape[1])
            if not fits or rows.size and not 0 <= rows.min() <= rows.max() < side:
                raise ValueError(f"blocks {blocks.shape} at rows {rows.shape} misfit side {side}")
            rows.flags.writeable = blocks.flags.writeable = False
            held.append((rows, blocks))
        for name, value in (("d", d), ("labels", labels), ("parts", tuple(held))):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.d ** len(self.labels)

    @property
    def matrix(self) -> np.ndarray:
        """The dense state, the parts added onto zeros afresh on each access."""
        side = self.dim
        out = np.zeros((side, side), dtype=complex)
        for rows, blocks in self.parts:
            rows = rows.astype(np.intp)  # a small row type would overflow rows * side
            target = rows[:, :, None] * side + rows[:, None, :]
            np.add.at(out.reshape(-1), target.ravel(), blocks.ravel())
        out.flags.writeable = False
        return out

    def purity(self) -> float:
        """tr(rho^2) as the entrywise sum of rho * rho^T, without a matmul."""
        m = self.matrix
        return float(np.sum(m * m.T).real)

    def check(self, atol: float = 1e-10) -> "ReducedState":
        """Assert hermiticity, unit trace, and positivity; return self."""
        m = self.matrix
        dev = float(np.max(np.abs(m - m.conj().T)))
        if dev > atol:
            raise ValueError(f"not hermitian: deviation {dev:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > atol:
            raise ValueError(f"trace is {tr!r}, expected 1")
        lo = float(np.min(np.linalg.eigvalsh(m)))
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


class _ByteCache:
    """Read-only arrays kept between calls under a byte bound, least recent evicted.

    A value is a tuple of arrays and of tuples of arrays.  Its arrays'
    ``nbytes`` count against ``limit``, and they are made read-only; a value
    that alone exceeds ``limit`` is not kept.  Entries fill on first use.
    """

    def __init__(self, limit: int) -> None:
        self.limit, self.held = limit, 0
        self.entries: OrderedDict = OrderedDict()  # key -> (nbytes, value)
        self.lock = threading.Lock()

    def get(self, key):
        """The value kept under ``key``, now the most recent, or None."""
        with self.lock:
            hit = self.entries.get(key)
            if hit is None:
                return None
            self.entries.move_to_end(key)
            return hit[1]

    def put(self, key, value: tuple) -> None:
        """Keep ``value``, evicting the least recent entries until it fits."""
        arrays = [a for item in value for a in (item if isinstance(item, tuple) else (item,))]
        for array in arrays:  # every later caller shares them
            array.flags.writeable = False
        size = sum(array.nbytes for array in arrays)
        with self.lock:
            if size > self.limit or key in self.entries:
                return
            while self.held + size > self.limit:
                _, (freed, _) = self.entries.popitem(last=False)
                self.held -= freed
            self.entries[key] = (size, value)
            self.held += size

    def clear(self) -> None:
        with self.lock:
            self.entries.clear()
            self.held = 0


_TABLES = _ByteCache(ORACLE_CACHE_BYTES)


def _support_tables(d: int, n: int) -> tuple[np.ndarray, ...]:
    """The per-(d, n) tables of :func:`encode_support`, built once and read-only.

    Returns ``(words, coeffs, members, tail, index)``: the d^2 words
    X^k Z^l, row k*d + l, with their coefficients c_kl / d; the branches of
    each group of equal pair-factor pattern; the n-fold products of each
    group's pair factor over its pattern, (group, branch, d^n); and the flat
    index of every support amplitude, d^(n+2) of them.  They take
    16 * d^4 + 24 * d^(n+2) bytes and a few KB, 15.6 MB at (25, 2), the
    largest n >= 2 support the register guard admits; at n = 1 the words
    outgrow ``ORACLE_CACHE_BYTES`` from d = 33 up, and such tables are built
    afresh on each call.  Kept in ``_TABLES``: ``_reduce_blocks`` knows this
    index by identity when ``oracle_reduced`` passes it on and compares any
    other support's index with it, and ``encode_support`` hands out a copy.
    """
    key = ("support", d, n)
    tables = _TABLES.get(key)
    if tables is None:
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
        # n-fold products over each pattern, and their flat offsets past axis A
        tail, offsets = factor, cells
        for _ in range(n - 1):
            tail = (tail[..., None] * factor[:, :, None, :]).reshape(*members.shape, -1)
            offsets = (offsets[:, :, None] * d * d + cells[:, None, :]).reshape(len(cells), -1)
        index = (np.arange(d)[:, None] * d ** (2 * n) + offsets[:, None, :]).reshape(-1)
        tables = (words, coeffs, members, tail, index)
        _TABLES.put(key, tables)
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
    d^(2n+1) register is materialized.  Nothing here depends on a state but
    the d^2 word images of each state and that contraction: the word,
    coefficient and group tables, the n-fold pattern products and the flat
    indices are built once per (d, n) by ``_support_tables``.

    Returns ``(index, values)``: the d^(n+2) distinct flat indices of the
    support in the layout of :func:`encode`, in no particular order, and
    the amplitudes at them, one row of d^(n+2) per state for a sequence
    (1-D for a single state).  Both arrays are the caller's own.  An
    amplitude may be an exact zero.  Each state's products are matrix
    products of a fixed shape of its own, so a row is bit-identical to
    encoding its state alone.  Raises TypeError for anything but a
    PureState or a Sequence of them, and CapacityError when the register
    d^(2n+1), whose layout the indices address, or the d^2 x d^2 pair
    table, the larger object at n = 1, exceeds ``STATE_AMPLITUDE_LIMIT``.
    """
    index, values = _encoded_support(psi, d, n)
    return index.copy(), values


def _encoded_support(
    psi: PureState | Sequence[PureState], d: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`encode_support` with its index not copied: ``_support_tables``' own.

    That index is read-only when ``_TABLES`` keeps it, and ``_reduce_blocks``
    then knows it by identity.
    """
    require_dim(d)
    require_pairs(n)
    states = require_states(psi, d)
    require_capacity("register size d^(2n+1)", d ** (2 * n + 1), STATE_AMPLITUDE_LIMIT)
    require_capacity("encoder pair table d^4", d**4, STATE_AMPLITUDE_LIMIT)
    words, coeffs, members, tail, index = _support_tables(d, n)
    amps = np.array([state.amplitudes for state in states], dtype=complex).reshape(-1, d, 1)
    heads = coeffs[:, None] * (words.reshape(-1, d) @ amps).reshape(-1, d * d, d)
    values = heads[:, members].swapaxes(2, 3) @ tail  # (state, group, A, pattern product)
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
    which reduces a register holding an exact zero there alone, over its
    own nonzeros.  The support is read from the amplitudes alone, so the
    route is exact for any vector, dense ones included.  Raises
    CapacityError when the kept side d^size exceeds ``REDUCED_SIDE_LIMIT``.
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


def _support_plan(
    index: np.ndarray, d: int, n: int, subset: RegisterSubset
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Plan the Gram blocks of a support whose every entry is nonzero.

    ``index`` lists distinct flat indices in range, which the caller has
    checked.  Returns one ``(rowsets, gather)`` step per block shape: the
    (groups, c) kept rows of each block and the (groups, K, c) positions in
    ``index`` of the entries summed into it, in the smallest unsigned type
    that holds them.
    """
    keys = _column_keys(index, d, 2 * n + 1, subset.kept_axes())
    order = keys.argsort(kind="stable")  # by column, then by row
    keys = keys[order]
    order = order.astype(np.min_scalar_type(max(len(index) - 1, 0)))
    return tuple((rowsets, order[entries]) for rowsets, entries in _gram_plan(keys, d**subset.size))


def _encoded_plan(
    index: np.ndarray, d: int, n: int, subset: RegisterSubset
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``_support_plan`` of the encoder's support, built once per (d, n, kept axes).

    ``index`` is ``_support_tables(d, n)``'s.  The plan is held in
    ``_TABLES`` under (d, n, ``subset.kept_axes()``).  It holds one gather
    position (at most 4 bytes) and at most one row (2 bytes, rows lying
    below ``REDUCED_SIDE_LIMIT``) per support entry, so it takes at most
    6 * d^(n+2) bytes, 2.3 MB at (25, 2).
    """
    key = ("plan", d, n, subset.kept_axes())
    steps = _TABLES.get(key)
    if steps is None:
        steps = _support_plan(index, d, n, subset)
        _TABLES.put(key, steps)
    return steps


def _reduce_blocks(
    index: np.ndarray, values: np.ndarray, d: int, n: int, subset: RegisterSubset
) -> list[tuple[list[int], np.ndarray, np.ndarray]]:
    """The Gram-block kernel of :func:`reduce_support`: each register's blocks.

    Takes what ``reduce_support`` takes and returns ``(registers, rowsets,
    blocks)`` parts: the batch rows that share a plan, the (groups, c) kept
    rows of each block, ascending within a block, and the exactly Hermitian
    (len(registers), groups, c, c) blocks.  A register's state is the sum
    of its parts' blocks added in at their rows, which is all that
    :func:`reduce_support` does with them.  The whole index is checked
    first, range and then distinctness, unless it is the encoder's own for
    (d, n): the kept array itself, or one equal to it.  The registers with
    no exact zero share one plan, ``_encoded_plan``'s when ``index`` is the
    encoder's and one planned afresh otherwise; a register holding an exact
    zero is planned alone, over its own nonzero entries.
    """
    _kept_side(d, n, subset)
    index = np.asarray(index)
    batch = np.asarray(values, dtype=complex)
    if index.ndim != 1 or index.dtype.kind not in "iu":
        raise ValueError(f"expected a 1-D array of flat indices, got {index.dtype} {index.shape}")
    if batch.ndim not in (1, 2) or batch.shape[-1] != len(index):
        raise ValueError(f"expected amplitudes at {len(index)} indices, got shape {batch.shape}")
    batch = np.atleast_2d(batch)
    tables = _TABLES.get(("support", d, n))
    encoded = tables is not None and (index is tables[-1] or np.array_equal(index, tables[-1]))
    if not encoded and len(index):
        ordered = np.sort(index)
        if not 0 <= ordered[0] <= ordered[-1] < d ** (2 * n + 1):
            raise ValueError(f"flat indices must lie in 0..{d ** (2 * n + 1) - 1}")
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("flat indices must be distinct")
    full = batch.all(axis=1)
    plans = []
    if full.any():
        steps = (_encoded_plan if encoded else _support_plan)(index, d, n, subset)
        plans.append((full.nonzero()[0].tolist(), batch if full.all() else batch[full], steps))
    for reg in (~full).nonzero()[0]:
        mine = batch[reg].nonzero()[0]
        steps = _support_plan(index[mine], d, n, subset)
        plans.append(([int(reg)], batch[reg, mine][None], steps))
    parts = []
    for regs, source, steps in plans:
        for rowsets, gather in steps:
            w = source.take(gather, axis=1)  # (registers, groups, K, c)
            gram = w.swapaxes(-1, -2) @ w.conj()
            re, im = gram.real, gram.imag  # numpy copies an overlapping operand
            re += re.swapaxes(-1, -2)
            im -= im.swapaxes(-1, -2)
            gram *= 0.5
            parts.append((regs, rowsets, gram))
    return parts


def reduce_support(
    index: np.ndarray, values: np.ndarray, d: int, n: int, subset: RegisterSubset
) -> ReducedState | list[ReducedState]:
    """Contract registers given by their support down to the selected qudits.

    ``index`` lists distinct flat indices into a register of d^(2n+1)
    amplitudes, and ``values`` holds the amplitudes there: one row, which
    gives one ReducedState, or a (samples, len(index)) array, which gives a
    list with one state per row.  Every amplitude off ``index`` is zero.
    The source qudit and every unselected qudit are traced out exactly,
    without forming a density matrix: rho = sum_t m_t m_t^H over the traced
    columns t.  The kernel, ``_reduce_blocks``, groups the columns that hold
    the same tuple of nonzero rows.  The registers with no zero amplitude
    share one plan of ``index`` and the subset, built once per (d, n,
    subset) and kept for the encoder's own support, so a call pays only for
    the gather and the products below; a register with an exact zero is
    planned alone, over its own nonzero entries.  A group's c x c block of
    rho is the Gram of its K columns, W^T conj(W) for every group of one
    (c, K) shape in one batched matmul, with its Hermitian part taken in
    place, so each block and ``.matrix`` are exactly Hermitian.  Each state holds its register's blocks at their rows and no
    dense matrix: one shape with disjoint row-sets on an aligned (c = d) or
    authorized subset of an encoded register, one dense Gram on a dense
    register, and overlapping groups on an irregular vector, which add up in
    ``.matrix``.  A register's blocks depend only on its own nonzero
    entries, so a batch row is bit-identical to a call of its own and to
    reducing the dense register.  Raises CapacityError when the kept side
    d^size exceeds ``REDUCED_SIDE_LIMIT``.
    """
    parts = _reduce_blocks(index, values, d, n, subset)
    single = np.ndim(values) == 1
    own: list[list] = [[] for _ in range(1 if single else len(values))]
    for regs, rowsets, gram in parts:
        for reg, blocks in zip(regs, gram):
            own[reg].append((rowsets, blocks))
    reduced = [ReducedState(d, subset.kept_labels(), parts=mine) for mine in own]
    return reduced[0] if single else reduced


def oracle_reduced(psi: PureState, d: int, n: int, subset: RegisterSubset) -> ReducedState:
    """Encode psi and contract: the ground-truth reduced state of a subset.

    The encoder's support goes straight to :func:`reduce_support`, so no
    d^(2n+1) register is allocated, filled or scanned, and its index goes
    uncopied, so the kernel knows it for the encoder's without a compare.
    """
    return reduce_support(*_encoded_support(psi, d, n), d, n, subset)


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
