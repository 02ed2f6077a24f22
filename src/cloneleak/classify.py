"""Subset taxonomy and the analytic-vs-numeric agreement harness.

Classification is pure arithmetic: the authorization rule, the missing-pair
rule, and the gcd criterion cover every subset exactly once.  ``run_sweep``
is the entry point for replay: it checks its ``SweepConfig``, encodes the
support of each register shape once, and replays each verdict against
brute-force reduced states of seeded random inputs, flagging any
disagreement, so a green sweep means the closed forms and the integer
criterion both reproduce the statevector truth.

Every comparison, a sweep row's and ``trace_distance``'s, takes one route:
``_stacks`` lays out the compared states' blocks over the partition their
row-sets join, so no side x side array is formed and each distance is a
small ``eigvalsh`` per block size.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from . import analytic
from .analytic import LeakTerm, leaked_words
from .modnum import require_dim, require_int, solve_aligned_system
from .pauli import PureState, random_states, require_states
from .protocol import (
    BOTH,
    CapacityError,
    ReducedState,
    RegisterSubset,
    MEMBERSHIPS,
    NONE,
    _reduce_blocks,
    encode_support,
    require_pairs,
)

FULLY_INFORMATIVE = "fully_informative"
PARTIALLY_INFORMATIVE = "partially_informative"
COMPLETELY_UNINFORMATIVE = "completely_uninformative"


def is_authorized(subset: RegisterSubset) -> bool:
    """Decodable subsets: contain a complete pair and touch every pair."""
    return BOTH in subset.members and subset.touches_all_pairs


@dataclass(frozen=True)
class Classification:
    """Arithmetic verdict for one subset at one dimension; p, q and g only when aligned."""

    verdict: str
    authorized: bool
    maximally_mixed: bool
    p: int | None = None
    q: int | None = None
    g: int | None = None
    leak: tuple[LeakTerm, ...] = ()


def classify_subset(d: int, subset: RegisterSubset) -> Classification:
    """Decide what a subset reveals, by arithmetic alone.

    Authorized subsets determine the input completely.  Subsets missing a
    whole pair are input-independent; they are maximally mixed unless at
    least two complete pairs survive, since a lone surviving Bell mixture
    averages to the identity.  What remains is exactly the aligned case,
    where the gcd criterion decides.
    """
    require_dim(d)
    if is_authorized(subset):
        return Classification(FULLY_INFORMATIVE, True, False)
    if not subset.touches_all_pairs:
        mixed = len(subset.full_pairs) <= 1
        return Classification(COMPLETELY_UNINFORMATIVE, False, mixed)
    p = subset.signal_count
    sols = solve_aligned_system(d, p, subset.n - p)
    leak = leaked_words(sols)
    verdict = PARTIALLY_INFORMATIVE if leak else COMPLETELY_UNINFORMATIVE
    return Classification(verdict, False, not leak, p=p, q=sols.q, g=sols.g, leak=leak)


def verdict_record(d: int, subset: RegisterSubset, cls: Classification) -> dict:
    """A subset's verdict fields, as its sweep row and ``classify --json`` carry them."""
    return dict(
        d=d, n=subset.n, subset=str(subset), p=cls.p, q=cls.q, g=cls.g, verdict=cls.verdict,
        authorized=cls.authorized, maximally_mixed=cls.maximally_mixed, leak_terms=cls.leak,
    )


def analytic_reduced(
    d: int, subset: RegisterSubset, psi: PureState | Sequence[PureState]
) -> ReducedState | list[ReducedState] | None:
    """The closed form of ``psi``'s reduced state; None for authorized subsets.

    A Sequence of states gives a list with one state per input.  A
    missing-pair state is input-free, so that list repeats one state.
    """
    require_dim(d)
    states = require_states(psi, d)
    if is_authorized(subset):
        return None
    if subset.touches_all_pairs:
        return analytic.aligned_reduced(d, subset, psi)
    closed = analytic.missing_pair_subset_reduced(d, subset.n, subset)
    return closed if isinstance(psi, PureState) else [closed] * len(states)


def _labels(rowsets: Sequence[np.ndarray], side: int) -> np.ndarray:
    """Each of ``side`` rows' block, named by the block's smallest row.

    ``rowsets`` are (groups, c) arrays of rows.  The rows of a group share a
    block, and so do two blocks that share a row; a row in no group is a
    block of its own.  Every row takes the smallest label among its groups,
    then the label that label holds, until no label moves.
    """
    label = np.arange(side)
    while True:
        low = label.copy()
        for sets in rowsets:
            np.minimum.at(low, sets, low[sets].min(axis=1, keepdims=True))
        low = low[low]
        if (low == label).all():
            return label
        label = low


def _stacks(
    parts: Sequence[tuple[Sequence[int], np.ndarray, np.ndarray]], side: int, count: int
) -> list[np.ndarray]:
    """``count`` states of side ``side``, given as parts, laid out block by block.

    ``parts`` come as ``_reduce_blocks`` gives them: the states a part is
    added into, the (groups, c) rows of its blocks and their
    (len(states), groups, c, c) entries.  The blocks are those of
    ``_labels`` over every part's rows, so each state, and each difference
    of two, is zero off them whatever the entries are, NaN included.
    Returns one (count, blocks, k, k) stack per block size k, ascending,
    with the blocks in order of their smallest row and each block's rows
    ascending.  Each part is added in by one ``np.add.at``, so groups that
    share rows add up as they do in ``ReducedState.matrix``.
    """
    label = _labels([sets for _, sets, _ in parts if sets.shape[1] > 1], side)
    size = np.bincount(label, minlength=side)[label]  # each row's block size
    order = np.argsort(size * side + label, kind="stable")  # by size, then block, then row
    # a state's blocks lie one after another, k*k entries each, and row r's
    # entries start at slot[r]: its block's first entry plus k per row above it
    ends = np.cumsum(size[order])
    slot = np.empty(side, dtype=np.intp)
    slot[order] = ends - size[order]
    column = (slot - slot[label]) // size
    out = np.zeros((count, int(ends[-1])), dtype=complex)
    for states, sets, blocks in parts:
        at = slot[sets][:, :, None] + column[sets][:, None, :]
        target = np.asarray(states)[:, None] * out.shape[1] + at.ravel()
        np.add.at(out.reshape(-1), target.ravel(), np.ravel(blocks))
    rows = np.bincount(size)  # rows per block size
    stacks, start = [], 0
    for k in rows.nonzero()[0].tolist():
        stacks.append(out[:, start:start + k * rows[k]].reshape(count, -1, k, k))
        start += k * rows[k]
    return stacks


def _block_distance(blocks: Sequence[np.ndarray]) -> float:
    """Trace distance of a difference that is zero off ``blocks``: one eigvalsh per size."""
    total = 0.0
    for block in blocks:
        herm = 0.5 * (block + block.conj().swapaxes(-1, -2))
        total += float(np.sum(np.abs(np.linalg.eigvalsh(herm))))
    return 0.5 * total


def trace_distance(first: ReducedState | np.ndarray, second: ReducedState | np.ndarray) -> float:
    """Half the absolute eigenvalue sum of the difference's Hermitian part.

    eigvalsh reads one triangle only, so a difference carrying a rounding
    residue that is not Hermitian would otherwise be read as a matrix whose
    Frobenius norm exceeds its own.  The Hermitian part (X + X^H)/2 has norm
    at most ||X||_F, which keeps T <= sqrt(side)/2 * ||X||_F true.

    This is the sweep's kernel on one pair, over the blocks of ``_stacks``:
    a ReducedState is compared by its parts, and a plain array is one part
    over every row, so a dense pair is one block, the Hermitian part itself.
    Inputs must be square, of one side and finite; two ReducedStates must
    also share ``d`` and ``labels``.
    """
    if isinstance(first, ReducedState) and isinstance(second, ReducedState):
        if (first.d, first.labels) != (second.d, second.labels):
            raise ValueError(
                f"states over different qudits: d={first.d} {list(first.labels)} "
                f"vs d={second.d} {list(second.labels)}"
            )
    sides, parts = [], []
    for k, state in enumerate((first, second)):
        if isinstance(state, ReducedState):
            sides.append(state.dim)
            parts += [([k], rows, blocks[None]) for rows, blocks in state.parts]
            continue
        matrix = np.asarray(state, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"not a square matrix: shape {matrix.shape}")
        sides.append(len(matrix))
        parts.append(([k], np.arange(len(matrix))[None], matrix[None, None]))
    side, other = sides
    if side != other:
        raise ValueError(f"shape mismatch: {(side, side)} vs {(other, other)}")
    for (k,), rows, blocks in parts:
        if not np.isfinite(blocks).all():
            _, g, a, b = np.argwhere(~np.isfinite(blocks))[0]
            value, i, j = blocks[0, g, a, b], rows[g, a], rows[g, b]
            name = ("first", "second")[k]
            raise ValueError(f"non-finite entry {value} at ({i}, {j}) of the {name} matrix")
    return _block_distance([stack[0] - stack[1] for stack in _stacks(parts, side, 2)])


def maximally_mixed(d: int, num_qudits: int) -> np.ndarray:
    side = d**num_qudits
    return np.eye(side, dtype=complex) / side


@dataclass(frozen=True)
class SweepConfig:
    """Grid of register shapes and subsets to replay numerically."""

    dims: tuple[int, ...]
    ns: tuple[int, ...]
    family: str = "aligned"  # aligned | all | named
    subsets: tuple[str, ...] = ()
    samples: int = 10
    seed: int = 7
    tol: float = 1e-9
    witness: float = 1e-6

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "ns", tuple(self.ns))
        object.__setattr__(self, "subsets", tuple(self.subsets))
        if not self.dims or not self.ns:
            raise ValueError("need at least one dimension and one pair count")
        if self.family not in ("aligned", "all", "named"):
            raise ValueError(f"unknown subset family {self.family!r}")
        if self.family == "named" and not self.subsets:
            raise ValueError("family 'named' needs at least one subset")
        if self.subsets and self.family != "named":
            raise ValueError(f"subsets apply only to family 'named', not {self.family!r}")
        for name in ("samples", "seed"):
            require_int(getattr(self, name), name)
        if self.samples < 2:
            raise ValueError("need at least two samples to witness input dependence")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("tol", "witness"):  # True would pass as 1
            if isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be a real number, got bool")
        # NaN fails every comparison, so a NaN tol would pass each "> tol" gate
        if not all(math.isfinite(t) and t > 0 for t in (self.tol, self.witness)):
            raise ValueError("tolerances must be finite and positive")
        for d in self.dims:
            require_dim(d)
        for n in self.ns:
            require_pairs(n)
            seen: dict[tuple[str, ...], str] = {}
            for labels in self.subsets:  # a named subset must fit every shape
                members = RegisterSubset.from_labels(labels, n).members
                if members in seen:  # a repeat would replay its rows twice
                    raise ValueError(
                        f"subsets {seen[members]} and {labels} select the same qudits at n={n}"
                    )
                seen[members] = labels
        for name in ("dims", "ns"):
            values = getattr(self, name)
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:
                raise ValueError(f"{name} lists {repeats[0]} twice")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SweepRow:
    """One subset's verdict next to its numeric replay."""

    d: int
    n: int
    subset: str
    p: int | None
    q: int | None
    g: int | None
    verdict: str
    authorized: bool
    maximally_mixed: bool
    leak_terms: tuple[LeakTerm, ...]
    oracle_max_distance: float | None
    oracle_max_bound: bool | None
    analytic_oracle_distance: float | None
    analytic_bound: bool | None
    agree: bool
    note: str = ""

    def to_dict(self) -> dict:
        rec = {f.name: getattr(self, f.name) for f in fields(self)}
        rec["leak_terms"] = [t.to_dict() for t in self.leak_terms]
        return rec


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    rows: tuple[SweepRow, ...]

    @property
    def all_agree(self) -> bool:
        return all(row.agree for row in self.rows)

    @property
    def mismatches(self) -> tuple[SweepRow, ...]:
        return tuple(row for row in self.rows if not row.agree)

    @property
    def skipped(self) -> tuple[SweepRow, ...]:
        return tuple(row for row in self.rows if row.oracle_max_distance is None)

    def to_json(self) -> str:
        payload = {
            "config": self.config.to_dict(),
            "rows": [row.to_dict() for row in self.rows],
            "all_agree": self.all_agree,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, fieldnames=[f.name for f in fields(SweepRow)], lineterminator="\n"
        )
        writer.writeheader()
        for row in self.rows:
            rec = row.to_dict()
            rec["leak_terms"] = "|".join(
                f"{t.a}:{t.b}:{t.phase_exponent}" for t in row.leak_terms
            )
            writer.writerow(rec)
        return buf.getvalue()

    def to_table(self) -> str:
        short = {
            "authorized": "auth",
            "maximally_mixed": "mixed",
            "leak_terms": "leaks",
            "oracle_max_distance": "oracle_max",
            "oracle_max_bound": "oracle_bound",
            "analytic_oracle_distance": "analytic_dist",
            "agree": "ok",
        }
        # one column per SweepRow field; the note rides in the agree column
        names = [f.name for f in fields(SweepRow) if f.name != "note"]
        headers = [short.get(name, name) for name in names]
        body = [[_cell(row, name) for name in names] for row in self.rows]
        widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h) for i, h in enumerate(headers)]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
            "  ".join("-" * w for w in widths),
        ]
        lines.extend("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))) for r in body)
        return "\n".join(lines)

    def summary(self) -> str:
        return (
            f"{len(self.rows)} rows, {len(self.mismatches)} mismatches, "
            f"{len(self.skipped)} capacity-skipped"
        )


def _cell(row: SweepRow, name: str) -> str:
    """One table cell: '-' for None, yes/no, 3-digit floats, term counts."""
    value = getattr(row, name)
    if name == "agree":
        return ("ok" if value else "MISMATCH") + (f" [{row.note}]" if row.note else "")
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3e}"
    if isinstance(value, tuple):
        return str(len(value))
    return str(value)


def _subsets_for(config: SweepConfig, n: int) -> list[RegisterSubset]:
    if config.family == "aligned":
        return [RegisterSubset.aligned(n, p) for p in range(n + 1)]
    if config.family == "all":
        out = []
        for members in itertools.product(MEMBERSHIPS, repeat=n):
            if all(m == NONE for m in members):
                continue
            out.append(RegisterSubset(members))
        return out
    return [RegisterSubset.from_labels(labels, n) for labels in config.subsets]


# Relative widening of every Frobenius bound.  Each exact distance is taken
# over blocks X_b of side s_b, so each eigenvalue lies within about
# s_b * eps * ||X_b||_2 of the true one.  Summed over the blocks, and since
# sum_b sqrt(s_b) ||X_b||_F <= sqrt(side) ||X||_F, the computed trace
# distance exceeds the true one by at most about s_max^1.5 * eps times the
# bound sqrt(side)/2 * ||X||_F: 6e-11 when one block fills
# REDUCED_SIDE_LIMIT, the dense case, and less for smaller blocks.  The
# bound's own rounding is smaller still.  A widened bound therefore stays
# above the computed distance it stands for, and a pair whose bound ties the
# running maximum within rounding is diagonalized.
_SCAN_SLACK = 1e-9


def _max_distance(
    stacks: Sequence[np.ndarray], first: np.ndarray, second: np.ndarray, side: int,
    tol: float, witness: float,
) -> tuple[float, bool]:
    """Largest trace distance over pairs of states, or a certified bound on it.

    Pair k is state ``first[k]`` minus state ``second[k]`` of ``stacks``, a
    difference X that is zero off the blocks.  Its bound is sqrt(side)/2 *
    ||X||_F * (1 + _SCAN_SLACK), the norm taken of X itself: through a Gram
    matrix, ||a||^2 + ||b||^2 - 2 Re<a, b> cancels to about 1e-9 for
    differences near 1e-16, which decides nothing.  Bounds are taken over
    chunks of half as many pairs as ``stacks`` holds states: a chunk holds
    at most three arrays of its differences' size at once (two gathers and
    their difference, or the norm's two copies), 1.5 times ``stacks``.
    When every bound is <= tol and < witness, each gate reads the same on
    the largest bound as on the exact maximum, so that bound is returned
    with True.  Otherwise the exact maximum is returned with False: pairs
    are diagonalized in descending order of bound until no bound left
    reaches the largest distance found, since no skipped pair can then
    exceed it.  A bound that is not finite comes from a non-finite entry, as
    no entry of a state exceeds 1: the maximum is NaN, which fails every
    gate, and no block reaches ``eigvalsh``.
    """
    chunk = len(stacks[0]) // 2
    norms = np.empty(len(first))
    for start in range(0, len(first), chunk):
        i, j = first[start:start + chunk], second[start:start + chunk]
        rows = np.concatenate([(stack[i] - stack[j]).reshape(len(i), -1) for stack in stacks], 1)
        norms[start:start + chunk] = np.linalg.norm(rows, axis=-1)
    bounds = 0.5 * math.sqrt(side) * norms * (1 + _SCAN_SLACK)
    top = float(np.max(bounds, initial=0.0))
    if not math.isfinite(top):
        return math.nan, False
    if top <= tol and top < witness:
        return top, True
    best = 0.0
    for k in np.argsort(-bounds, kind="stable"):  # ties keep the order of pairs
        if bounds[k] < best:
            break
        i, j = first[k], second[k]
        best = max(best, _block_distance([stack[i] - stack[j] for stack in stacks]))
    return best, False


def _partition(rowsets: Sequence[np.ndarray], side: int) -> np.ndarray | None:
    """Each of ``side`` rows' block, named by its smallest row, or -1 off every block.

    ``rowsets`` are (groups, c) arrays of rows, one block a row.  None when
    two blocks share a row, so that equal labels mean equal partitions.
    """
    rows = np.concatenate([sets.ravel() for sets in rowsets])
    if np.bincount(rows, minlength=side).max() > 1:
        return None
    label = np.full(side, -1)
    for sets in rowsets:
        label[sets] = sets.min(axis=1, keepdims=True)
    return label


def evaluate_subset(
    d: int,
    subset: RegisterSubset,
    states: Sequence[PureState],
    support: tuple[np.ndarray, np.ndarray] | CapacityError,
    config: SweepConfig,
) -> SweepRow:
    """Classify one subset and replay the verdict against the oracle.

    ``support`` is ``encode_support(states, d, n)``: the flat indices of the
    registers' support and one row of amplitudes there per state.  Or it is
    the CapacityError that stopped the shape from being encoded; such a row,
    and one whose oracle reduced states are too large, is skipped and its
    note gives the reason.  All registers are reduced in one
    ``_reduce_blocks`` call, and the row compares its states block by
    block, forming no side x side array: one ``_stacks`` call lays out the
    oracle's blocks, the closed form's and, on an uninformative row, the
    maximally mixed state's 1 x 1 blocks over the partition their rows
    join.  An aligned closed form is ``analytic._aligned_blocks``, its
    orbit blocks, and when the oracle's row-sets partition the rows, an
    integer check that the orbits partition them alike notes a row where
    they do not.  A missing-pair closed form is one input-free state, so
    every sample's pair names it.  Each check is one ``_max_distance`` call
    naming its pairs by two index arrays into the stacks, with ``tol`` and
    ``witness`` from ``config``; a distance at or below ``tol`` may be a
    certified upper bound, which its ``*_bound`` field says.  A NaN
    distance fails its gate and gets a note.
    """
    tol, witness = config.tol, config.witness
    cls = classify_subset(d, subset)
    record = verdict_record(d, subset, cls)
    if len(states) != config.samples:
        raise ValueError(f"expected {config.samples} samples, got {len(states)}")
    if not isinstance(support, CapacityError) and len(support[1]) != len(states):
        raise ValueError(f"{len(states)} states but {len(support[1])} registers")
    try:
        if isinstance(support, CapacityError):
            # every subset of the shape raises this one error; a fresh
            # traceback keeps it from holding each row's frame
            raise support.with_traceback(None)
        parts = _reduce_blocks(*support, d, subset.n, subset)
    except CapacityError as exc:
        return SweepRow(
            **record,
            oracle_max_distance=None,
            oracle_max_bound=None,
            analytic_oracle_distance=None,
            analytic_bound=None,
            agree=True,
            note=f"capacity: {exc}",
        )
    uninformative = cls.verdict == COMPLETELY_UNINFORMATIVE
    side, count = d**subset.size, len(states)
    own = np.arange(count)
    notes: list[str] = []  # each is a disagreement; the row agrees when none is found
    # the stacks hold the oracle's states 0..count-1, then the closed forms,
    # then the maximally mixed state.  No CapacityError here: each closed form
    # guards the same side d^size against the REDUCED_SIDE_LIMIT that the
    # kernel has just passed
    total = count
    if not cls.authorized and subset.touches_all_pairs:
        rowsets, blocks = analytic._aligned_blocks(d, subset, states)
        label = _partition([sets for _, sets, _ in parts], side)
        if label is not None and not np.array_equal(_partition([rowsets], side), label):
            notes.append("closed form's block partition differs from oracle's")
        closed, total = own + count, 2 * count
        parts.append((closed, rowsets, blocks))
    elif not cls.authorized:  # input-free: one state stands for every sample
        closed, total = np.full(count, count), count + 1
        state = analytic.missing_pair_subset_reduced(d, subset.n, subset)
        parts += [([count], rowsets, blocks[None]) for rowsets, blocks in state.parts]
    if uninformative:  # 1/side on every row
        mixed = np.full(count, total)
        diagonal = np.full((1, side, 1, 1), 1 / side, dtype=complex)
        parts.append(([total], np.arange(side)[:, None], diagonal))
        total += 1
    stacks = _stacks(parts, side, total)
    del parts
    oracle_max, oracle_bound = _max_distance(stacks, *np.triu_indices(count, 1), side, tol, witness)

    analytic_dist: float | None = None
    analytic_bound: bool | None = None
    if not cls.authorized:
        analytic_dist, analytic_bound = _max_distance(stacks, closed, own, side, tol, witness)

    # every gate is written so that a NaN distance reads as a disagreement
    if analytic_dist is not None and not analytic_dist <= tol:
        notes.append("closed form disagrees with oracle")
    if uninformative:
        if not oracle_max <= tol:
            notes.append("verdict says input-independent, oracle disagrees")
        mixed_dist, _ = _max_distance(stacks, own, mixed, side, tol, witness)
        if cls.maximally_mixed and not mixed_dist <= tol:
            notes.append("flagged maximally mixed, oracle disagrees")
        if not cls.maximally_mixed and not mixed_dist >= witness:
            notes.append("flagged non-mixed, oracle looks maximally mixed")
    elif not oracle_max >= witness:
        notes.append("verdict says input-dependent, oracle looks independent")
    return SweepRow(
        **record,
        oracle_max_distance=oracle_max,
        oracle_max_bound=oracle_bound,
        analytic_oracle_distance=analytic_dist,
        analytic_bound=analytic_bound,
        agree=not notes,
        note="; ".join(notes),
    )


def run_sweep(config: SweepConfig) -> SweepReport:
    """Replay the classifier over the configured grid; deterministic output."""
    rows: list[SweepRow] = []
    for d in config.dims:
        states = random_states(d, config.samples, config.seed)  # the same inputs at every n
        for n in config.ns:
            try:
                support = encode_support(states, d, n)
            except CapacityError as exc:
                support = exc
            for subset in _subsets_for(config, n):
                rows.append(evaluate_subset(d, subset, states, support, config))
    return SweepReport(config=config, rows=tuple(rows))
