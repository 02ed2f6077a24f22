"""Subset taxonomy and the analytic-vs-numeric agreement harness.

Classification is pure arithmetic: the authorization rule, the missing-pair
rule, and the gcd criterion cover every subset exactly once.  ``run_sweep``
is the entry point for replay: it checks its ``SweepConfig``, encodes each
register shape once, and replays each verdict against brute-force reduced
states of seeded random inputs, flagging any disagreement, so a green sweep
means the closed forms and the integer criterion both reproduce the
statevector truth.
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

from .analytic import LeakTerm, aligned_reduced, leaked_words, missing_pair_subset_reduced
from .modnum import require_dim, solve_aligned_system
from .pauli import PureState, random_states
from .protocol import (
    BOTH,
    CapacityError,
    ReducedState,
    RegisterSubset,
    MEMBERSHIPS,
    NONE,
    encode,
    reduce_encoded,
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


def analytic_reduced(d: int, subset: RegisterSubset, psi: PureState) -> ReducedState | None:
    """The closed form of ``psi``'s reduced state; None for authorized subsets.

    Missing-pair subsets ignore ``psi``: their state is input-free.
    """
    require_dim(d)
    if psi.d != d:
        raise ValueError(f"state dimension {psi.d} does not match d={d}")
    if is_authorized(subset):
        return None
    if not subset.touches_all_pairs:
        return missing_pair_subset_reduced(d, subset.n, subset)
    return aligned_reduced(d, subset, psi)


def _matrix(state: ReducedState | np.ndarray) -> np.ndarray:
    return state.matrix if isinstance(state, ReducedState) else np.asarray(state, dtype=complex)


def trace_distance(first: ReducedState | np.ndarray, second: ReducedState | np.ndarray) -> float:
    """Half the absolute eigenvalue sum of the difference's Hermitian part.

    eigvalsh reads one triangle only, so a difference carrying a rounding
    residue that is not Hermitian would otherwise be read as a matrix whose
    Frobenius norm exceeds its own.  The Hermitian part (X + X^H)/2 has norm
    at most ||X||_F, which keeps T <= sqrt(side)/2 * ||X||_F true.
    """
    a, b = _matrix(first), _matrix(second)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    x = a - b
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (x + x.conj().T)))))


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
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
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
            for labels in self.subsets:  # a named subset must fit every shape
                RegisterSubset.from_labels(labels, n)

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


# Relative widening of every Frobenius bound.  Each eigenvalue from eigvalsh
# lies within about side * eps * ||X||_2 of the true one, so the computed
# trace distance can exceed the true one by about side^1.5 * eps times the
# bound (>= sqrt(side)/2 * ||X||_2): 6e-11 at REDUCED_SIDE_LIMIT, and the
# bound's own rounding is smaller still.  A widened bound therefore stays
# above the computed distance it stands for, and a pair whose bound ties the
# running maximum within rounding is diagonalized.
_SCAN_SLACK = 1e-9


def _max_distance(
    pairs: Sequence[tuple[ReducedState | np.ndarray, ReducedState | np.ndarray]],
    tol: float,
    witness: float,
) -> tuple[float, bool]:
    """Largest trace distance over ``pairs``, or a certified bound on it.

    Every difference X obeys T(X) <= sqrt(side)/2 * ||X||_F; each bound is
    that value widened by ``_SCAN_SLACK``.  When the bound is <= tol and
    < witness for every pair, each gate reads the same on the largest bound
    as on the exact maximum, so the bound is returned with True.  Otherwise
    the exact maximum is returned with False: pairs are diagonalized by
    ``trace_distance`` in descending order of bound until no bound left
    reaches the largest distance found, since no skipped pair can then
    exceed it.  Each norm is taken of the difference itself: through a Gram
    matrix, ||a||^2 + ||b||^2 - 2 Re<a, b> cancels to about 1e-9 for
    differences near 1e-16, which decides nothing.
    """
    bounds = []
    for a, b in pairs:
        x = _matrix(a) - _matrix(b)
        bounds.append(0.5 * math.sqrt(len(x)) * float(np.linalg.norm(x)) * (1 + _SCAN_SLACK))
    if all(bound <= tol and bound < witness for bound in bounds):
        return max(bounds, default=0.0), True
    best = 0.0
    for i in sorted(range(len(pairs)), key=bounds.__getitem__, reverse=True):
        if bounds[i] < best:
            break
        best = max(best, trace_distance(*pairs[i]))
    return best, False


def evaluate_subset(
    d: int,
    subset: RegisterSubset,
    samples: Sequence[tuple[PureState, np.ndarray]] | CapacityError,
    config: SweepConfig,
) -> SweepRow:
    """Classify one subset and replay the verdict against the oracle.

    ``samples`` pairs each input with its encoded register, or is the
    CapacityError that stopped the shape from being encoded; such a row, and
    one whose oracle reduced states are too large, is skipped and its note
    gives the reason.  ``tol`` and ``witness`` come from ``config``.  A
    distance at or below ``tol`` may be reported as a certified upper bound
    (see ``_max_distance``); its ``*_bound`` field says so.
    """
    tol, witness = config.tol, config.witness
    cls = classify_subset(d, subset)
    common = dict(
        d=d,
        n=subset.n,
        subset=str(subset),
        p=cls.p,
        q=cls.q,
        g=cls.g,
        verdict=cls.verdict,
        authorized=cls.authorized,
        maximally_mixed=cls.maximally_mixed,
        leak_terms=cls.leak,
    )
    if not isinstance(samples, CapacityError) and len(samples) != config.samples:
        raise ValueError(f"expected {config.samples} samples, got {len(samples)}")
    try:
        if isinstance(samples, CapacityError):
            # every subset of the shape raises this one error; a fresh
            # traceback keeps it from holding each row's frame
            raise samples.with_traceback(None)
        reduced = [reduce_encoded(vec, d, subset.n, subset) for _, vec in samples]
    except CapacityError as exc:
        return SweepRow(
            **common,
            oracle_max_distance=None,
            oracle_max_bound=None,
            analytic_oracle_distance=None,
            analytic_bound=None,
            agree=True,
            note=f"capacity: {exc}",
        )
    oracle_max, oracle_bound = _max_distance(
        list(itertools.combinations(reduced, 2)), tol, witness
    )

    analytic_dist: float | None = None
    analytic_bound: bool | None = None
    if not cls.authorized:
        # no CapacityError here: each closed form guards the same side d^size
        # against the REDUCED_SIDE_LIMIT that reduce_encoded has just passed
        if cls.p is not None:
            closed = [aligned_reduced(d, subset, psi) for psi, _ in samples]
        else:  # input-free: one closed form serves every sample
            closed = [missing_pair_subset_reduced(d, subset.n, subset)] * len(reduced)
        analytic_dist, analytic_bound = _max_distance(list(zip(closed, reduced)), tol, witness)

    notes: list[str] = []  # each is a disagreement; the row agrees when none is found
    if analytic_dist is not None and analytic_dist > tol:
        notes.append("closed form disagrees with oracle")
    if cls.verdict == COMPLETELY_UNINFORMATIVE:
        if not oracle_max <= tol:
            notes.append("verdict says input-independent, oracle disagrees")
        mixed = maximally_mixed(d, subset.size)
        mixed_dist, _ = _max_distance([(rho, mixed) for rho in reduced], tol, witness)
        if cls.maximally_mixed and mixed_dist > tol:
            notes.append("flagged maximally mixed, oracle disagrees")
        if not cls.maximally_mixed and mixed_dist < witness:
            notes.append("flagged non-mixed, oracle looks maximally mixed")
    elif oracle_max < witness:
        notes.append("verdict says input-dependent, oracle looks independent")
    return SweepRow(
        **common,
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
        for n in config.ns:
            states = random_states(d, config.samples, config.seed)
            try:
                samples = [(psi, encode(psi, d, n)) for psi in states]
            except CapacityError as exc:
                samples = exc
            for subset in _subsets_for(config, n):
                rows.append(evaluate_subset(d, subset, samples, config))
    return SweepReport(config=config, rows=tuple(rows))
