"""Register subsets, encoding circuit, and the brute-force reduction oracle.

The full register is [A, S1, N1, S2, N2, ..., Sn, Nn]: the source qudit A,
then n signal/noise pairs, each pair prepared in the generalized Bell state
before encoding.  Axis order is fixed and row-major, so A is axis 0 and pair
i occupies axes (2i-1, 2i); :meth:`RegisterSubset.kept_axes` is where that
layout is read.

Encoding applies (1/d) * sum_{k,l} c_kl (X^k Z^l) on A and every signal
qudit simultaneously, with c_kl the exact phases from
:func:`cloneleak.pauli.enc_coefficient`.  Reduced states of register subsets
are produced here by direct contraction of the statevector, with no appeal
to any closed form; the analytic module reproduces them the other way
around, which is what makes the cross-check meaningful.

Reduced states keep their qudits in a canonical order: selected signal
qudits ascending by pair index, then selected noise qudits ascending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .modnum import require_dim
from .pauli import PauliWord, PureState, enc_coefficient_value

# Dense-object size guards.  The encoder is a d^(n+1) square matrix; the
# encoded register is a d^(2n+1) statevector; a reduced state is a square
# matrix whose side is d to the number of kept qudits.  Exceeding any of
# them raises CapacityError instead of silently allocating gigabytes.
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
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"pair count must be an int, got {type(n).__name__}")
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


def bell_state(d: int) -> np.ndarray:
    """Maximally entangled pair (1/sqrt(d)) sum_k |kk> as a length-d^2 vector."""
    require_dim(d)
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = 1.0 / np.sqrt(d)
    return vec


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


def encode(psi: PureState, d: int, n: int) -> np.ndarray:
    """Encoded register statevector in the fixed global layout.

    The (k, l) branch is c_kl * (X^k Z^l |psi>) (x) ((X^k Z^l (x) I)|Bell>)^{(x)n};
    the branches are summed and divided by d.  All d^2 branches are built
    together, one row each, with the 1/d folded into the coefficients, and
    the last pair factor and the sum over branches are one matmul whose
    result is the register.  This never materializes the encoder, so it
    reaches register sizes the dense unitary cannot.  Raises CapacityError
    when the register or the d^2 x d^2 pair table, the larger object at
    n = 1, exceeds ``STATE_AMPLITUDE_LIMIT``.
    """
    require_dim(d)
    require_pairs(n)
    if psi.d != d:
        raise ValueError(f"state dimension {psi.d} does not match register dimension {d}")
    require_capacity("register size d^(2n+1)", d ** (2 * n + 1), STATE_AMPLITUDE_LIMIT)
    require_capacity("encoder pair table d^4", d**4, STATE_AMPLITUDE_LIMIT)
    kl = [(k, l) for k in range(d) for l in range(d)]
    words = np.array([PauliWord(d, a=k, b=l).matrix() for k, l in kl])
    coeffs = np.array([enc_coefficient_value(d, k, l) for k, l in kl]) / d
    branches = coeffs[:, None] * (words @ psi.amplitudes)
    # (X^k Z^l (x) I)|Bell> lists the entries of X^k Z^l row by row, over sqrt(d)
    pairs = words.reshape(d * d, -1) / np.sqrt(d)
    for _ in range(n - 1):
        branches = (branches[:, :, None] * pairs[:, None, :]).reshape(d * d, -1)
    return (branches.T @ pairs).reshape(-1)


def _gram(parts: np.ndarray) -> np.ndarray:
    """m @ m^H from the real matrix R = [Re m | Im m].

    Re(m m^H) = R R^T is one symmetric rank-k product and Im(m m^H) = C - C^T
    with C = Im m (Re m)^T one real matmul: about half the flops of the
    complex product, and the result is exactly Hermitian.
    """
    cols = parts.shape[1] // 2
    out = np.empty((len(parts), len(parts)), dtype=complex)
    out.real = parts @ parts.T
    c = parts[:, cols:] @ parts[:, :cols].T
    out.imag = c - c.T
    return out


def reduce_encoded(vec: np.ndarray, d: int, n: int, subset: RegisterSubset) -> ReducedState:
    """Contract an encoded statevector down to the selected qudits.

    The source qudit and every unselected register qudit are traced out
    without forming the d^(2n+1) density matrix.  The statevector is read
    as real numbers with a trailing re/im axis; one transpose puts the kept
    axes first and that axis between them and the traced axes, so the
    kept-by-traced matrix m arrives as [Re m | Im m] in a single copy, and
    m @ m^H is assembled from real products (see ``_gram``).  The result is
    exactly Hermitian.  Raises CapacityError when the kept side d^size
    exceeds ``REDUCED_SIDE_LIMIT``.
    """
    require_dim(d)
    require_pairs(n)
    if subset.n != n:
        raise ValueError(f"subset spans {subset.n} pairs, register has {n}")
    size = 2 * n + 1
    vec = np.ascontiguousarray(vec, dtype=complex).reshape(-1)
    if vec.shape != (d**size,):
        raise ValueError(f"expected {d**size} amplitudes, got {vec.shape}")
    keep_axes = list(subset.kept_axes())
    side = d ** len(keep_axes)
    require_capacity("kept side d^size", side, REDUCED_SIDE_LIMIT)
    traced = [ax for ax in range(size) if ax not in keep_axes]
    tensor = vec.view(np.float64).reshape((d,) * size + (2,))
    parts = np.transpose(tensor, keep_axes + [size] + traced).reshape(side, -1)
    return ReducedState(d=d, labels=subset.kept_labels(), matrix=_gram(parts))


def oracle_reduced(psi: PureState, d: int, n: int, subset: RegisterSubset) -> ReducedState:
    """Encode psi and contract: the ground-truth reduced state of a subset."""
    return reduce_encoded(encode(psi, d, n), d, n, subset)


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
