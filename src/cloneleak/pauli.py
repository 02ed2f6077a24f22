"""Generalized Pauli words on a single qudit with exact phase bookkeeping.

A word is phase * X^a Z^b acting on C^d, where X|k> = |k+1 mod d> and
Z|k> = w^k |k> with w = exp(2*pi*i/d).  Every phase this protocol produces
is an integer power of the 2d-th root of unity exp(i*pi/d), so words carry
an integer exponent r (mod 2d) instead of a complex number and only realize
it when a dense matrix is requested.  Products, daggers and the encoder
coefficients then compose exactly, which is what makes the leakage
criterion an integer statement rather than a numerical one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .modnum import delta, require_dim, require_int


def phase_value(d: int, r: int) -> complex:
    """The unit complex exp(i*pi*r/d)."""
    require_dim(d)
    return complex(np.exp(1j * np.pi * (r % (2 * d)) / d))


@dataclass(frozen=True)
class PauliWord:
    """exp(i*pi*r/d) * X^a Z^b; a, b live mod d and r mod 2d."""

    d: int
    a: int = 0
    b: int = 0
    r: int = 0

    def __post_init__(self) -> None:
        require_dim(self.d)
        object.__setattr__(self, "a", self.a % self.d)
        object.__setattr__(self, "b", self.b % self.d)
        object.__setattr__(self, "r", self.r % (2 * self.d))

    @property
    def phase(self) -> complex:
        return phase_value(self.d, self.r)

    @property
    def is_identity(self) -> bool:
        return self.a == 0 and self.b == 0 and self.r == 0

    def matrix(self) -> np.ndarray:
        """Dense d x d realization.

        Column k holds w^{b*k} at row (k + a) mod d, times the carried phase.
        """
        d = self.d
        m = np.zeros((d, d), dtype=complex)
        col = np.arange(d)
        m[(col + self.a) % d, col] = np.exp(2j * np.pi * self.b * col / d)
        return self.phase * m

    def __mul__(self, other: "PauliWord") -> "PauliWord":
        """Operator product, renormalized to X-then-Z order.

        Commuting Z^{b1} past X^{a2} costs w^{a2*b1}, i.e. 2*a2*b1 in
        half-turn units, so the exponent arithmetic stays exact.
        """
        if not isinstance(other, PauliWord):
            return NotImplemented
        if other.d != self.d:
            raise ValueError(f"dimension mismatch: {self.d} vs {other.d}")
        return PauliWord(
            self.d,
            a=self.a + other.a,
            b=self.b + other.b,
            r=self.r + other.r + 2 * other.a * self.b,
        )

    def dagger(self) -> "PauliWord":
        """Adjoint: (X^a Z^b)^+ = w^{a*b} X^{-a} Z^{-b}."""
        return PauliWord(
            self.d,
            a=-self.a,
            b=-self.b,
            r=-self.r + 2 * self.a * self.b,
        )


@dataclass(frozen=True)
class PureState:
    """Normalized pure state of a single d-level system."""

    d: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        require_dim(self.d)
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (self.d,):
            raise ValueError(
                f"expected {self.d} amplitudes, got shape {np.asarray(self.amplitudes).shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("state has non-finite amplitudes")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, d: int, k: int) -> "PureState":
        """The computational basis state |k mod d>."""
        require_int(k, "basis index")
        amps = np.zeros(d, dtype=complex)
        amps[k % d] = 1.0
        return cls(d, amps)

    @classmethod
    def uniform(cls, d: int) -> "PureState":
        return cls(d, np.full(d, 1.0 / np.sqrt(d), dtype=complex))

    @classmethod
    def random(cls, d: int, rng: np.random.Generator) -> "PureState":
        """Haar-distributed state: complex Gaussian amplitudes, normalized."""
        amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return cls(d, amps / np.linalg.norm(amps))


def require_states(psi: object, d: int) -> list[PureState]:
    """``psi`` as a list of inputs of dimension d: a PureState, or a Sequence of them."""
    states = [psi] if isinstance(psi, PureState) else psi
    if not isinstance(states, Sequence):
        raise TypeError(f"expected PureState, got {type(psi).__name__}")
    for state in states:
        if not isinstance(state, PureState):
            raise TypeError(f"expected PureState, got {type(state).__name__}")
        if state.d != d:
            raise ValueError(f"state dimension {state.d} does not match d={d}")
    return list(states)


def random_states(d: int, count: int, seed: int) -> list[PureState]:
    """Deterministic batch of Haar-random states from one seeded generator."""
    require_dim(d)
    for name, value in (("count", count), ("seed", seed)):
        require_int(value, name)
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    rng = np.random.default_rng(seed)
    return [PureState.random(d, rng) for _ in range(count)]


def expectation(psi: PureState, word: PauliWord) -> complex:
    """<psi| word |psi>."""
    if psi.d != word.d:
        raise ValueError(f"dimension mismatch: state d={psi.d}, word d={word.d}")
    return complex(np.vdot(psi.amplitudes, word.matrix() @ psi.amplitudes))


def enc_coefficient(d: int, k: int, l: int) -> int:
    """Phase exponent (mod 2d) of the encoder coefficient for branch (k, l).

    The coefficient is exp(-i*pi*(k*(k+delta) + l*(l+delta))/d) with
    delta = d mod 2.  Including delta makes k*(k+delta) even-periodic, so the
    coefficient is d-periodic in each index and the exponent is well defined
    on Z_d x Z_d.
    """
    require_dim(d)
    dl = delta(d)
    return (-(k * (k + dl) + l * (l + dl))) % (2 * d)


def enc_coefficient_value(d: int, k: int, l: int) -> complex:
    """The encoder coefficient as a complex number."""
    return phase_value(d, enc_coefficient(d, k, l))
