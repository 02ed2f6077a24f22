"""Exact modular arithmetic for the aligned-subset congruence system.

Every aligned subset of the storage register (p signal qudits, q noise
qudits, local dimension d) leaks exactly the shift/phase words indexed by
the solutions of

    a + p*b       = 0  (mod d)
    a*(1 + q) + b = 0  (mod d)

over (a, b) in Z_d x Z_d.  The solution set is a cyclic group of order
g = gcd(d, p*(q+1) - 1) generated by (-p*d/g, d/g), so the whole leakage
question reduces to integer arithmetic.  This module keeps that arithmetic
exact; the tests hold it against a brute-force enumeration of Z_d x Z_d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def require_int(value: object, what: str) -> None:
    """Reject anything but an int; a bool is not one, though Python says it is."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")


def require_dim(d: int) -> None:
    """Reject local dimensions below 2."""
    require_int(d, "qudit dimension")
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")


def delta(d: int) -> int:
    """Parity offset d mod 2 appearing in the encoder phases."""
    require_dim(d)
    return d % 2


def system_gcd(d: int, p: int, q: int) -> int:
    """Number of solutions g = gcd(d, p*(q+1) - 1) of the aligned system."""
    require_dim(d)
    _require_shape(p, q)
    return math.gcd(d, p * (q + 1) - 1)


def satisfies_system(d: int, p: int, q: int, a: int, b: int) -> bool:
    """Check both congruences directly."""
    return (a + p * b) % d == 0 and (a * (1 + q) + b) % d == 0


def _require_shape(p: int, q: int) -> None:
    """Reject signal/noise counts that are not ints, negative, or both zero."""
    require_int(p, "p")
    require_int(q, "q")
    if p < 0 or q < 0:
        raise ValueError(f"signal/noise counts must be nonnegative, got p={p}, q={q}")
    if p + q < 1:
        raise ValueError("an aligned subset holds at least one qudit")


@dataclass(frozen=True)
class CongruenceSolutionSet:
    """All (a, b) pairs solving the aligned system for one (d, p, q)."""

    d: int
    p: int
    q: int
    g: int
    solutions: tuple[tuple[int, int], ...]

    def as_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.solutions)

    def nontrivial(self) -> tuple[tuple[int, int], ...]:
        return tuple(s for s in self.solutions if s != (0, 0))


def solve_aligned_system(d: int, p: int, q: int) -> CongruenceSolutionSet:
    """Closed-form solution set, ordered along the generator.

    Substituting a = -p*b into the second congruence leaves
    (p*(q+1) - 1) * b = 0 (mod d), whose solutions are the g multiples of
    d/g with g = gcd(d, p*(q+1) - 1).
    """
    g = system_gcd(d, p, q)
    step = d // g
    sols = tuple(((-p * v * step) % d, (v * step) % d) for v in range(g))
    return CongruenceSolutionSet(d=d, p=p, q=q, g=g, solutions=sols)
