"""Hypothesis properties of subset labels, the arithmetic verdicts and the distance bounds."""

import itertools
import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cloneleak.classify import (
    COMPLETELY_UNINFORMATIVE,
    FULLY_INFORMATIVE,
    PARTIALLY_INFORMATIVE,
    classify_subset,
    trace_distance,
)
from cloneleak.protocol import BOTH, MEMBERSHIPS, NONE, SIGNAL, RegisterSubset
from oracle_helpers import scan_pairs

subsets = (
    st.integers(min_value=1, max_value=8)
    .flatmap(lambda n: st.lists(st.sampled_from(MEMBERSHIPS), min_size=n, max_size=n))
    .filter(lambda members: set(members) != {NONE})
    .map(lambda members: RegisterSubset(tuple(members)))
)
dims = st.integers(min_value=2, max_value=16)


@settings(deadline=None)
@given(subset=subsets, shuffle_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_labels_round_trip(subset, shuffle_seed):
    text = str(subset)
    assert RegisterSubset.from_labels(text, subset.n) == subset
    labels = text.split(",")
    random.Random(shuffle_seed).shuffle(labels)
    assert RegisterSubset.from_labels(",".join(labels), subset.n) == subset


@settings(deadline=None)
@given(d=dims, subset=subsets)
def test_classification_matches_the_stated_rules(d, subset):
    members = subset.members
    full = members.count(BOTH)
    cls = classify_subset(d, subset)
    if NONE not in members and full:
        assert cls.verdict == FULLY_INFORMATIVE and cls.authorized
        return
    assert not cls.authorized
    if NONE in members:
        assert cls.verdict == COMPLETELY_UNINFORMATIVE
        assert cls.maximally_mixed == (full <= 1)
        return
    p = members.count(SIGNAL)
    g = math.gcd(d, p * (subset.n - p + 1) - 1)
    assert cls.g == g
    assert len(cls.leak) == g - 1
    if g > 1:
        assert cls.verdict == PARTIALLY_INFORMATIVE and not cls.maximally_mixed
    else:
        assert cls.verdict == COMPLETELY_UNINFORMATIVE and cls.maximally_mixed


def _density(rng: np.random.Generator, side: int, rank: int) -> np.ndarray:
    a = rng.standard_normal((side, rank)) + 1j * rng.standard_normal((side, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@settings(deadline=None)
@given(
    side=st.integers(min_value=2, max_value=64),
    ranks=st.tuples(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=64)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    residue=st.sampled_from([0.0, 1e-16, 1e-12, 1e-8]),
)
def test_trace_distance_lies_between_the_frobenius_bounds(side, ranks, seed, residue):
    # the sweep certifies "<= tol" from the upper bound, so it must hold,
    # also for a difference carrying a non-Hermitian rounding residue (here
    # in one triangle, of Frobenius norm ``residue`` relative to the rest)
    rng = np.random.default_rng(seed)
    rho, sigma = (_density(rng, side, min(rank, side)) for rank in ranks)
    lower = np.tril(rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side)), -1)
    rho = rho + residue * np.linalg.norm(rho - sigma) / np.linalg.norm(lower) * lower
    frobenius = float(np.linalg.norm(rho - sigma))
    exact = trace_distance(rho, sigma)
    slack = 1e-12 * frobenius  # rounding in the eigenvalues and the norm
    assert 0.5 * frobenius - slack <= exact <= 0.5 * math.sqrt(side) * frobenius + slack


@settings(deadline=None)
@given(
    side=st.integers(min_value=2, max_value=32),
    ranks=st.lists(st.integers(min_value=1, max_value=32), min_size=2, max_size=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_max_distance_scan_returns_the_exact_maximum(side, ranks, seed):
    # the scan skips pairs whose bound cannot beat the running maximum, so
    # its value must be the one a full pass over every pair gives
    rng = np.random.default_rng(seed)
    states = [_density(rng, side, min(rank, side)) for rank in ranks]
    pairs = list(itertools.combinations(states, 2))
    value, bound = scan_pairs(pairs, 1e-9, 1e-6)
    if not bound:
        assert value == max(trace_distance(a, b) for a, b in pairs)


@st.composite
def block_differences(draw):
    # a Hermitian difference, block diagonal under a random permutation, with
    # blocks of mixed sides summing to at most 64, returned as a pair whose
    # shared background cancels exactly off the blocks
    sizes = draw(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=12))
    sizes = [s for s, total in zip(sizes, itertools.accumulate(sizes)) if total <= 64] or [64]
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    side = sum(sizes)
    diff = np.zeros((side, side), dtype=complex)
    start = 0
    for size in sizes:
        g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        g[rng.random((size, size)) < 0.3] = 0  # zeros inside a block may split it
        diff[start:start + size, start:start + size] = g + g.conj().T
        start += size
    background = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    background += background.conj().T
    perm = rng.permutation(side)
    first, second = background + diff, background  # (s + 0) - s == 0 exactly
    return first[np.ix_(perm, perm)], second[np.ix_(perm, perm)]


@settings(deadline=None)
@given(pair=block_differences())
def test_trace_distance_over_blocks_matches_the_dense_spectrum(pair):
    first, second = pair
    x = first - second
    herm = 0.5 * (x + x.conj().T)
    dense = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(herm))))
    assert abs(trace_distance(first, second) - dense) <= 1e-12 * np.linalg.norm(x)
