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
from cloneleak.protocol import (
    BOTH,
    MEMBERSHIPS,
    NONE,
    SIGNAL,
    RegisterSubset,
    parse_label,
    partial_trace,
    reduce_support,
)
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


@st.composite
def irregular_supports(draw):
    # registers over a random support of a small register: traced columns
    # hold mixed numbers of entries, on row-sets that partly overlap; each
    # register zeroes some entries exactly, and some share a nonzero pattern
    d, n = draw(st.sampled_from([(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3)]))
    members = draw(
        st.lists(st.sampled_from(MEMBERSHIPS), min_size=n, max_size=n).filter(
            lambda m: set(m) != {NONE}
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    fill = draw(st.floats(min_value=0.05, max_value=1.0))
    zeros = draw(st.sampled_from([0.0, 0.2, 0.5]))
    count = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(seed)
    amps = d ** (2 * n + 1)
    index = rng.choice(amps, size=max(1, round(fill * amps)), replace=False)
    shape = (count, len(index))
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mask = rng.random(values.shape) < zeros
    for reg in range(1, count):
        if rng.random() < 0.5:
            mask[reg] = mask[0]
    values[mask] = 0
    norms = np.linalg.norm(values, axis=1, keepdims=True)
    return d, n, RegisterSubset(tuple(members)), index, values / np.where(norms > 0, norms, 1)


@settings(deadline=None, max_examples=200)
@given(case=irregular_supports())
def test_reduce_support_matches_the_dense_partial_trace_on_irregular_supports(case):
    # an encoded support only gives blocks of one shape over disjoint
    # row-sets, so this is what exercises blocks of mixed shapes, blocks
    # whose row-sets overlap and therefore add up, and mixed patterns
    d, n, subset, index, values = case
    keep = []
    for label in subset.kept_labels():
        kind, i = parse_label(label)
        keep.append(2 * i - 1 if kind == "S" else 2 * i)  # layout [A, S1, N1, ..., Sn, Nn]
    together = reduce_support(index, values, d, n, subset)
    for row, rho in zip(values, together):
        vec = np.zeros(d ** (2 * n + 1), dtype=complex)
        vec[index] = row
        dense = partial_trace(np.outer(vec, vec.conj()), (d,) * (2 * n + 1), keep)
        assert np.max(np.abs(rho.matrix - dense)) <= 1e-14
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)
        assert np.array_equal(rho.matrix, reduce_support(index, row, d, n, subset).matrix)
