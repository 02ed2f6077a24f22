"""Pauli-word algebra: exact phases against dense matrices."""

import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cloneleak.modnum import delta
from cloneleak.pauli import (
    PauliWord,
    PureState,
    enc_coefficient,
    enc_coefficient_value,
    expectation,
    phase_value,
    random_states,
)

dims = st.integers(min_value=2, max_value=7)
exponents = st.integers(min_value=-20, max_value=20)


def dense_word(d, a, b):
    """Independent construction: explicit shift matrix times explicit clock."""
    shift = np.zeros((d, d), dtype=complex)
    for k in range(d):
        shift[(k + 1) % d, k] = 1.0
    clock = np.diag([np.exp(2j * np.pi * k / d) for k in range(d)])
    return np.linalg.matrix_power(shift, a % d) @ np.linalg.matrix_power(clock, b % d)


def test_matrix_examples():
    assert_allclose(PauliWord(2, a=1).matrix(), [[0, 1], [1, 0]], atol=1e-15)
    assert_allclose(PauliWord(2, b=1).matrix(), [[1, 0], [0, -1]], atol=1e-15)
    assert_allclose(PauliWord(2, a=1, b=1).matrix(), [[0, -1], [1, 0]], atol=1e-15)
    w = np.exp(2j * np.pi / 3)
    assert_allclose(PauliWord(3, b=1).matrix(), np.diag([1, w, w * w]), atol=1e-15)
    x3 = np.zeros((3, 3))
    x3[1, 0] = x3[2, 1] = x3[0, 2] = 1
    assert_allclose(PauliWord(3, a=1).matrix(), x3, atol=1e-15)


def test_exponent_wrapping():
    assert PauliWord(3, a=4, b=-1, r=7) == PauliWord(3, a=1, b=2, r=1)
    assert PauliWord(5, a=5, b=5).is_identity
    assert not PauliWord(5, r=1).is_identity


def test_product_examples():
    d2 = PauliWord(2, a=1) * PauliWord(2, b=1)  # X then Z, already ordered
    assert (d2.a, d2.b, d2.r) == (1, 1, 0)
    swapped = PauliWord(2, b=1) * PauliWord(2, a=1)  # Z X = -XZ
    assert (swapped.a, swapped.b, swapped.r) == (1, 1, 2)
    prod = PauliWord(3, a=2, b=1) * PauliWord(3, a=1, b=2)
    assert (prod.a, prod.b, prod.r) == (0, 0, 2)  # scalar w


def test_dagger_examples():
    assert PauliWord(4).dagger() == PauliWord(4)
    xz = PauliWord(2, a=1, b=1)
    assert xz.dagger() == PauliWord(2, a=1, b=1, r=2)  # (XZ)^+ = -XZ
    assert PauliWord(3, a=1).dagger() == PauliWord(3, a=2)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        PauliWord(2, a=1) * PauliWord(3, a=1)


def test_word_and_coefficient_exponents_must_be_integers():
    # a float exponent once reached matrix() as a bad index, a float phase
    # gave a non-root, and enc_coefficient(3, 1.5, 0) returned 2.25
    for bad in (1.5, 0.5, True, np.int64(1), "1"):
        for name in ("a", "b", "r"):
            with pytest.raises(TypeError, match=f"{name} must be an int"):
                PauliWord(3, **{name: bad})
        with pytest.raises(TypeError, match="k must be an int"):
            enc_coefficient(3, bad, 0)
        with pytest.raises(TypeError, match="l must be an int"):
            enc_coefficient(3, 0, bad)
    assert PauliWord(3, a=-1, b=4, r=7) == PauliWord(3, a=2, b=1, r=1)


def test_order_d_relations():
    for d in range(2, 8):
        x = PauliWord(d, a=1)
        z = PauliWord(d, b=1)
        assert reduce(operator.mul, [x] * d).is_identity
        assert reduce(operator.mul, [z] * d).is_identity


@settings(max_examples=150)
@given(dims, exponents, exponents, exponents)
def test_matrix_against_independent_construction(d, a, b, r):
    w = PauliWord(d, a=a, b=b, r=r)
    expected = phase_value(d, r) * dense_word(d, a, b)
    assert_allclose(w.matrix(), expected, atol=1e-12)


@settings(max_examples=150)
@given(dims, exponents, exponents, exponents, exponents, exponents, exponents)
def test_product_homomorphism(d, a1, b1, r1, a2, b2, r2):
    u = PauliWord(d, a=a1, b=b1, r=r1)
    v = PauliWord(d, a=a2, b=b2, r=r2)
    assert_allclose((u * v).matrix(), u.matrix() @ v.matrix(), atol=1e-12)


@settings(max_examples=150)
@given(dims, exponents, exponents, exponents)
def test_dagger_matches_conjugate_transpose(d, a, b, r):
    w = PauliWord(d, a=a, b=b, r=r)
    assert_allclose(w.dagger().matrix(), w.matrix().conj().T, atol=1e-12)
    assert w.dagger().dagger() == w
    assert (w * w.dagger()).is_identity  # exact, no floats involved


@settings(max_examples=100)
@given(dims, exponents, exponents)
def test_words_are_unitary(d, a, b):
    m = PauliWord(d, a=a, b=b).matrix()
    assert_allclose(m @ m.conj().T, np.eye(d), atol=1e-12)


def test_phase_value_basics():
    assert phase_value(2, 0) == 1
    assert_allclose(phase_value(2, 1), 1j, atol=1e-15)
    assert_allclose(phase_value(2, 2), -1, atol=1e-15)
    assert_allclose(phase_value(3, 6), 1, atol=1e-15)  # wraps mod 2d


def test_enc_coefficient_examples():
    for d in (2, 3, 4, 5):
        assert enc_coefficient(d, 0, 0) == 0
    assert enc_coefficient(2, 1, 0) == 3
    assert_allclose(enc_coefficient_value(2, 1, 0), -1j, atol=1e-15)
    assert enc_coefficient(3, 1, 1) == 2
    assert_allclose(enc_coefficient_value(3, 1, 1), np.exp(-4j * np.pi / 3), atol=1e-15)


def test_enc_coefficient_is_d_periodic():
    # the parity offset makes k*(k+delta) even, so shifting k by d is invisible
    for d in (2, 3, 4, 5, 6, 7):
        for k in range(d):
            for l in range(d):
                assert enc_coefficient(d, k + d, l) == enc_coefficient(d, k, l)
                assert enc_coefficient(d, k, l + d) == enc_coefficient(d, k, l)


def test_coefficient_product_identity_exhaustive():
    # c_{k+a,l+b} * conj(c_{k,l}) collapses to a phase linear in k and l
    for d in (2, 3, 4, 5):
        dl = delta(d)
        for k in range(d):
            for l in range(d):
                for a in range(d):
                    for b in range(d):
                        lhs = enc_coefficient_value(d, k + a, l + b) * np.conj(
                            enc_coefficient_value(d, k, l)
                        )
                        rhs = np.exp(
                            -1j
                            * np.pi
                            * (a * (a + dl) + 2 * a * k + b * (b + dl) + 2 * b * l)
                            / d
                        )
                        assert abs(lhs - rhs) < 1e-12


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(2, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        PureState(3, np.array([1.0, 0.0]))
    # NaN fails every comparison, so the normalization check alone let it in
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            PureState(2, np.array([bad, 1.0]))
    state = PureState.basis(4, 2)
    assert_allclose(state.amplitudes, [0, 0, 1, 0], atol=1e-15)
    assert not state.amplitudes.flags.writeable


def test_basis_state_index():
    # an int index wraps mod d; anything else names its type instead of
    # being read as an int (True as |1>) or failing inside numpy (1.5)
    assert_allclose(PureState.basis(3, 4).amplitudes, [0, 1, 0], atol=0)
    assert_allclose(PureState.basis(3, -1).amplitudes, [0, 0, 1], atol=0)
    for bad in (True, False, 1.5, 1.0, "1", None):
        with pytest.raises(TypeError, match="basis index must be an int"):
            PureState.basis(2, bad)


def test_uniform_state():
    state = PureState.uniform(5)
    assert_allclose(state.amplitudes, np.full(5, 1 / np.sqrt(5)), atol=1e-15)


def test_random_states_are_deterministic_and_normalized():
    first = random_states(6, 4, seed=3)
    second = random_states(6, 4, seed=3)
    other = random_states(6, 4, seed=4)
    for a, b in zip(first, second):
        assert_allclose(a.amplitudes, b.amplitudes, atol=0)
    assert not np.allclose(first[0].amplitudes, other[0].amplitudes)
    for state in first:
        assert abs(np.vdot(state.amplitudes, state.amplitudes) - 1) < 1e-12


def test_random_states_input_checks():
    assert random_states(2, 0, seed=0) == []
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        random_states(1, 0, seed=0)  # an empty batch still names a dimension
    with pytest.raises(ValueError, match="count must be non-negative, got -3"):
        random_states(2, -3, seed=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        random_states(2, 1, seed=-1)
    for bad in (True, 1.0, "1"):
        with pytest.raises(TypeError, match="count must be an int"):
            random_states(2, bad, seed=0)
        with pytest.raises(TypeError, match="seed must be an int"):
            random_states(2, 1, seed=bad)


def test_expectation_examples():
    assert_allclose(expectation(PureState.basis(3, 0), PauliWord(3, b=1)), 1.0, atol=1e-15)
    assert_allclose(expectation(PureState.uniform(3), PauliWord(3, a=1)), 1.0, atol=1e-14)
    assert_allclose(expectation(PureState.basis(3, 0), PauliWord(3, a=1)), 0.0, atol=1e-15)


def test_expectation_against_direct_contraction():
    for d in (2, 3, 5):
        psi = random_states(d, 1, seed=d)[0]
        for a in range(d):
            for b in range(d):
                direct = np.vdot(psi.amplitudes, dense_word(d, a, b) @ psi.amplitudes)
                assert abs(expectation(psi, PauliWord(d, a=a, b=b)) - direct) < 1e-12


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(PureState.basis(2, 0), PauliWord(3))
