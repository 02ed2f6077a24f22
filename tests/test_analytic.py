"""Closed-form reduced states against the contraction oracle."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cloneleak.analytic import (
    LeakTerm,
    aligned_coefficient_exponent,
    aligned_reduced,
    _digits,
    leaked_words,
    missing_pair_reduced,
    missing_pair_subset_reduced,
)
from cloneleak.classify import analytic_reduced, trace_distance
from cloneleak.modnum import satisfies_system, solve_aligned_system
from cloneleak.pauli import PauliWord, PureState, expectation, phase_value, random_states
from cloneleak.protocol import (
    ENCODER_DIM_LIMIT,
    MEMBERSHIPS,
    NOISE,
    NONE,
    REDUCED_SIDE_LIMIT,
    SIGNAL,
    STATE_AMPLITUDE_LIMIT,
    CapacityError,
    RegisterSubset,
    build_encoder,
    encode,
    kron_all,
    oracle_reduced,
    reduce_encoded,
)
from oracle_helpers import single_clone_reduced


def word_basis_element(d, p, q, a, b):
    """(X^a Z^b)^{(x)p} (x) (X^{-a} Z^b)^{(x)q} as a dense matrix."""
    sig = PauliWord(d, a=a, b=b).matrix()
    noi = PauliWord(d, a=-a, b=b).matrix()
    return kron_all([sig] * p + [noi] * q)


def test_aligned_subset_shape_and_solution_set():
    sub = RegisterSubset.aligned(3, 2)
    assert (sub.signal_count, sub.n - sub.signal_count) == (2, 1)
    sols = solve_aligned_system(6, 2, 1)
    assert sols.g == 3
    assert sols.as_set() == {(0, 0), (2, 2), (4, 4)}
    with pytest.raises(ValueError):
        RegisterSubset.aligned(2, 3)
    with pytest.raises(ValueError):
        RegisterSubset.aligned(0, 0)


def test_aligned_reduced_keeps_subset_labels():
    psi = random_states(3, 1, seed=0)[0]
    rho = aligned_reduced(3, RegisterSubset.from_labels("N1,S2", 2), psi)
    assert rho.labels == ("S2", "N1")
    with pytest.raises(ValueError, match="not aligned"):
        aligned_reduced(3, RegisterSubset.from_labels("S1,N1", 2), psi)


def test_coefficient_examples():
    assert aligned_coefficient_exponent(7, 1, 0, 0) == 0
    # single kept pair of clones at even d: the extra word carries -1
    (term,) = leaked_words(solve_aligned_system(2, 1, 2))
    assert (term.a, term.b) == (1, 1)
    assert_allclose(phase_value(term.d, term.phase_exponent), -1, atol=1e-15)
    (term,) = leaked_words(solve_aligned_system(4, 1, 2))
    assert (term.a, term.b) == (2, 2)
    assert_allclose(phase_value(term.d, term.phase_exponent), 1, atol=1e-15)


def test_coefficient_exponent_reduces_mod_2d():
    for a in range(6):
        for b in range(6):
            r = aligned_coefficient_exponent(6, 1, a, b)
            assert 0 <= r < 12
            assert r == aligned_coefficient_exponent(6, 1, a + 6, b - 6)


def test_coefficients_against_oracle_extraction():
    """Hilbert-Schmidt projection of the oracle state onto every word.

    The kept-word basis is orthogonal, so tr(E_ab^+ rho) recovers the
    coefficient of (a, b) exactly: gamma(a, b) <X^a Z^b> on the congruence
    solutions and zero everywhere else.  This pins the phase formula and the
    vanishing claim in one shot, with no closed-form code in the loop.
    """
    cases = [(2, 1, 1), (3, 2, 1), (4, 1, 2), (2, 1, 2), (3, 1, 0), (2, 3, 0), (5, 1, 1)]
    for d, p, q in cases:
        gamma = {(0, 0): 1.0}
        for term in leaked_words(solve_aligned_system(d, p, q)):
            gamma[(term.a, term.b)] = phase_value(term.d, term.phase_exponent)
        psi = random_states(d, 1, seed=100 * d + 10 * p + q)[0]
        sub = RegisterSubset.aligned(p + q, p)
        rho = oracle_reduced(psi, d, p + q, sub).matrix
        for a in range(d):
            for b in range(d):
                # np.vdot conjugates its first argument, so this is tr(E^+ rho)
                extracted = np.vdot(word_basis_element(d, p, q, a, b).reshape(-1), rho.reshape(-1))
                if satisfies_system(d, p, q, a, b):
                    expected = gamma[(a, b)] * expectation(psi, PauliWord(d, a=a, b=b))
                    assert abs(extracted - expected) < 1e-10
                else:
                    assert abs(extracted) < 1e-10


def test_leaked_words_examples():
    assert leaked_words(solve_aligned_system(5, 1, 1)) == ()
    terms = leaked_words(solve_aligned_system(2, 1, 2))
    assert terms == (LeakTerm(d=2, a=1, b=1, phase_exponent=2),)
    assert_allclose(phase_value(terms[0].d, terms[0].phase_exponent), -1, atol=1e-15)
    assert terms[0].signal_word() == PauliWord(2, a=1, b=1)
    big = leaked_words(solve_aligned_system(9, 2, 1))
    assert [(t.a, t.b) for t in big] == [(3, 3), (6, 6)]
    assert big[0].to_dict() == {"a": 3, "b": 3, "phase_exponent": 12}


def test_leaked_words_empty_iff_g_one():
    for d in range(2, 13):
        for p in range(0, 4):
            for q in range(0, 4):
                if p + q < 1:
                    continue
                sols = solve_aligned_system(d, p, q)
                assert (len(leaked_words(sols)) == 0) == (sols.g == 1)
                assert len(leaked_words(sols)) == sols.g - 1


def test_aligned_reduced_matches_oracle():
    grid = [(d, n) for d in (2, 3, 4, 5, 6, 7, 8) for n in (1, 2)] + [(2, 3), (3, 3), (6, 3)]
    for d, n in grid:
        states = random_states(d, 2, seed=d * 7 + n)
        for p in range(n + 1):
            batched = aligned_reduced(d, RegisterSubset.aligned(n, p), states)
            for psi, together in zip(states, batched):
                closed = aligned_reduced(d, RegisterSubset.aligned(n, p), psi)
                assert np.array_equal(together.matrix, closed.matrix)
                truth = oracle_reduced(psi, d, n, RegisterSubset.aligned(n, p))
                assert closed.labels == truth.labels
                assert trace_distance(closed, truth) < 1e-10
                closed.check(atol=1e-10)
    # every placement of the signals, not only the canonical one: the closed
    # form keeps the subset's own labels, so it matches the oracle entrywise
    for d, n in ((2, 3), (3, 3), (4, 2)):
        psi = random_states(d, 1, seed=d + n)[0]
        for members in itertools.product((SIGNAL, NOISE), repeat=n):
            sub = RegisterSubset(members)
            closed = analytic_reduced(d, sub, psi)
            truth = oracle_reduced(psi, d, n, sub)
            assert closed.labels == truth.labels
            assert np.linalg.norm(closed.matrix - truth.matrix) < 1e-12


def test_aligned_reduced_trivial_solution_set_is_maximally_mixed():
    psi = random_states(5, 1, seed=1)[0]
    rho = aligned_reduced(5, RegisterSubset.aligned(2, 1), psi)
    assert np.max(np.abs(rho.matrix - np.eye(25) / 25)) < 1e-14


def test_aligned_reduced_dimension_checks():
    psi = random_states(3, 1, seed=0)[0]
    with pytest.raises(ValueError):
        aligned_reduced(4, RegisterSubset.aligned(2, 1), psi)
    with pytest.raises(ValueError):  # every state of a batch is checked
        aligned_reduced(4, RegisterSubset.aligned(2, 1), [random_states(4, 1, seed=0)[0], psi])
    with pytest.raises(CapacityError):
        aligned_reduced(5, RegisterSubset.aligned(6, 1), random_states(5, 1, seed=0)[0])


def test_closed_forms_reject_inputs_that_are_not_states():
    sub = RegisterSubset.aligned(2, 1)
    amps = np.array([1, 0])
    with pytest.raises(TypeError, match="expected PureState, got ndarray"):
        aligned_reduced(2, sub, [amps])
    with pytest.raises(TypeError, match="expected PureState, got int"):
        aligned_reduced(2, sub, amps)  # iterated as a batch of its entries
    for labels in ("S1,N2", "S1,N1", "S1,N1,S2"):  # aligned, missing-pair, authorized
        with pytest.raises(TypeError, match="expected PureState, got ndarray"):
            analytic_reduced(2, RegisterSubset.from_labels(labels, 2), amps)


def test_parity_rule_for_qubits():
    # at d=2 a leak survives exactly when both n and p are odd, and then the
    # whole deviation from white noise is one (XZ)-word with sign (-1)^(n-p+1)
    xz = PauliWord(2, a=1, b=1)
    for n in range(1, 6):
        for p in range(n + 1):
            g = solve_aligned_system(2, p, n - p).g
            psi = random_states(2, 1, seed=3 * n + p)[0]
            rho = aligned_reduced(2, RegisterSubset.aligned(n, p), psi).matrix
            side = 2**n
            if n % 2 == 1 and p % 2 == 1:
                assert g == 2
                sign = (-1) ** (n - p + 1)
                dev = sign * expectation(psi, xz) * kron_all([xz.matrix()] * n) / side
                assert np.max(np.abs(rho - np.eye(side) / side - dev)) < 1e-12
            else:
                assert g == 1
                assert np.max(np.abs(rho - np.eye(side) / side)) < 1e-12


def test_parity_rule_matches_oracle_for_qubits():
    for n in range(1, 6):
        psi = random_states(2, 1, seed=40 + n)[0]
        for p in range(n + 1):
            closed = aligned_reduced(2, RegisterSubset.aligned(n, p), psi)
            truth = oracle_reduced(psi, 2, n, RegisterSubset.aligned(n, p))
            assert trace_distance(closed, truth) < 1e-10


def test_half_point_family_with_quarter_turn_coefficient():
    # even d, one signal and two noises: the leak sits at the half point and
    # its coefficient is i^d; all three factors coincide since -d/2 = d/2
    for d in (2, 4, 6):
        h = d // 2
        w = PauliWord(d, a=h, b=h)
        psi = random_states(d, 1, seed=d)[0]
        sub = RegisterSubset.aligned(3, 1)
        explicit = (
            np.eye(d**3)
            + (1j**d) * expectation(psi, w) * kron_all([w.matrix()] * 3)
        ) / d**3
        assert_allclose(aligned_reduced(d, sub, psi).matrix, explicit, atol=1e-12)


def test_third_point_family_phases():
    # 3 | d, two signals and one noise: leaks at the thirds, with the noise
    # factor shifted the other way around the torus
    for d in (3, 6):
        t = d // 3
        psi = random_states(d, 1, seed=d + 1)[0]
        sub = RegisterSubset.aligned(3, 2)
        dl = d % 2
        w1 = PauliWord(d, a=t, b=t)
        w2 = PauliWord(d, a=2 * t, b=2 * t)
        x1 = np.exp(-1j * np.pi * (4 * d / 9 + 2 * dl / 3)) * expectation(psi, w1)
        y1 = np.exp(-1j * np.pi * (16 * d / 9 + 4 * dl / 3)) * expectation(psi, w2)
        t1 = kron_all([w1.matrix()] * 2 + [PauliWord(d, a=-t, b=t).matrix()])
        t2 = kron_all([w2.matrix()] * 2 + [PauliWord(d, a=-2 * t, b=2 * t).matrix()])
        explicit = (np.eye(d**3) + x1 * t1 + y1 * t2) / d**3
        assert_allclose(aligned_reduced(d, sub, psi).matrix, explicit, atol=1e-12)


def test_third_point_family_matches_oracle():
    d = 3
    psi = random_states(d, 1, seed=77)[0]
    closed = aligned_reduced(d, RegisterSubset.aligned(3, 2), psi)
    truth = oracle_reduced(psi, d, 3, RegisterSubset.aligned(3, 2))
    assert trace_distance(closed, truth) < 1e-10


def test_leaky_states_depend_on_the_input():
    sub = RegisterSubset.aligned(3, 1)
    a, b = random_states(4, 2, seed=5)
    dist = trace_distance(aligned_reduced(4, sub, a), aligned_reduced(4, sub, b))
    assert dist > 1e-3


def test_single_clone_reduced_examples():
    assert_allclose(single_clone_reduced(PureState.basis(2, 0), 2).matrix, np.eye(2) / 2, atol=1e-14)
    assert_allclose(single_clone_reduced(PureState.uniform(3), 3).matrix, np.eye(3) / 3, atol=1e-14)


def test_single_clone_reduced_matches_oracle():
    for d in (2, 3, 4, 5, 6):
        psi = random_states(d, 1, seed=d * 3)[0]
        closed = single_clone_reduced(psi, d)
        truth = oracle_reduced(psi, d, 1, RegisterSubset.aligned(1, 1))
        assert trace_distance(closed, truth) < 1e-10
        closed.check(atol=1e-10)


def test_single_clone_reduced_is_the_aligned_special_case():
    for d in (2, 3, 5, 7):
        psi = random_states(d, 1, seed=d)[0]
        via_general = aligned_reduced(d, RegisterSubset.aligned(1, 1), psi)
        via_special = single_clone_reduced(psi, d)
        assert np.max(np.abs(via_general.matrix - via_special.matrix)) < 1e-12


def test_single_clone_phase_is_minus_a_squared():
    # spot-check one term: the a-th word enters with w^{-a^2} <X^a Z^{-a}>
    d = 5
    psi = random_states(d, 1, seed=8)[0]
    rho = single_clone_reduced(psi, d).matrix
    a = 2
    word = PauliWord(d, a=a, b=-a)
    extracted = np.vdot(word.matrix().reshape(-1), rho.reshape(-1))
    expected = phase_value(d, -2 * a * a) * expectation(psi, word)
    assert abs(extracted - expected) < 1e-12


def test_missing_pair_reduced_single_pair_register():
    rho = missing_pair_reduced(4, 1, 1)
    assert rho.labels == ()
    assert_allclose(rho.matrix, [[1.0]], atol=0)


def test_missing_pair_reduced_one_survivor_is_maximally_mixed():
    # a lone surviving pair averages over all d^2 Bell states: the identity
    for d in (2, 3):
        rho = missing_pair_reduced(d, 2, 2)
        assert rho.labels == ("S1", "N1")
        assert np.max(np.abs(rho.matrix - np.eye(d * d) / (d * d))) < 1e-12
        assert rho.purity() == pytest.approx(1 / d**2, abs=1e-12)


def test_missing_pair_reduced_matches_oracle():
    for d, n, missing in ((2, 2, 1), (3, 2, 2), (2, 3, 2), (3, 3, 1)):
        closed = missing_pair_reduced(d, n, missing)
        rest = [i for i in range(1, n + 1) if i != missing]
        labels = ",".join(f"S{i}" for i in rest) + "," + ",".join(f"N{i}" for i in rest)
        sub = RegisterSubset.from_labels(labels, n)
        for psi in random_states(d, 3, seed=d + n + missing):
            truth = oracle_reduced(psi, d, n, sub)
            assert closed.labels == truth.labels
            assert trace_distance(closed, truth) < 1e-10


def test_missing_pair_reduced_two_survivors_are_correlated():
    # two surviving pairs share the Bell label: far from white noise
    for d in (2, 3):
        rho = missing_pair_reduced(d, 3, 3)
        side = d**4
        assert rho.purity() == pytest.approx(1 / d**2, abs=1e-12)
        assert trace_distance(rho.matrix, np.eye(side) / side) > 0.5
        rho.check(atol=1e-12)


def test_missing_pair_reduced_validation():
    with pytest.raises(ValueError):
        missing_pair_reduced(3, 2, 0)
    with pytest.raises(ValueError):
        missing_pair_reduced(3, 2, 3)
    with pytest.raises(CapacityError):
        missing_pair_reduced(5, 4, 1)  # a kept side of 5^6 overflows the guard
    with pytest.raises(ValueError, match="at least one signal/noise pair"):
        missing_pair_reduced(2, 0, 1)
    for bad_n in (True, 2.0):  # True once gave a 1x1 state, 2.0 a numpy error
        with pytest.raises(TypeError, match="pair count must be an int"):
            missing_pair_reduced(2, bad_n, 1)
    for bad_missing in (True, 1.0):  # True once dropped pair 1, 1.0 failed on a list index
        with pytest.raises(TypeError, match="missing pair must be an int"):
            missing_pair_reduced(2, 2, bad_missing)


def test_missing_pair_subset_reduced_matches_oracle():
    # (2, 4) adds two complete pairs next to lone qudits
    shapes = [(d, n) for d in (2, 3, 4) for n in (1, 2, 3)] + [(2, 4)]
    cases = [
        (d, n, RegisterSubset(members))
        for d, n in shapes
        for members in itertools.product(MEMBERSHIPS, repeat=n)
        if NONE in members and set(members) != {NONE}
    ]
    # two complete pairs at (5, 4): a kept side of 5^4, while the mixture
    # over all surviving pairs would have side 5^6; and at (6, 3), beyond
    # the shapes whose every subset is listed
    cases.append((5, 4, RegisterSubset.from_labels("S1,N1,S2,N2", 4)))
    cases.append((6, 3, RegisterSubset.from_labels("S1,N1,S2,N2", 3)))
    for d, n, sub in cases:
        closed = missing_pair_subset_reduced(d, n, sub)
        for psi in random_states(d, 2, seed=sub.size + d):
            truth = oracle_reduced(psi, d, n, sub)
            assert closed.labels == truth.labels
            assert trace_distance(closed, truth) < 1e-10


def test_missing_pair_subset_entries_are_exact():
    # every nonzero entry is 1/d^(m+1+lone) exactly (1/d^size when m = 0),
    # and the matrix is real and exactly symmetric; m runs 0..3
    cases = [
        (d, n, RegisterSubset(members))
        for d in (2, 3)
        for n in (1, 2, 3, 4)
        for members in itertools.product(MEMBERSHIPS, repeat=n)
        if NONE in members and set(members) != {NONE}
    ]
    assert {len(sub.full_pairs) for _, _, sub in cases} == {0, 1, 2, 3}
    for d, n, sub in cases:
        m = len(sub.full_pairs)
        lone = sub.size - 2 * m
        rho = missing_pair_subset_reduced(d, n, sub).matrix
        value = 1 / d ** (m + 1 + lone) if m else 1 / d**sub.size
        assert (rho[rho != 0] == value).all(), sub
        assert (rho.imag == 0).all() and (rho == rho.T).all(), sub
        assert rho.trace() == pytest.approx(1, abs=1e-12)


def test_missing_pair_subset_one_full_pair_is_maximally_mixed():
    for d in (2, 3):
        sub = RegisterSubset.from_labels("S1,N1,S2", 3)
        rho = missing_pair_subset_reduced(d, 3, sub)
        side = d**3
        assert np.max(np.abs(rho.matrix - np.eye(side) / side)) < 1e-12


def test_missing_pair_subset_two_full_pairs_are_not_mixed():
    sub = RegisterSubset.from_labels("S1,N1,S2,N2", 3)
    rho = missing_pair_subset_reduced(2, 3, sub)
    assert trace_distance(rho.matrix, np.eye(16) / 16) > 0.5


def test_missing_pair_subset_requires_a_missing_pair():
    with pytest.raises(ValueError):
        missing_pair_subset_reduced(2, 2, RegisterSubset.from_labels("S1,N2", 2))
    with pytest.raises(ValueError):
        missing_pair_subset_reduced(2, 2, RegisterSubset.from_labels("S1", 1))


def test_digit_table_is_shared_and_read_only():
    # both closed forms index through one cached table per (d, count)
    digits = _digits(3, 2)
    assert _digits(3, 2) is digits
    assert digits.tolist() == [[r // 3, r % 3] for r in range(9)]
    assert not digits.flags.writeable
    with pytest.raises(ValueError):
        digits[0, 0] = 1


def test_capacity_errors_carry_what_size_and_limit():
    # every dense-object guard names its object, the size asked for and the limit
    psi10 = PureState.basis(10, 0)
    psi5 = PureState.basis(5, 0)
    vec2 = encode(PureState.basis(2, 0), 2, 7)  # 2^15 amplitudes
    kept13 = RegisterSubset.from_labels("S1,N1,S2,N2,S3,N3,S4,N4,S5,N5,S6,N6,S7", 7)
    guards = [
        (lambda: build_encoder(10, 3), "encoder side d^(n+1)", 10**4, ENCODER_DIM_LIMIT),
        (lambda: encode(psi10, 10, 4), "register size d^(2n+1)", 10**9, STATE_AMPLITUDE_LIMIT),
        (lambda: aligned_reduced(5, RegisterSubset.aligned(6, 1), psi5), "kept side d^size", 5**6,
         REDUCED_SIDE_LIMIT),
        (lambda: missing_pair_reduced(5, 4, 1), "kept side d^size", 5**6, REDUCED_SIDE_LIMIT),
        (lambda: reduce_encoded(vec2, 2, 7, kept13), "kept side d^size", 2**13,
         REDUCED_SIDE_LIMIT),
    ]
    for build, what, size, limit in guards:
        with pytest.raises(CapacityError) as info:
            build()
        exc = info.value
        assert (exc.what, exc.size, exc.limit) == (what, size, limit)
        assert str(exc) == f"{what} = {size} exceeds limit {limit}"
