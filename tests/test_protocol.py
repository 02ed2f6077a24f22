"""Register subsets, encoder, and the contraction oracle."""

import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cloneleak.analytic import aligned_reduced
from cloneleak.pauli import PauliWord, PureState, enc_coefficient_value, random_states
from cloneleak.protocol import (
    ENCODER_DIM_LIMIT,
    STATE_AMPLITUDE_LIMIT,
    CapacityError,
    ReducedState,
    RegisterSubset,
    build_encoder,
    encode,
    encode_support,
    kron_all,
    oracle_reduced,
    parse_label,
    partial_trace,
    permute_subsystems,
    _encoder_tables,
    reduce_encoded,
    reduce_support,
)
from oracle_helpers import bell_state


def test_bell_state_amplitudes():
    assert_allclose(bell_state(2), np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)
    vec = bell_state(3)
    expected = np.zeros(9)
    expected[[0, 4, 8]] = 1 / np.sqrt(3)
    assert_allclose(vec, expected, atol=1e-15)


def test_bell_halves_are_maximally_mixed():
    for d in (2, 3, 5):
        rho = np.outer(bell_state(d), bell_state(d).conj())
        for keep in ([0], [1]):
            assert_allclose(partial_trace(rho, (d, d), keep), np.eye(d) / d, atol=1e-14)


def layout_axis(label):
    """Register axis from the documented layout [A, S1, N1, ..., Sn, Nn]."""
    kind, i = parse_label(label)
    return 2 * i - 1 if kind == "S" else 2 * i


def test_register_layout():
    whole = RegisterSubset(("both", "both"))
    assert whole.kept_labels() == ("S1", "S2", "N1", "N2")
    assert whole.kept_axes() == (1, 3, 2, 4)
    assert RegisterSubset.from_labels("N2,S1", 2).kept_axes() == (1, 4)
    vec = encode(PureState.basis(3, 0), 3, 2)
    assert vec.shape == (3**5,)
    with pytest.raises(ValueError):
        RegisterSubset.from_labels("S3", 2)
    with pytest.raises(ValueError):
        reduce_encoded(vec, 1, 2, whole)
    with pytest.raises(ValueError):
        reduce_encoded(vec, 3, 0, whole)


def test_kept_labels_and_axes_agree():
    for n in (1, 2, 3):
        for members in itertools.product(("none", "signal", "noise", "both"), repeat=n):
            if all(m == "none" for m in members):
                continue
            sub = RegisterSubset(members)
            assert sub.kept_axes() == tuple(layout_axis(lab) for lab in sub.kept_labels())
            assert sub.size == len(sub.kept_axes())


def test_parse_label():
    assert parse_label("S1") == ("S", 1)
    assert parse_label(" n12 ") == ("N", 12)
    for bad in ("", "A", "S", "X1", "S0x", "1S"):
        with pytest.raises(ValueError):
            parse_label(bad)


def test_subset_from_labels():
    sub = RegisterSubset.from_labels("S2,N1,S1", 3)
    assert sub.members[0] == "both"
    assert sub.members[1] == "signal"
    assert sub.members[2] == "none"
    assert sub.kept_labels() == ("S1", "S2", "N1")
    assert str(sub) == "S1,S2,N1"
    assert sub.size == 3


def test_subset_from_iterable_and_duplicates():
    sub = RegisterSubset.from_labels(["S1", "S1", "N2"], 2)
    assert sub.members == ("signal", "noise")
    with pytest.raises(ValueError):
        RegisterSubset.from_labels("S3", 2)
    with pytest.raises(ValueError):
        RegisterSubset.from_labels("Q1", 2)
    with pytest.raises(ValueError):
        RegisterSubset.from_labels("", 2)


def test_subset_flags():
    sub = RegisterSubset.from_labels("S1,N1,S2", 3)
    assert sub.full_pairs == (1,)
    assert sub.signal_count == 1
    assert not sub.touches_all_pairs
    assert not sub.is_aligned
    assert not RegisterSubset.from_labels("S1,N1,S2,N3", 3).is_aligned

    ali = RegisterSubset.from_labels("N1,S2", 2)
    assert ali.is_aligned
    assert ali.touches_all_pairs
    assert ali.signal_count == 1
    assert ali.kept_labels() == ("S2", "N1")


def test_aligned_constructor():
    sub = RegisterSubset.aligned(3, 2)
    assert sub.members == ("signal", "signal", "noise")
    assert sub.kept_labels() == ("S1", "S2", "N3")
    with pytest.raises(ValueError):
        RegisterSubset.aligned(3, 4)
    for bad in (True, 1.0):
        with pytest.raises(TypeError, match="signal count must be an int"):
            RegisterSubset.aligned(3, bad)


def test_subset_validation():
    with pytest.raises(ValueError):
        RegisterSubset(())
    with pytest.raises(ValueError):
        RegisterSubset(("none", "none"))
    with pytest.raises(ValueError):
        RegisterSubset(("signal", "sig"))


def test_encoder_unitarity():
    cases = [(d, 1) for d in range(2, 8)] + [(2, 2), (3, 2), (2, 3)]
    for d, n in cases:
        u = build_encoder(d, n)
        side = d ** (n + 1)
        assert np.max(np.abs(u @ u.conj().T - np.eye(side))) < 1e-10


def test_encoder_against_entrywise_formula():
    # column (j_0..j_n) of the encoder holds (1/d) sum_l c_{k,l} w^{l * sum_f j_f}
    # at row (j_f + k), one k per row pattern; everything else is zero
    for d, n in ((2, 1), (3, 1), (4, 1), (2, 2)):
        u = build_encoder(d, n)
        side = d ** (n + 1)
        expected = np.zeros((side, side), dtype=complex)
        for col in range(side):
            j = np.unravel_index(col, (d,) * (n + 1))
            for k in range(d):
                row = np.ravel_multi_index(tuple((jf + k) % d for jf in j), (d,) * (n + 1))
                expected[row, col] = sum(
                    enc_coefficient_value(d, k, l) * np.exp(2j * np.pi * l * sum(j) / d)
                    for l in range(d)
                ) / d
        assert_allclose(u, expected, atol=1e-12)


def test_encode_is_normalized():
    for d, n in ((2, 1), (3, 1), (2, 2), (3, 2), (5, 1), (2, 3), (3, 3)):
        psi = random_states(d, 1, seed=n * 10 + d)[0]
        vec = encode(psi, d, n)
        assert abs(np.vdot(vec, vec).real - 1.0) < 1e-12


def test_encode_matches_dense_encoder_application():
    # independent route: build the unitary, apply it to psi (x) Bell^n with the
    # signal qudits gathered up front, then scatter axes back to the layout
    for d, n in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3)):
        psi = random_states(d, 1, seed=17 + d + n)[0]
        inp = psi.amplitudes
        for _ in range(n):
            inp = np.kron(inp, bell_state(d))
        # gather [A, S1, N1, ...] -> [A, S1..Sn, N1..Nn]
        gather = [0] + [2 * i - 1 for i in range(1, n + 1)] + [2 * i for i in range(1, n + 1)]
        t = inp.reshape((d,) * (2 * n + 1)).transpose(gather).reshape(-1)
        u = np.kron(build_encoder(d, n), np.eye(d**n))
        out = (u @ t).reshape((d,) * (2 * n + 1))
        scatter = np.argsort(gather)
        expected = out.transpose(scatter).reshape(-1)
        assert_allclose(encode(psi, d, n), expected, atol=1e-12)
        # a batch writes each row as encoding its state alone does
        assert np.array_equal(encode([psi, psi], d, n)[1], encode(psi, d, n))


def test_encode_matches_the_encoder_on_wider_shapes():
    # the unitary acts on the d^(n+1) gathered [A, S1..Sn] index of the
    # (d^(n+1), d^n) reshaped input, so no kron with the identity is needed;
    # a basis state leaves exact zeros in the source factor of every branch
    for d, n in ((4, 2), (5, 2), (6, 1), (4, 3), (5, 3), (7, 2)):
        u = build_encoder(d, n)
        gather = [0] + [2 * i - 1 for i in range(1, n + 1)] + [2 * i for i in range(1, n + 1)]
        states = [random_states(d, 1, seed=31 * d + n)[0], PureState.basis(d, d - 2)]
        for psi in states:
            inp = psi.amplitudes
            for _ in range(n):
                inp = np.kron(inp, bell_state(d))
            t = inp.reshape((d,) * (2 * n + 1)).transpose(gather).reshape(d ** (n + 1), d**n)
            out = (u @ t).reshape((d,) * (2 * n + 1))
            expected = out.transpose(np.argsort(gather)).reshape(-1)
            assert_allclose(encode(psi, d, n), expected, rtol=0, atol=1e-12)
        batch = [*states, random_states(d, 1, seed=d + 7 * n)[0]]
        rows = encode(batch, d, n)
        assert rows.shape == (3, d ** (2 * n + 1))
        for state, row in zip(batch, rows):
            assert np.array_equal(row, encode(state, d, n))


def test_encode_batch_edges():
    for d, n in ((2, 1), (3, 2)):
        empty = encode([], d, n)
        assert empty.shape == (0, d ** (2 * n + 1)) and empty.dtype == complex
    with pytest.raises(TypeError, match="ndarray"):
        encode([PureState.basis(2, 0), np.array([1.0, 0.0])], 2, 1)
    with pytest.raises(TypeError, match="int"):
        encode([3], 2, 1)
    with pytest.raises(ValueError, match="dimension 3"):
        encode([PureState.basis(2, 0), PureState.basis(3, 0)], 2, 1)


def test_capacity_guards():
    psi = PureState.basis(10, 0)
    with pytest.raises(CapacityError):
        build_encoder(10, 3)  # 10^4 > 4096
    with pytest.raises(CapacityError):
        encode(psi, 10, 4)  # 10^9 amplitudes
    assert 10**4 > ENCODER_DIM_LIMIT
    assert 10**9 > STATE_AMPLITUDE_LIMIT
    # at n = 1 the d^2 x d^2 pair table outgrows the d^3 register
    with pytest.raises(CapacityError) as info:
        encode(PureState.basis(57, 0), 57, 1)
    assert (info.value.what, info.value.size, info.value.limit) == (
        "encoder pair table d^4", 57**4, STATE_AMPLITUDE_LIMIT
    )
    assert encode(PureState.basis(56, 0), 56, 1).shape == (56**3,)


def test_encode_builds_no_d6_pair_table():
    # a d^6 Kronecker pair table would take 268 MB at d = 16; the d^4 table
    # and the d^3 register take about 1 MB
    psi = random_states(16, 1, seed=4)[0]
    _encoder_tables.cache_clear()  # measure the tables' build too
    tracemalloc.start()
    try:
        encode(psi, 16, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_encoder_tables_are_shared_read_only_and_never_returned():
    states = random_states(3, 2, seed=4)
    _encoder_tables.cache_clear()
    index, values = encode_support(states, 3, 2)
    first = index.copy(), values.copy()
    tables = _encoder_tables(3)
    assert _encoder_tables(3) is tables
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table.flat[0] = 0
    index[:], values[:] = 0, 0  # the outputs are the caller's own
    again = encode_support(states, 3, 2)
    assert np.array_equal(again[0], first[0]) and np.array_equal(again[1], first[1])


def test_encode_memory_stays_near_the_register():
    # the register holds d^(n+2) nonzeros among its d^(2n+1) amplitudes, so
    # beside it encode needs only O(d^(n+2)) values and indices: at (2, 8)
    # the register is 2 MB, and a dense d^2 x d^(2n-1) branch table would
    # add another
    d, n = 2, 8
    psi = random_states(d, 1, seed=8)[0]
    register_bytes = d ** (2 * n + 1) * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        encode(psi, d, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * register_bytes


def test_encode_beyond_encoder_capacity():
    # 17^3 = 4913 overflows the dense encoder, but the statevector route
    # only needs 17^5 amplitudes and must still work
    d, n = 17, 2
    with pytest.raises(CapacityError):
        build_encoder(d, n)
    psi = PureState.basis(d, 3)
    vec = encode(psi, d, n)
    assert abs(np.vdot(vec, vec).real - 1.0) < 1e-12


def test_reduced_state_record():
    rho = ReducedState(2, ("S1",), np.eye(2) / 2)
    assert rho.dim == 2
    assert rho.purity() == pytest.approx(0.5)
    rho.check()
    with pytest.raises(ValueError):
        ReducedState(2, ("S1", "N1"), np.eye(2) / 2)
    with pytest.raises(ValueError):
        ReducedState(2, ("S1",), np.array([[1.0, 1.0], [0.0, 0.0]])).check()


def test_purity_is_the_trace_of_the_square():
    # S1,S2,N3 leaks at d = 3 (g = 3), so both states carry complex
    # off-diagonal entries and are purer than I/27
    d, n = 3, 3
    psi = random_states(d, 1, seed=12)[0]
    sub = RegisterSubset.from_labels("S1,S2,N3", n)
    for rho in (oracle_reduced(psi, d, n, sub), aligned_reduced(d, sub, psi)):
        m = rho.matrix
        assert rho.purity() == pytest.approx(np.trace(m @ m).real, rel=0, abs=1e-15)
        assert rho.purity() > 1 / d**3 + 1e-4


def test_reduced_state_serialization_roundtrip():
    rho = ReducedState(2, ("S1",), np.array([[0.5, 0.5j], [-0.5j, 0.5]]))
    rec = rho.to_dict()
    flat = np.array([complex(re, im) for re, im in rec["matrix"]])
    assert_allclose(flat.reshape(2, 2), rho.matrix, atol=0)
    assert rec["labels"] == ["S1"]
    assert rec["dim"] == 2


def test_oracle_outputs_are_density_matrices():
    # the encoder's support reduces to the same bits as its dense register;
    # basis states leave exact zeros in that support, which must be dropped
    for d, n in ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (2, 3)):
        psi = random_states(d, 1, seed=5 * d + n)[0]
        other = random_states(d, 1, seed=d)[0]
        batch = [psi, PureState.basis(d, 0), other, PureState.basis(d, d - 1)]
        index, values = encode_support(batch, d, n)
        assert values.shape == (len(batch), d ** (n + 2)) and np.any(values == 0)
        registers = encode(batch, d, n)
        for members in itertools.product(("none", "signal", "noise", "both"), repeat=n):
            if all(m == "none" for m in members):
                continue
            sub = RegisterSubset(members)
            dense = reduce_encoded(registers, d, n, sub)
            for rho, alone in zip(reduce_support(index, values, d, n, sub), dense):
                assert np.array_equal(rho.matrix, alone.matrix), (d, n, members)
            assert np.array_equal(oracle_reduced(psi, d, n, sub).matrix, dense[0].matrix)
            rho = reduce_encoded(registers[0], d, n, sub).check(atol=1e-10)
            assert np.array_equal(rho.matrix, rho.matrix.conj().T), (d, n, members)


def test_noise_qudit_alone_is_maximally_mixed():
    for d in (2, 3, 4, 5, 6):
        for n in (1, 2):
            psi = random_states(d, 1, seed=d + n)[0]
            sub = RegisterSubset.from_labels("N1", n)
            rho = oracle_reduced(psi, d, n, sub)
            assert np.max(np.abs(rho.matrix - np.eye(d) / d)) < 1e-12


def test_source_qudit_is_maximally_mixed_after_encoding():
    # encryption hides the input from anyone holding A alone
    for d, n in ((2, 1), (3, 1), (2, 2), (4, 1)):
        psi = random_states(d, 1, seed=d * n)[0]
        vec = encode(psi, d, n)
        rho = np.outer(vec, vec.conj())
        rho_a = partial_trace(rho, (d,) * (2 * n + 1), [0])
        assert np.max(np.abs(rho_a - np.eye(d) / d)) < 1e-12


def test_partial_trace_consistency_with_oracle():
    # contracting the statevector to a small subset must equal first taking a
    # larger subset, then tracing the extra qudits off the density matrix
    d, n = 3, 2
    psi = random_states(d, 1, seed=23)[0]
    vec = encode(psi, d, n)
    big = reduce_encoded(vec, d, n, RegisterSubset.from_labels("S1,N1,S2", n))
    # big labels: (S1, S2, N1); keep (S1,) then (S2, N1)
    small = reduce_encoded(vec, d, n, RegisterSubset.from_labels("S1", n))
    assert_allclose(partial_trace(big.matrix, (d,) * 3, [0]), small.matrix, atol=1e-12)
    cross = reduce_encoded(vec, d, n, RegisterSubset.from_labels("S2,N1", n))
    assert_allclose(partial_trace(big.matrix, (d,) * 3, [1, 2]), cross.matrix, atol=1e-12)


def test_reduce_encoded_matches_density_matrix_route():
    # the dimensions of the benchmark's oracle shapes (7,3) (6,3) (5,3) (4,4)
    # (3,5) (2,8), each at the largest n whose dense density matrix has at
    # most 2^10 rows; every subset, against the dense partial trace
    for d, n in ((2, 2), (7, 1), (6, 1), (5, 1), (4, 2), (3, 2), (2, 4)):
        psi = random_states(d, 1, seed=9)[0]
        vec = encode(psi, d, n)
        rho = np.outer(vec, vec.conj())
        for members in itertools.product(("none", "signal", "noise", "both"), repeat=n):
            if all(m == "none" for m in members):
                continue
            sub = RegisterSubset(members)
            keep = [layout_axis(lab) for lab in sub.kept_labels()]
            viamat = partial_trace(rho, (d,) * (2 * n + 1), keep)
            assert_allclose(reduce_encoded(vec, d, n, sub).matrix, viamat, rtol=0, atol=1e-14)


def test_reduce_encoded_validation():
    vec = encode(PureState.basis(2, 0), 2, 1)
    with pytest.raises(ValueError):
        reduce_encoded(vec, 2, 2, RegisterSubset.from_labels("S1", 2))
    with pytest.raises(ValueError):
        reduce_encoded(vec[:-1], 2, 1, RegisterSubset.from_labels("S1", 1))
    with pytest.raises(ValueError):  # a batch is a matrix of registers, not a deeper array
        reduce_encoded(vec.reshape(1, 1, -1), 2, 1, RegisterSubset.from_labels("S1", 1))


def test_reduce_encoded_is_exact_on_any_vector():
    # the support route reads only where the input is zero, so it must match
    # the dense partial trace on vectors encode never makes, and a batch
    # reduced over the union of its rows' supports must give each row the
    # bits a call of its own gives; the half-zeroed row leaves its traced
    # columns holding different counts, so its entries sit at offsets within
    # a column that the dense row's union support does not give them
    rng = np.random.default_rng(12)
    for d, n in ((2, 2), (3, 2), (2, 3)):
        amps = d ** (2 * n + 1)
        dense = rng.normal(size=amps) + 1j * rng.normal(size=amps)
        uneven = rng.normal(size=amps) + 1j * rng.normal(size=amps)
        uneven[rng.random(amps) < 0.5] = 0
        single = np.zeros(amps, dtype=complex)
        single[rng.integers(amps)] = 0.6 - 0.8j
        batch = np.array([
            dense / np.linalg.norm(dense),
            uneven / np.linalg.norm(uneven),
            encode(PureState.basis(d, 1), d, n),
            single,
            encode(random_states(d, 1, seed=d + n)[0], d, n),
        ])
        supports = {tuple(np.flatnonzero(vec)) for vec in batch}
        assert len(supports) == len(batch)
        for members in itertools.product(("none", "signal", "noise", "both"), repeat=n):
            if all(m == "none" for m in members):
                continue
            sub = RegisterSubset(members)
            keep = [layout_axis(lab) for lab in sub.kept_labels()]
            together = reduce_encoded(batch, d, n, sub)
            assert len(together) == len(batch)
            for vec, rho in zip(batch, together):
                alone = reduce_encoded(vec, d, n, sub)
                assert isinstance(alone, ReducedState)
                assert np.array_equal(rho.matrix, alone.matrix), (d, n, members)
                assert np.array_equal(rho.matrix, rho.matrix.conj().T), (d, n, members)
                viamat = partial_trace(np.outer(vec, vec.conj()), (d,) * (2 * n + 1), keep)
                assert_allclose(rho.matrix, viamat, rtol=0, atol=1e-14)


def test_batch_rows_equal_their_own_calls_on_every_aligned_shape():
    # a sweep row reduces its 10 samples in one call; each must get the bits
    # of a call of its own, also once a basis state, whose support holds
    # exact zeros and so has a second nonzero pattern, joins the batch
    for d in range(2, 7):
        for n in range(1, 4):
            states = random_states(d, 10, seed=7 * d + n)
            index, values = encode_support([*states, PureState.basis(d, 1)], d, n)
            assert np.any(values[-1] == 0) and np.all(values[:-1] != 0)
            for p in range(n + 1):
                sub = RegisterSubset.aligned(n, p)
                for batch in (values[:-1], values):
                    for row, rho in zip(batch, reduce_support(index, batch, d, n, sub)):
                        alone = reduce_support(index, row, d, n, sub)
                        assert np.array_equal(rho.matrix, alone.matrix), (d, n, p, len(batch))


def test_reduce_encoded_keeps_batch_rows_apart():
    # registers of three nonzeros each: the batch's union support holds
    # fewer entries than there are traced columns, and no entry of one
    # register may pair with an entry of another
    rng = np.random.default_rng(4)
    for d, n in ((2, 2), (3, 2)):
        amps = d ** (2 * n + 1)
        batch = np.zeros((6, amps), dtype=complex)
        for vec in batch:
            vec[rng.choice(amps, size=3, replace=False)] = [0.6, 0.48j, -0.64]
        for members in itertools.product(("none", "signal", "noise", "both"), repeat=n):
            if all(m == "none" for m in members):
                continue
            sub = RegisterSubset(members)
            keep = [layout_axis(lab) for lab in sub.kept_labels()]
            for vec, rho in zip(batch, reduce_encoded(batch, d, n, sub)):
                viamat = partial_trace(np.outer(vec, vec.conj()), (d,) * (2 * n + 1), keep)
                assert_allclose(rho.matrix, viamat, rtol=0, atol=1e-15)


def test_reduce_encoded_memory_stays_near_the_output_on_dense_input():
    # a dense register at d = 2, n = 5 keeping 9 qudits: side 512 over 4
    # traced columns, so about 1.05M products, which would take about 40 MB
    # of index and product arrays at once against a 4 MB output
    rng = np.random.default_rng(5)
    vec = rng.normal(size=2**11) + 1j * rng.normal(size=2**11)
    vec /= np.linalg.norm(vec)
    sub = RegisterSubset(("both", "both", "both", "both", "signal"))
    tracemalloc.start()
    try:
        rho = reduce_encoded(vec, 2, 5, sub)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rho.dim == 512
    assert peak < 3 * rho.matrix.nbytes
    assert abs(np.trace(rho.matrix) - 1) < 1e-12


@pytest.mark.parametrize("d,n", [(2, 6), (2, 7), (3, 4)])
def test_reduce_encoded_memory_stays_near_the_register_when_one_qudit_is_kept(d, n):
    # the other dense regime: a d x d output, and one block whose columns
    # are the whole register, so what the call holds scales with the
    # register: W, its conjugate and the plan's index arrays
    rng = np.random.default_rng(d + n)
    amps = d ** (2 * n + 1)
    vec = rng.normal(size=amps) + 1j * rng.normal(size=amps)
    vec /= np.linalg.norm(vec)
    tracemalloc.start()
    try:
        rho = reduce_encoded(vec, d, n, RegisterSubset.from_labels("S1", n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rho.dim == d
    assert peak < 8 * vec.nbytes
    assert abs(np.trace(rho.matrix) - 1) < 1e-12


def test_reduce_support_validation():
    index, values = encode_support(PureState.basis(2, 0), 2, 1)
    sub = RegisterSubset.from_labels("S1", 1)
    with pytest.raises(ValueError, match="amplitudes at"):
        reduce_support(index, values[:-1], 2, 1, sub)
    with pytest.raises(ValueError, match="flat indices"):
        reduce_support(index.astype(float), values, 2, 1, sub)
    with pytest.raises(ValueError, match="distinct"):
        reduce_support(np.zeros_like(index), values, 2, 1, sub)
    with pytest.raises(ValueError, match="lie in"):
        reduce_support(index + 8, values, 2, 1, sub)
    with pytest.raises(ValueError, match="spans"):
        reduce_support(index, values, 2, 1, RegisterSubset.from_labels("S1", 2))
    # any integer type of index is read by value
    small = reduce_support(index.astype(np.uint8), values, 2, 1, sub)
    assert np.array_equal(small.matrix, reduce_support(index, values, 2, 1, sub).matrix)


def test_an_empty_support_reduces_to_zero_states():
    # these once failed in numpy's reshape instead of returning zeros
    sub = RegisterSubset.from_labels("S1,N2", 2)
    empty = np.array([], dtype=int)
    batch = reduce_support(empty, np.zeros((2, 0)), 3, 2, sub)
    single = reduce_support(empty, np.zeros(0), 3, 2, sub)
    dense = reduce_encoded(np.zeros(3**5), 3, 2, sub)
    assert len(batch) == 2
    for rho in (*batch, single, dense):
        assert rho.labels == ("S1", "N2")
        assert np.array_equal(rho.matrix, np.zeros((9, 9)))


def test_oracle_reduced_never_forms_the_register():
    # at (2, 11) the dense register is 2^23 amplitudes, 134 MB, while its
    # support holds 2^13 of them
    d, n = 2, 11
    psi = random_states(d, 1, seed=11)[0]
    register_bytes = d ** (2 * n + 1) * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        rho = oracle_reduced(psi, d, n, RegisterSubset.from_labels("S1,N2", n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rho.dim == 4
    assert peak < 0.1 * register_bytes


def test_bell_split_identities():
    # tracing one half of (W1 (x) I)|Bell><Bell|(W2 (x) I)^+ leaves a word product
    for d in (2, 3, 5):
        phi = bell_state(d)
        for _ in range(4):
            rng = np.random.default_rng(d)
            a1, b1, a2, b2 = rng.integers(0, d, size=4)
            w1 = PauliWord(d, a=int(a1), b=int(b1))
            w2 = PauliWord(d, a=int(a2), b=int(b2))
            lhs = np.kron(w1.matrix(), np.eye(d)) @ np.outer(phi, phi.conj())
            lhs = lhs @ np.kron(w2.matrix(), np.eye(d)).conj().T
            kept_s = partial_trace(lhs, (d, d), [0])
            kept_n = partial_trace(lhs, (d, d), [1])
            assert_allclose(kept_s, (w1 * w2.dagger()).matrix() / d, atol=1e-13)
            assert_allclose(kept_n, (w2.dagger() * w1).matrix().T / d, atol=1e-13)


def test_source_trace_identity():
    # tr[W1 |psi><psi| W2^+] = <psi| W2^+ W1 |psi>: the cross-branch weights
    # that the closed forms rely on
    d = 5
    psi = random_states(d, 1, seed=31)[0]
    rng = np.random.default_rng(7)
    for _ in range(20):
        a1, b1, a2, b2 = (int(x) for x in rng.integers(0, d, size=4))
        w1 = PauliWord(d, a=a1, b=b1)
        w2 = PauliWord(d, a=a2, b=b2)
        lhs = np.trace(
            w1.matrix() @ np.outer(psi.amplitudes, psi.amplitudes.conj()) @ w2.matrix().conj().T
        )
        rhs = np.vdot(psi.amplitudes, (w2.dagger() * w1).matrix() @ psi.amplitudes)
        assert abs(lhs - rhs) < 1e-13


def test_missing_pair_states_ignore_the_input():
    d, n = 3, 2
    states = random_states(d, 4, seed=2)
    sub = RegisterSubset.from_labels("S1,N1", n)
    mats = [oracle_reduced(psi, d, n, sub).matrix for psi in states]
    for m in mats[1:]:
        assert np.max(np.abs(m - mats[0])) < 1e-12


def test_partial_trace_validation():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), (2, 2), [0, 0])
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), (2, 2), [2])
    with pytest.raises(ValueError):
        partial_trace(np.eye(3), (2, 2), [0])


def test_partial_trace_keep_order():
    a = np.diag([1.0, 2.0])
    b = np.array([[0.5, 0.1], [0.1, 0.5]])
    ab = np.kron(a, b)
    assert_allclose(partial_trace(ab, (2, 2), [0]), a * np.trace(b), atol=1e-14)
    assert_allclose(partial_trace(ab, (2, 2), [1]), b * np.trace(a), atol=1e-14)
    assert_allclose(partial_trace(ab, (2, 2), [1, 0]), np.kron(b, a), atol=1e-14)


def test_permute_subsystems():
    a = np.arange(4).reshape(2, 2) + 0.0
    b = np.arange(9).reshape(3, 3) + 0.0
    ab = np.kron(a, b)
    ba = permute_subsystems(ab, (2, 3), [1, 0])
    assert_allclose(ba, np.kron(b, a), atol=0)
    assert_allclose(permute_subsystems(ab, (2, 3), [0, 1]), ab, atol=0)
    with pytest.raises(ValueError):
        permute_subsystems(ab, (2, 3), [0, 0])


def test_kron_all_empty_is_scalar_identity():
    assert_allclose(kron_all([]), np.ones((1, 1)), atol=0)
    m = np.arange(4).reshape(2, 2)
    assert_allclose(kron_all([m]), m, atol=0)
