"""Acceptance gate: the nine headline guarantees, one test each.

Every test prints a single pass line once its assertions clear (run pytest
with -s to see them; a failure shows up as the usual pytest FAILED line).
Tolerances are pinned here on purpose: loosening them is a contract change,
not a test fix.
"""

import itertools

import numpy as np

from cloneleak.analytic import (
    aligned_reduced,
    leaked_words,
    missing_pair_reduced,
)
from cloneleak.classify import maximally_mixed, trace_distance
from cloneleak.modnum import solve_aligned_system, system_gcd
from cloneleak.pauli import (
    PauliWord,
    enc_coefficient_value,
    expectation,
    random_states,
)
from cloneleak.protocol import (
    RegisterSubset,
    encode,
    oracle_reduced,
    reduce_encoded,
)
from oracle_helpers import (
    build_encoder,
    enumerate_system,
    kron_all,
    numeric_independence_test,
    single_clone_reduced,
)

SEED = 2026


def _report(k: int, text: str) -> None:
    print(f"[criterion {k}] PASS {text}")


def test_criterion_1_encoder_unitarity():
    shapes = [(d, 1) for d in range(2, 8)] + [(2, 2), (2, 3), (3, 2), (3, 3)]
    worst = 0.0
    for d, n in shapes:
        u = build_encoder(d, n)
        side = d ** (n + 1)
        worst = max(worst, float(np.max(np.abs(u @ u.conj().T - np.eye(side)))))
    assert worst < 1e-10
    _report(1, f"encoder unitary on {len(shapes)} shapes, worst deviation {worst:.2e}")


def test_criterion_2_single_pair_reduced_states():
    worst_noise = 0.0
    worst_signal = 0.0
    for d in range(2, 7):
        noise_sub = RegisterSubset.from_labels("N1", 1)
        signal_sub = RegisterSubset.from_labels("S1", 1)
        for psi in random_states(d, 10, SEED):
            vec = encode(psi, d, 1)
            rho_n = reduce_encoded(vec, d, 1, noise_sub)
            worst_noise = max(worst_noise, trace_distance(rho_n, np.eye(d) / d))
            rho_s = reduce_encoded(vec, d, 1, signal_sub)
            worst_signal = max(
                worst_signal, trace_distance(rho_s, single_clone_reduced(psi, d))
            )
    assert worst_noise < 1e-12
    assert worst_signal < 1e-10
    _report(
        2,
        "kept noise qudit is white noise "
        f"({worst_noise:.2e}); kept clone matches its closed form ({worst_signal:.2e})",
    )


def test_criterion_3_two_pair_aligned_states_are_mixed():
    worst = 0.0
    for d in range(2, 7):
        eye = maximally_mixed(d, 2)
        for labels in ("S1,N2", "S1,S2"):
            sub = RegisterSubset.from_labels(labels, 2)
            for psi in random_states(d, 5, SEED):
                rho = oracle_reduced(psi, d, 2, sub)
                worst = max(worst, trace_distance(rho, eye))
    assert worst < 1e-10
    _report(3, f"both two-pair aligned subsets reduce to I/d^2, worst {worst:.2e}")


def test_criterion_4_three_pair_closed_forms():
    worst = 0.0
    for d in range(2, 7):
        states = random_states(d, 5, SEED)
        encoded = [encode(psi, d, 3) for psi in states]
        for p in range(4):
            sub = RegisterSubset.aligned(3, p)
            for psi, vec in zip(states, encoded):
                closed = aligned_reduced(d, sub, psi)
                truth = reduce_encoded(vec, d, 3, sub)
                worst = max(worst, trace_distance(closed, truth))

    # the two families with printed coefficients, built explicitly
    for d in (2, 4, 6):  # one signal, two noises: coefficient i^d at the half point
        h = d // 2
        w = PauliWord(d, a=h, b=h)
        psi = random_states(d, 1, SEED)[0]
        explicit = (
            np.eye(d**3) + (1j**d) * expectation(psi, w) * kron_all([w.matrix()] * 3)
        ) / d**3
        closed = aligned_reduced(d, RegisterSubset.aligned(3, 1), psi)
        assert np.max(np.abs(closed.matrix - explicit)) < 1e-12
    for d in (3, 6):  # two signals, one noise: x1 and y1 at the third points
        t = d // 3
        dl = d % 2
        psi = random_states(d, 1, SEED)[0]
        w1 = PauliWord(d, a=t, b=t)
        w2 = PauliWord(d, a=2 * t, b=2 * t)
        x1 = np.exp(-1j * np.pi * (4 * d / 9 + 2 * dl / 3)) * expectation(psi, w1)
        y1 = np.exp(-1j * np.pi * (16 * d / 9 + 4 * dl / 3)) * expectation(psi, w2)
        t1 = kron_all([w1.matrix()] * 2 + [PauliWord(d, a=-t, b=t).matrix()])
        t2 = kron_all([w2.matrix()] * 2 + [PauliWord(d, a=-2 * t, b=2 * t).matrix()])
        explicit = (np.eye(d**3) + x1 * t1 + y1 * t2) / d**3
        closed = aligned_reduced(d, RegisterSubset.aligned(3, 2), psi)
        assert np.max(np.abs(closed.matrix - explicit)) < 1e-12

    assert worst < 1e-9
    _report(4, f"three-pair closed forms match the oracle, worst {worst:.2e}")


def test_criterion_5_gcd_criterion_full_grid():
    worst_closed = 0.0
    checked = 0
    for d in range(2, 7):
        for n in range(1, 4):
            states = random_states(d, 10, SEED)
            encoded = [encode(psi, d, n) for psi in states]
            for p in range(n + 1):
                g = system_gcd(d, p, n - p)
                sub = RegisterSubset.aligned(n, p)
                ind = numeric_independence_test(d, n, sub, samples=10, seed=SEED, tol=1e-9)
                assert ind.independent == (g == 1), (d, n, p, g, ind)
                for psi, vec in zip(states, encoded):
                    dist = trace_distance(
                        aligned_reduced(d, sub, psi), reduce_encoded(vec, d, n, sub)
                    )
                    worst_closed = max(worst_closed, dist)
                checked += 1
    assert worst_closed < 1e-9
    _report(
        5,
        f"gcd verdict matches numeric independence on {checked} aligned shapes; "
        f"closed form vs oracle worst {worst_closed:.2e}",
    )


def test_criterion_6_congruence_solver_exact():
    count = 0
    for d in range(2, 31):
        for p in range(7):
            for q in range(7):
                if p + q < 1:
                    continue
                fast = solve_aligned_system(d, p, q)
                slow = enumerate_system(d, p, q)
                assert fast.g == slow.g
                assert fast.as_set() == slow.as_set()
                count += 1
    for d in (3, 6, 9):  # two signals, one noise: thirds of d on the diagonal
        expected = {(0, 0), (d // 3, d // 3), (2 * d // 3, 2 * d // 3)}
        assert solve_aligned_system(d, 2, 1).as_set() == expected
    for d in (2, 4, 6):  # one signal, two noises: the half point
        assert solve_aligned_system(d, 1, 2).as_set() == {(0, 0), (d // 2, d // 2)}
    _report(6, f"closed-form solver equals enumeration on {count} systems, sets exact")


def test_criterion_7_qubit_parity_rule():
    xz = PauliWord(2, a=1, b=1)
    worst = 0.0
    for n in range(1, 6):
        side = 2**n
        states = random_states(2, 3, SEED)
        encoded = [encode(psi, 2, n) for psi in states]
        for p in range(n + 1):
            sub = RegisterSubset.aligned(n, p)
            leaks = n % 2 == 1 and p % 2 == 1
            terms = leaked_words(solve_aligned_system(2, p, n - p))
            assert bool(terms) == leaks
            for psi, vec in zip(states, encoded):
                rho = reduce_encoded(vec, 2, n, sub).matrix
                if leaks:
                    sign = (-1) ** (n - p + 1)
                    dev = sign * expectation(psi, xz) * kron_all([xz.matrix()] * n) / side
                    worst = max(
                        worst, float(np.max(np.abs(rho - np.eye(side) / side - dev)))
                    )
                else:
                    worst = max(worst, float(np.max(np.abs(rho - np.eye(side) / side))))
    assert worst < 1e-9
    _report(
        7,
        "qubit registers leak exactly when n and p are both odd, "
        f"single signed (XZ)-word, worst deviation {worst:.2e}",
    )


def test_criterion_8_missing_pair_rule():
    memberships = ("none", "signal", "noise", "both")
    worst_ind = 0.0
    worst_closed = 0.0
    checked = 0
    for d in (2, 3):
        for n in (2, 3):
            # every subset missing at least one full pair is input-independent
            for members in itertools.product(memberships, repeat=n):
                sub = RegisterSubset(members) if any(m != "none" for m in members) else None
                if sub is None or sub.touches_all_pairs:
                    continue
                ind = numeric_independence_test(d, n, sub, samples=5, seed=SEED, tol=1e-9)
                assert ind.independent, (d, n, members, ind)
                worst_ind = max(worst_ind, ind.max_distance)
                # maximal mixedness is decided by how many full pairs survive
                psi = random_states(d, 1, SEED)[0]
                rho = oracle_reduced(psi, d, n, sub)
                gap = trace_distance(rho, maximally_mixed(d, sub.size))
                if len(sub.full_pairs) >= 2:
                    assert gap > 1e-3, (d, n, members, gap)
                else:
                    assert gap < 1e-9, (d, n, members, gap)
                checked += 1
            # dropping one pair whole: the closed form over the survivors
            for missing in range(1, n + 1):
                rest = [i for i in range(1, n + 1) if i != missing]
                labels = [f"S{i}" for i in rest] + [f"N{i}" for i in rest]
                sub = RegisterSubset.from_labels(labels, n)
                closed = missing_pair_reduced(d, n, missing)
                for psi in random_states(d, 5, SEED):
                    dist = trace_distance(closed, oracle_reduced(psi, d, n, sub))
                    worst_closed = max(worst_closed, dist)
    assert worst_ind < 1e-9
    assert worst_closed < 1e-9
    _report(
        8,
        f"{checked} missing-pair subsets are input-independent ({worst_ind:.2e}); "
        f"survivor closed form matches oracle ({worst_closed:.2e}); "
        "mixedness boundary sits at two surviving full pairs",
    )


def test_criterion_9_pauli_algebra_exactness():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for d in range(2, 8):
        for _ in range(1000):
            a1, b1, a2, b2 = (int(x) for x in rng.integers(0, d, size=4))
            r1, r2 = (int(x) for x in rng.integers(0, 2 * d, size=2))
            u = PauliWord(d, a=a1, b=b1, r=r1)
            v = PauliWord(d, a=a2, b=b2, r=r2)
            worst = max(
                worst,
                float(np.max(np.abs((u * v).matrix() - u.matrix() @ v.matrix()))),
                float(np.max(np.abs(u.dagger().matrix() - u.matrix().conj().T))),
                float(np.max(np.abs(((u * v).dagger() * (u * v)).matrix() - np.eye(d)))),
            )
    assert worst < 1e-12

    # coefficient products: exhaustive over both indices and both shifts
    worst_c = 0.0
    for d in range(2, 6):
        dl = d % 2
        for k, l, a, b in itertools.product(range(d), repeat=4):
            lhs = enc_coefficient_value(d, k + a, l + b) * np.conj(
                enc_coefficient_value(d, k, l)
            )
            rhs = np.exp(
                -1j * np.pi * (a * (a + dl) + 2 * a * k + b * (b + dl) + 2 * b * l) / d
            )
            worst_c = max(worst_c, abs(lhs - rhs))
    assert worst_c < 1e-12
    _report(
        9,
        f"6000 random word identities exact to {worst:.2e}; "
        f"coefficient product law exhaustive to {worst_c:.2e}",
    )
