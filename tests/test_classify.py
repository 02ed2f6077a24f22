"""Taxonomy, distance tooling, and the sweep harness."""

import itertools
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cloneleak import classify
from cloneleak.analytic import aligned_reduced, missing_pair_subset_reduced
from cloneleak.classify import (
    COMPLETELY_UNINFORMATIVE,
    FULLY_INFORMATIVE,
    PARTIALLY_INFORMATIVE,
    SweepConfig,
    analytic_reduced,
    classify_subset,
    evaluate_subset,
    is_authorized,
    maximally_mixed,
    run_sweep,
    trace_distance,
)
from cloneleak.pauli import random_states
from cloneleak.protocol import (
    MEMBERSHIPS,
    NONE,
    CapacityError,
    ReducedState,
    RegisterSubset,
    encode,
    reduce_encoded,
)
from oracle_helpers import numeric_independence_test


def sub(labels, n):
    return RegisterSubset.from_labels(labels, n)


def replay(d, labels, n, config):
    # one row as run_sweep builds it: config's seeded inputs, each encoded
    states = random_states(d, config.samples, config.seed)
    return evaluate_subset(d, sub(labels, n), [(psi, encode(psi, d, n)) for psi in states], config)


def test_is_authorized_examples():
    assert is_authorized(sub("S1,N1", 1))
    assert is_authorized(sub("S1,N1,S2", 2))
    assert is_authorized(sub("S1,N1,N2", 2))
    assert not is_authorized(sub("S1,N1", 2))  # pair 2 untouched
    assert not is_authorized(sub("S1,N2", 2))  # no complete pair
    assert not is_authorized(sub("S1,S2", 2))


def test_authorization_is_monotone_under_additions():
    # once decodable, adding more qudits never revokes it
    labels_pool = [f"{k}{i}" for i in range(1, 4) for k in ("S", "N")]
    for r in range(1, len(labels_pool) + 1):
        for chosen in itertools.combinations(labels_pool, r):
            s = sub(",".join(chosen), 3)
            if not is_authorized(s):
                continue
            for extra in labels_pool:
                assert is_authorized(sub(",".join(chosen + (extra,)), 3))


def test_classify_authorized():
    cls = classify_subset(3, sub("S1,N1,S2", 2))
    assert cls.verdict == FULLY_INFORMATIVE
    assert cls.authorized
    assert not cls.maximally_mixed
    assert cls.g is None
    assert cls.leak == ()


def test_classify_rejects_dimensions_below_two():
    # authorized, missing-pair and aligned subsets all go through the same check
    for d in (1, 0, -3):
        for subset in (sub("S1,N1", 1), sub("S1,N1", 2), sub("S1,N2", 2)):
            with pytest.raises(ValueError):
                classify_subset(d, subset)


def test_classify_partially_informative():
    cls = classify_subset(4, sub("S1,N2,N3", 3))
    assert cls.verdict == PARTIALLY_INFORMATIVE
    assert not cls.authorized
    assert not cls.maximally_mixed
    assert cls.g == 2
    assert [(t.a, t.b) for t in cls.leak] == [(2, 2)]
    assert (cls.p, cls.q) == (1, 2)
    # the aligned shape is set exactly for aligned subsets
    for n in (1, 2, 3):
        for members in itertools.product(MEMBERSHIPS, repeat=n):
            if set(members) == {NONE}:
                continue
            subset = RegisterSubset(members)
            cls = classify_subset(4, subset)
            if subset.is_aligned:
                assert (cls.p, cls.q) == (subset.signal_count, n - subset.signal_count)
            else:
                assert cls.p is None and cls.q is None


def test_classify_uninformative_aligned():
    cls = classify_subset(5, sub("S1,S2,N3", 3))
    assert cls.verdict == COMPLETELY_UNINFORMATIVE
    assert cls.maximally_mixed
    assert cls.g == 1
    assert cls.leak == ()


def test_classify_missing_pair_cases():
    # one retained full pair averages to the identity
    cls = classify_subset(3, sub("S1,N1", 2))
    assert cls.verdict == COMPLETELY_UNINFORMATIVE
    assert not cls.authorized
    assert cls.maximally_mixed
    assert cls.g is None
    # two retained full pairs stay correlated
    cls = classify_subset(2, sub("S1,N1,S2,N2", 3))
    assert cls.verdict == COMPLETELY_UNINFORMATIVE
    assert not cls.maximally_mixed
    # half pairs only: still the identity
    cls = classify_subset(2, sub("S1,N2", 3))
    assert cls.maximally_mixed


def test_classify_single_signal_leaks_everything_short_of_decoding():
    cls = classify_subset(7, sub("S1", 1))
    assert cls.verdict == PARTIALLY_INFORMATIVE
    assert cls.g == 7
    assert len(cls.leak) == 6


def test_analytic_reduced_dispatch():
    psi = random_states(3, 1, seed=2)[0]
    assert analytic_reduced(3, sub("S1,N1", 1), psi) is None
    ali = analytic_reduced(3, sub("S1,N2", 2), psi)
    direct = aligned_reduced(3, sub("S1,N2", 2), psi)
    assert_allclose(ali.matrix, direct.matrix, atol=1e-14)
    gap = analytic_reduced(3, sub("S1,N1", 2), psi)
    direct = missing_pair_subset_reduced(3, 2, sub("S1,N1", 2))
    assert_allclose(gap.matrix, direct.matrix, atol=1e-14)
    with pytest.raises(TypeError):
        analytic_reduced(3, sub("S1,N2", 2))  # the input state is required
    for labels in ("S1,N1", "S1,N2", "S1,N1,S2"):  # every branch checks the state
        with pytest.raises(ValueError, match="does not match d=2"):
            analytic_reduced(2, sub(labels, 2), psi)


def test_trace_distance_examples():
    eye = np.eye(2) / 2
    assert trace_distance(eye, eye) == 0
    zero = np.diag([1.0, 0.0])
    one = np.diag([0.0, 1.0])
    assert trace_distance(zero, one) == pytest.approx(1.0)
    assert trace_distance(eye, zero) == pytest.approx(0.5)


def test_trace_distance_accepts_reduced_states():
    rho = ReducedState(2, ("S1",), np.eye(2) / 2)
    assert trace_distance(rho, np.eye(2) / 2) == 0
    with pytest.raises(ValueError):
        trace_distance(np.eye(2), np.eye(4))


def test_trace_distance_is_a_metric_on_samples():
    rng = np.random.default_rng(0)
    mats = []
    for _ in range(3):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = a @ a.conj().T
        mats.append(rho / np.trace(rho))
    a, b, c = mats
    assert trace_distance(a, b) == pytest.approx(trace_distance(b, a))
    assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


def test_maximally_mixed_builder():
    assert_allclose(maximally_mixed(3, 2), np.eye(9) / 9, atol=0)


def test_numeric_independence_examples():
    ind = numeric_independence_test(3, 2, sub("S1,S2", 2), samples=6, seed=1)
    assert ind.independent
    assert ind.max_distance < 1e-9
    dep = numeric_independence_test(2, 1, sub("S1", 1), samples=6, seed=1)
    assert not dep.independent
    assert dep.max_distance > 1e-3
    again = numeric_independence_test(2, 1, sub("S1", 1), samples=6, seed=1)
    assert again == dep  # fully deterministic


def test_evaluate_subset_row_contents():
    d, n = 3, 2
    config = SweepConfig(dims=(d,), ns=(n,), samples=5, seed=9)
    row = replay(d, "S1,N2", n, config)
    assert row.agree and row.note == ""
    assert (row.p, row.q, row.g) == (1, 1, 1)
    assert row.verdict == COMPLETELY_UNINFORMATIVE
    assert row.maximally_mixed
    assert row.oracle_max_distance < 1e-9
    assert row.analytic_oracle_distance < 1e-9
    assert row.oracle_max_bound is True and row.analytic_bound is True

    row = replay(d, "S1,N1,S2", n, config)
    assert row.verdict == FULLY_INFORMATIVE
    assert row.analytic_oracle_distance is None
    assert row.analytic_bound is None
    assert row.oracle_max_distance > 1e-3
    assert row.oracle_max_bound is False
    assert row.agree

    rec = row.to_dict()
    assert set(rec) == {
        "d", "n", "subset", "p", "q", "g", "verdict", "authorized",
        "maximally_mixed", "leak_terms", "oracle_max_distance", "oracle_max_bound",
        "analytic_oracle_distance", "analytic_bound", "agree", "note",
    }


def test_evaluate_subset_capacity_row():
    config = SweepConfig(dims=(2,), ns=(2,), samples=2, seed=0)
    skipped = CapacityError("register size d^(2n+1)", 32, 16)
    row = evaluate_subset(2, sub("S1,N2", 2), skipped, config)
    assert row.agree
    assert row.note == "capacity: register size d^(2n+1) = 32 exceeds limit 16"
    assert row.oracle_max_distance is None


def test_evaluate_subset_flags_unreasonable_witness():
    # a witness above every achievable distance must surface as a mismatch,
    # proving the harness can actually fail
    d, n = 2, 1
    row = replay(d, "S1,N1", n, SweepConfig(dims=(d,), ns=(n,), samples=4, seed=3, witness=5.0))
    assert not row.agree
    assert "input-dependent" in row.note


def test_evaluate_subset_rejects_a_sample_count_off_its_config():
    # one sample has no pair to witness input dependence with
    d, n = 3, 1
    config = SweepConfig(dims=(d,), ns=(n,), samples=4, seed=3)
    psi = random_states(d, 1, seed=3)[0]
    with pytest.raises(ValueError, match="expected 4 samples, got 1"):
        evaluate_subset(d, sub("S1", n), [(psi, encode(psi, d, n))], config)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(dims=(2,), ns=(1,), family="bogus")
    with pytest.raises(ValueError):
        SweepConfig(dims=(2,), ns=(1,), family="named")
    for family in ("aligned", "all"):  # subsets a family would ignore
        with pytest.raises(ValueError):
            SweepConfig(dims=(2,), ns=(1,), family=family, subsets=("S1",))
    with pytest.raises(ValueError):
        SweepConfig(dims=(2,), ns=(1,), samples=1)
    with pytest.raises(ValueError):
        SweepConfig(dims=(2,), ns=(1,), tol=0)
    for grid in (dict(dims=(), ns=(1,)), dict(dims=(2,), ns=())):
        with pytest.raises(ValueError):
            SweepConfig(**grid)
    for bad in (float("nan"), float("inf"), -float("inf")):
        for name in ("tol", "witness"):
            with pytest.raises(ValueError):
                SweepConfig(dims=(2,), ns=(1,), **{name: bad})
    # the grid is checked whole before any encode
    for dims, ns in (((2.7,), (1,)), ((2,), (1.0,)), ((True,), (1,))):
        with pytest.raises(TypeError):
            SweepConfig(dims=dims, ns=ns)
    for bad_samples in (2.5, True):
        with pytest.raises(TypeError):
            SweepConfig(dims=(2,), ns=(1,), samples=bad_samples)
    for bad_seed in (2.5, True):
        with pytest.raises(TypeError):
            SweepConfig(dims=(2,), ns=(1,), seed=bad_seed)
    for name in ("tol", "witness"):  # True would run every gate at a distance of 1
        with pytest.raises(TypeError):
            SweepConfig(dims=(2,), ns=(1,), **{name: True})
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        SweepConfig(dims=(2,), ns=(1,), seed=-1)
    for grid in (dict(dims=(3, 1), ns=(1,)), dict(dims=(2,), ns=(2, 0))):
        with pytest.raises(ValueError):
            SweepConfig(**grid)
    with pytest.raises(ValueError, match="outside 1..1"):
        SweepConfig(dims=(6,), ns=(3, 1), family="named", subsets=("S1,S2,S3",))
    assert SweepConfig(dims=range(2, 4), ns=range(1, 3)).dims == (2, 3)


def test_run_sweep_aligned_grid_agrees():
    config = SweepConfig(dims=(2, 3, 4), ns=(1, 2), samples=6, seed=11)
    report = run_sweep(config)
    assert len(report.rows) == sum(n + 1 for _ in (2, 3, 4) for n in (1, 2))
    assert report.all_agree
    assert report.mismatches == ()
    # every verdict appears somewhere in this little grid
    verdicts = {row.verdict for row in report.rows}
    assert verdicts == {PARTIALLY_INFORMATIVE, COMPLETELY_UNINFORMATIVE}


def test_run_sweep_all_family_agrees(monkeypatch):
    # each row takes its closed form from its classification, not the dispatcher
    def unused(*args):
        raise AssertionError("a sweep row called analytic_reduced")

    monkeypatch.setattr(classify, "analytic_reduced", unused)
    config = SweepConfig(dims=(2,), ns=(2,), family="all", samples=5, seed=4)
    report = run_sweep(config)
    assert len(report.rows) == 15
    assert report.all_agree
    verdicts = {row.verdict for row in report.rows}
    assert FULLY_INFORMATIVE in verdicts


def test_run_sweep_named_family():
    config = SweepConfig(
        dims=(2, 5), ns=(3,), family="named", subsets=("S1,N2,N3", "S1,N1"), samples=4, seed=6
    )
    report = run_sweep(config)
    assert [row.subset for row in report.rows] == ["S1,N2,N3", "S1,N1"] * 2
    assert report.all_agree
    leaky = report.rows[0]
    assert leaky.verdict == PARTIALLY_INFORMATIVE
    assert [(t.a, t.b) for t in leaky.leak_terms] == [(1, 1)]


def test_run_sweep_capacity_rows_are_reported_not_fatal():
    config = SweepConfig(dims=(30,), ns=(3,), samples=2, seed=0)
    report = run_sweep(config)
    assert report.all_agree
    assert len(report.skipped) == len(report.rows) == 4
    assert all(row.oracle_max_distance is None for row in report.rows)
    note = f"capacity: register size d^(2n+1) = {30**7} exceeds limit 10000000"
    assert all(row.note == note for row in report.rows)


def test_run_sweep_detects_forced_mismatch():
    config = SweepConfig(dims=(2,), ns=(1,), samples=4, seed=3, witness=5.0)
    report = run_sweep(config)
    assert not report.all_agree
    assert len(report.mismatches) >= 1


def test_sweep_report_serialization_is_deterministic():
    config = SweepConfig(dims=(2, 3), ns=(1,), samples=4, seed=2)
    first = run_sweep(config)
    second = run_sweep(config)
    assert first.to_json() == second.to_json()
    assert first.to_csv() == second.to_csv()
    assert first.to_table() == second.to_table()

    payload = json.loads(first.to_json())
    assert payload["all_agree"] is True
    assert payload["config"]["dims"] == [2, 3]
    assert len(payload["rows"]) == len(first.rows)
    row = payload["rows"][0]
    assert row["subset"] == "N1"
    assert row["verdict"] == COMPLETELY_UNINFORMATIVE

    lines = first.to_csv().splitlines()
    assert lines[0].startswith("d,n,subset,")
    assert len(lines) == 1 + len(first.rows)


def test_sweep_csv_leak_term_encoding():
    config = SweepConfig(dims=(2,), ns=(1,), samples=4, seed=2)
    text = run_sweep(config).to_csv()
    leaky_line = [ln for ln in text.splitlines() if ln.startswith("2,1,S1,")][0]
    assert "1:1:2" in leaky_line


def test_sweep_summary_line():
    config = SweepConfig(dims=(2,), ns=(1,), samples=4, seed=2)
    report = run_sweep(config)
    assert report.summary() == "2 rows, 0 mismatches, 0 capacity-skipped"


def test_reduce_capacity_becomes_a_skipped_row():
    # 2^15 amplitudes encode fine; keeping 13 qudits asks for a side of 2^13
    d, n = 2, 7
    config = SweepConfig(dims=(d,), ns=(n,), samples=2, seed=0)
    row = replay(d, "S1,N1,S2,N2,S3,N3,S4,N4,S5,N5,S6,N6,S7", n, config)
    assert row.agree
    assert row.note == "capacity: kept side d^size = 8192 exceeds limit 4096"
    assert row.oracle_max_distance is None and row.oracle_max_bound is None


def test_closed_form_gate_stays_exact_above_tol(monkeypatch):
    # a closed form off by a traceless perturbation of trace distance 10*tol
    # must fail the gate with its exact distance, not a bound
    tol = 1e-9

    def perturbed(inner):
        def closed_form(*args):
            state = inner(*args)
            bump = np.zeros_like(state.matrix)
            bump[0, 0], bump[1, 1] = 10 * tol, -10 * tol
            return ReducedState(state.d, state.labels, state.matrix + bump)

        return closed_form

    for name in ("aligned_reduced", "missing_pair_subset_reduced"):
        monkeypatch.setattr(classify, name, perturbed(getattr(classify, name)))
    d, n = 3, 2
    config = SweepConfig(dims=(d,), ns=(n,), samples=4, seed=5, tol=tol, witness=1e-6)
    for labels in ("S1,N2", "S1,N1"):  # aligned, then missing a pair
        row = replay(d, labels, n, config)
        assert not row.agree
        assert "closed form disagrees with oracle" in row.note
        assert row.analytic_bound is False
        assert row.analytic_oracle_distance == pytest.approx(10 * tol, rel=1e-5)
        assert row.oracle_max_bound is True


def test_sweep_distances_match_exact_recomputation():
    check_distances_against_exact_recomputation(
        SweepConfig(dims=(2, 3), ns=(1, 2), family="all", samples=4, seed=8)
    )


def test_aligned_sweep_distances_match_exact_recomputation():
    # the leaking rows take their maximum from the bound-ordered scan
    check_distances_against_exact_recomputation(
        SweepConfig(dims=(2, 3, 4), ns=(1, 2, 3), samples=10, seed=7)
    )


def test_one_pair_sweep_bounds_cover_the_exact_distance():
    # the S1 closed form carries a non-Hermitian rounding residue; a distance
    # read from one triangle of the difference exceeded its Frobenius bound
    check_distances_against_exact_recomputation(
        SweepConfig(dims=(2,), ns=(1,), family="all", samples=4, seed=1)
    )


def check_distances_against_exact_recomputation(config):
    # every reported distance is the exact maximum over every pair, or a
    # flagged bound that sits between the exact maximum and tol
    report = run_sweep(config)
    bounds = exact = 0
    for row in report.rows:
        subset = sub(row.subset, row.n)
        states = random_states(row.d, config.samples, config.seed)
        reduced = [reduce_encoded(encode(psi, row.d, row.n), row.d, row.n, subset) for psi in states]
        checks = [
            (row.oracle_max_distance, row.oracle_max_bound,
             max(trace_distance(a, b) for a, b in itertools.combinations(reduced, 2))),
        ]
        if row.authorized:
            assert row.analytic_oracle_distance is None and row.analytic_bound is None
        else:
            checks.append((row.analytic_oracle_distance, row.analytic_bound, max(
                trace_distance(analytic_reduced(row.d, subset, psi), rho)
                for psi, rho in zip(states, reduced)
            )))
        for value, bound, truth in checks:
            if bound:
                assert truth <= value <= config.tol, row
                bounds += 1
            else:
                assert value == truth and value > config.tol, row
                exact += 1
    assert bounds and exact


def test_aligned_sweep_diagonalizes_only_input_dependent_rows(monkeypatch):
    # 10 samples make 45 oracle pairs; every other distance is certified, and
    # the exact maximum is taken in bound order, which stops early because a
    # leaking aligned difference has g eigenvalue levels of equal multiplicity:
    # at g = 2 its bound is exact, so the first pair settles the maximum
    inner_distance, inner_row = classify.trace_distance, classify.evaluate_subset
    calls = []

    def counted(*args):
        calls.append(1)
        return inner_distance(*args)

    per_row = []

    def row_clock(*args):
        before = len(calls)
        row = inner_row(*args)
        per_row.append((row, len(calls) - before))
        return row

    monkeypatch.setattr(classify, "trace_distance", counted)
    monkeypatch.setattr(classify, "evaluate_subset", row_clock)
    report = run_sweep(SweepConfig(dims=(2, 3, 4), ns=(1, 2, 3), samples=10, seed=7))
    assert report.all_agree and len(per_row) == len(report.rows) == 27
    for row, count in per_row:
        if row.verdict == COMPLETELY_UNINFORMATIVE:
            assert count == 0, row
        elif row.g == 2:
            assert count == 1, row
        else:
            assert 1 <= count <= 45, row
    # pinned, so that a return to diagonalizing every pair shows
    assert sum(count for _, count in per_row) == 16


def test_bound_never_decides_a_witness_gate():
    # with tol above witness, a bound between the exact distance and tol
    # could pass "input-dependent" where the exact value fails it
    d, n = 3, 1
    states = random_states(d, 2, seed=3)
    subset = sub("S1,N1", n)
    first, second = (reduce_encoded(encode(psi, d, n), d, n, subset).matrix for psi in states)
    exact = trace_distance(first, second)
    bound = 0.5 * np.sqrt(len(first)) * np.linalg.norm(first - second)
    assert exact < 0.9 * bound
    witness = (exact + bound) / 2
    config = SweepConfig(dims=(d,), ns=(n,), samples=2, seed=3, tol=10.0, witness=witness)
    row = replay(d, "S1,N1", n, config)
    assert not row.agree
    assert "oracle looks independent" in row.note
    assert row.oracle_max_bound is False and row.oracle_max_distance == exact


def flat_pair_family(seed, side, count=8):
    # I/side +- t * V s V^dagger with s half +1, half -1: every difference of
    # opposite signs has eigenvalues +-2t, so its bound equals its trace
    # distance, and all of them tie in exact arithmetic.  Each state gets its
    # own ordering of the shared eigenbasis, so the ties differ in rounding.
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    basis, _ = np.linalg.qr(g)
    signs = np.repeat([1.0, -1.0], side // 2)
    t = 0.9 / side
    states = []
    for k in range(count):
        perm = rng.permutation(side)
        v = basis[:, perm]
        states.append((v * (1 / side + (-1) ** k * t * signs[perm])) @ v.conj().T)
    return states


def test_max_distance_is_exact_when_bounds_are_tight():
    # a pair skipped on a bound that ties the running maximum within
    # rounding could still hold the largest computed distance
    side = 64
    for seed in range(20):
        pairs = list(itertools.combinations(flat_pair_family(seed, side), 2))
        truth = max(trace_distance(a, b) for a, b in pairs)
        bound = 0.5 * np.sqrt(side) * max(np.linalg.norm(a - b) for a, b in pairs)
        assert truth == pytest.approx(bound, rel=1e-12)
        assert classify._max_distance(pairs, 1e-9, 1e-6) == (truth, False), seed


def test_max_distance_is_exact_when_the_largest_bound_is_loose():
    # rank-two difference: T = lam, bound = sqrt(2) lam; flat difference:
    # T = bound = 1.2 lam.  The largest bound is not the largest distance,
    # and a pair with a small bound sits between them in the input order.
    base, lam = np.eye(4) / 4, 0.1
    loose = (base + np.diag([lam, -lam, 0, 0]), base)
    small = (base + np.diag([lam, -lam, 0, 0]) / 100, base)
    flat = (base + 0.6 * lam * np.diag([1, 1, -1, -1]), base)
    assert trace_distance(*loose) < trace_distance(*flat)
    value, bound = classify._max_distance([loose, small, flat], 1e-9, 1e-6)
    assert not bound
    assert value == trace_distance(*flat) == pytest.approx(1.2 * lam)
