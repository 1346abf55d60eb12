import json

import numpy as np
import pytest

from entdis import _kernels as K
from entdis.gpauli import all_indices, to_matrix
from entdis.search import (
    _MERGE_TOL,
    OptimizerConfig,
    Povm,
    _answer_table,
    _merge_up_to_phase,
    decide,
    decide_direction,
    decision_to_dict,
    orbit_povm,
    pair_operators,
    penalty,
    povm_completion,
    povm_identity_residual,
    povm_orthogonality_residual,
    simulate_protocol,
    witness_search,
    Witness,
)
from entdis.serialize import canonical_json
from entdis.states import Theorem2Spec, UnitarySet, bell_set, theorem1_set, theorem2_set


def ix_pair(d, rng):
    k1, k2 = rng.choice(d * d, size=2, replace=False)
    return bell_set(d, [(int(k1) // d, int(k1) % d), (int(k2) // d, int(k2) % d)])


def test_penalty_stationary_witness():
    s = bell_set(2, [(0, 0), (0, 1)])
    f, rg = penalty(np.array([1, 0], dtype=complex), s)
    assert f == 0.0
    assert np.linalg.norm(rg) < 1e-14


def test_penalty_analytic_value():
    s = bell_set(2, [(0, 0), (0, 1)])
    f, _ = penalty(np.array([1, 1], dtype=complex) / np.sqrt(2), s)
    assert abs(f - 1.0) < 1e-12


def test_penalty_rejects_non_unit():
    s = bell_set(2, [(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        penalty(np.array([1.0, 1.0], dtype=complex), s)


def finite_difference(W, a, h=1e-6):
    d = a.shape[0]
    fd = np.empty(2 * d)
    for k in range(d):
        for part, unit in ((0, 1.0), (1, 1j)):
            e = np.zeros(d, dtype=complex)
            e[k] = unit
            fd[k + part * d] = (K.penalty_value(W, a + h * e) - K.penalty_value(W, a - h * e)) / (2 * h)
    return fd


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        count = int(rng.integers(2, min(5, d * d) + 1))
        picks = rng.choice(d * d, size=count, replace=False)
        s = bell_set(d, [(int(k) // d, int(k) % d) for k in picks])
        W = pair_operators(s)
        Wd = np.ascontiguousarray(np.conj(np.swapaxes(W, 1, 2)))
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a /= np.linalg.norm(a)
        _, grad = K.penalty_value_grad(W, Wd, a)
        gv = np.concatenate([grad.real, grad.imag])
        fd = finite_difference(W, a)
        assert np.linalg.norm(fd - gv) / np.linalg.norm(gv) < 1e-6


def test_kernel_backends_agree():
    if not K.NUMBA_AVAILABLE:
        pytest.skip("numba not available")
    rng = np.random.default_rng(3)
    s = theorem1_set(6)
    W = pair_operators(s)
    Wd = np.ascontiguousarray(np.conj(np.swapaxes(W, 1, 2)))
    a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    a /= np.linalg.norm(a)
    f1 = K.penalty_value_numba(W, a)
    f2 = K.penalty_value_numpy(W, a)
    assert abs(f1 - f2) < 1e-12
    g1 = K.penalty_value_grad_numba(W, Wd, a)[1]
    g2 = K.penalty_value_grad_numpy(W, Wd, a)[1]
    assert np.max(np.abs(g1 - g2)) < 1e-12


def test_witness_search_known_pairs():
    assert witness_search(bell_set(2, [(0, 0), (0, 1)])).residual < 1e-12
    assert witness_search(bell_set(4, [(m, 0) for m in range(4)])).residual < 1e-12


def test_witness_search_floor_on_certified_family():
    w = witness_search(theorem1_set(5))
    assert w.residual > 1e-4


def test_witness_residual_recomputes():
    s = bell_set(3, [(0, 0), (1, 0), (0, 1)])
    w = witness_search(s)
    f, _ = penalty(w.alpha, s)
    assert abs(f - w.residual) < 1e-12


def test_orbit_leaves_penalty_invariant():
    rng = np.random.default_rng(17)
    for d in range(2, 7):
        s = ix_pair(d, rng)
        W = pair_operators(s)
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a /= np.linalg.norm(a)
        f0 = K.penalty_value(W, a)
        for p in all_indices(d):
            fa = K.penalty_value(W, to_matrix(d, p) @ a)
            assert abs(fa - f0) <= 1e-12 * max(1.0, f0)


def test_orbit_povm_collapses_to_projective_measurement():
    s = bell_set(2, [(0, 0), (0, 1)])
    w = Witness(2, np.array([1, 0], dtype=complex), 0.0)
    p = povm_completion(s, w)
    assert len(p) == 2
    assert np.allclose(sorted(p.weights), [1.0, 1.0])
    assert povm_identity_residual(p, 2) < 1e-12
    got = sorted(tuple(np.round(np.abs(v), 12)) for v in p.vectors)
    assert got == [(0.0, 1.0), (1.0, 0.0)]


def test_orbit_povm_generic_pair_keeps_nine_elements():
    s = bell_set(3, [(0, 0), (1, 0)])
    w = witness_search(s)
    p = povm_completion(s, w)
    assert len(p) == 9
    assert np.allclose(p.weights, 1 / 3)
    assert povm_identity_residual(p, 3) < 1e-10
    assert povm_orthogonality_residual(p, s) < 1e-6


def test_povm_completion_rejects_bad_witness():
    s = bell_set(2, [(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        povm_completion(s, Witness(2, np.array([1, 1], dtype=complex) / np.sqrt(2), 1.0))


def test_povm_completion_untagged_single_witness_incomplete():
    # a single rank-one element cannot resolve the identity at d >= 2
    s = UnitarySet(2, (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)))
    w = Witness(2, np.array([1, 0], dtype=complex), 0.0)
    assert povm_completion(s, w) is None


def test_povm_completion_untagged_with_harvest():
    s = UnitarySet(2, (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)))
    cfg = OptimizerConfig(stop_at_success=False, restarts=32)
    w, harvest = witness_search(s, cfg, collect=True)
    p = povm_completion(s, w, harvest)
    assert p is not None
    assert povm_identity_residual(p, 2) < 1e-8


def test_simulate_perfect_discrimination():
    s = bell_set(2, [(0, 0), (0, 1)])
    p = Povm(((1.0, np.array([1, 0], dtype=complex)), (1.0, np.array([0, 1], dtype=complex))))
    assert simulate_protocol(s, p, 10_000, seed=0) == 1.0


def test_simulate_wrong_povm_coin_flip():
    s = bell_set(2, [(0, 0), (0, 1)])
    wrong = orbit_povm(2, np.array([1, 1], dtype=complex) / np.sqrt(2))
    rate = simulate_protocol(s, wrong, 10_000, seed=0)
    assert abs(rate - 0.5) < 0.02


def test_simulate_certified_set_never_perfect():
    s = theorem2_set(Theorem2Spec(7))
    povm = orbit_povm(7, np.eye(7, dtype=complex)[0])
    rate = simulate_protocol(s, povm, 10_000, seed=1)
    assert rate < 1.0


def test_simulate_validates_input():
    s = bell_set(2, [(0, 0), (0, 1)])
    bad = Povm(((1.0, np.array([1, 0], dtype=complex)),))
    with pytest.raises(ValueError):
        simulate_protocol(s, bad, 100, seed=0)
    good = orbit_povm(2, np.array([1, 0], dtype=complex))
    with pytest.raises(ValueError):
        simulate_protocol(s, good, 0, seed=0)
    nonunit = Povm(((1.0, np.array([2, 0], dtype=complex)), (1.0, np.array([0, 1], dtype=complex))))
    with pytest.raises(ValueError):
        simulate_protocol(s, nonunit, 100, seed=0)
    with pytest.raises(ValueError):
        witness_search(UnitarySet(2, (np.eye(2, dtype=complex),)))


# Reference implementations: the per-outcome receiver-basis loop and the
# pairwise phase merge that the batched versions in entdis.search replace.


def reference_receiver_basis(s, phi):
    d = s.d
    b = np.conj(phi)
    accepted, labels, pending = [], [], []

    def residual(v):
        u = v.astype(np.complex128).copy()
        for _ in range(2):
            for w in accepted:
                u -= np.vdot(w, u) * w
        return u

    for j, U in enumerate(s.members):
        u = residual(U @ b)
        nrm = np.linalg.norm(u)
        if nrm > 1e-8:
            accepted.append(u / nrm)
            labels.append(j)
        else:
            pending.append(j)
    for e in range(d):
        if len(accepted) == d:
            break
        u = residual(np.eye(d, dtype=np.complex128)[e])
        nrm = np.linalg.norm(u)
        if nrm > 1e-8:
            accepted.append(u / nrm)
            labels.append(pending.pop(0) if pending else -1)
    assert len(accepted) == d
    return np.array(accepted), np.array(labels)


def reference_table(s, povm):
    n_out, n, d = len(povm), len(s), s.d
    conf = np.empty((n_out, n, d))
    labels = np.empty((n_out, d), dtype=np.int64)
    for k, phi in enumerate(povm.vectors):
        basis, labels[k] = reference_receiver_basis(s, phi)
        for i, U in enumerate(s.members):
            probs = np.abs(basis.conj() @ (U @ np.conj(phi))) ** 2
            conf[k, i] = probs / probs.sum()
    return conf, labels


def reference_simulate(s, povm, trials, seed):
    conf, labels = reference_table(s, povm)
    rng = np.random.default_rng(seed)
    i_draw = rng.integers(0, len(s), size=trials)
    k_cum = np.cumsum(povm.weights / s.d)
    k_cum[-1] = 1.0
    k_draw = np.searchsorted(k_cum, rng.random(trials), side="right")
    u = rng.random(trials)
    rows = np.cumsum(conf[k_draw, i_draw], axis=1)
    answers = labels[k_draw, (u[:, None] < rows).argmax(axis=1)]
    return float(np.mean(answers == i_draw))


def reference_orthogonality_residual(povm, s):
    W = pair_operators(s)
    return max(float(np.max(np.abs((W @ np.conj(v)) @ v))) for v in povm.vectors)


def answers_by_label(conf, labels, n):
    """dist[k, i, a + 1]: probability that state i under outcome k is answered a (-1..n-1)."""
    dist = np.zeros(conf.shape[:2] + (n + 1,))
    for k in range(conf.shape[0]):
        for r, a in enumerate(labels[k]):
            dist[k, :, a + 1] += conf[k, :, r]
    return dist


def reference_merge(vectors, weights):
    reps, acc = [], []
    for v, w in zip(vectors, weights):
        for k, u in enumerate(reps):
            if abs(np.vdot(u, v)) > 1.0 - _MERGE_TOL:
                acc[k] += w
                break
        else:
            reps.append(v)
            acc.append(w)
    return reps, acc


def random_unit(rng, d):
    a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return a / np.linalg.norm(a)


def simulation_cases():
    rng = np.random.default_rng(23)
    untagged = UnitarySet(2, (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)))
    w, harvest = witness_search(untagged, OptimizerConfig(stop_at_success=False, restarts=8), collect=True)
    return [
        ("coin_flip", bell_set(2, [(0, 0), (0, 1)]), orbit_povm(2, np.array([1, 1], dtype=complex) / np.sqrt(2))),
        ("theorem2_d7_e0", theorem2_set(Theorem2Spec(7)), orbit_povm(7, np.eye(7, dtype=complex)[0])),
        ("bell3_d5_random", bell_set(5, [(0, 0), (1, 2), (3, 1)]), orbit_povm(5, random_unit(rng, 5))),
        ("theorem2_d9_random", theorem2_set(Theorem2Spec(9)), orbit_povm(9, random_unit(rng, 9))),
        ("untagged_ix_nnls", untagged, povm_completion(untagged, w, harvest)),
    ]


def test_batched_simulation_matches_per_outcome_reference():
    for name, s, povm in simulation_cases():
        assert povm is not None, name
        for seed in range(5):
            assert simulate_protocol(s, povm, 10_000, seed) == reference_simulate(s, povm, 10_000, seed), (name, seed)
        conf, leftover = _answer_table(s, povm)
        labels = np.column_stack([np.tile(np.arange(len(s)), (len(povm), 1)), leftover])
        got = answers_by_label(conf, labels, len(s))
        want = answers_by_label(*reference_table(s, povm), len(s))
        assert np.max(np.abs(got - want)) < 1e-12, name
        assert abs(povm_orthogonality_residual(povm, s) - reference_orthogonality_residual(povm, s)) < 1e-14


def test_claiming_merge_matches_pairwise_reference():
    rng = np.random.default_rng(29)
    e0 = np.eye(5, dtype=complex)[0]
    flat = np.ones(6, dtype=complex) / np.sqrt(6)
    phased = np.exp(2j * np.pi * rng.random(4)) / 2
    vecs = [random_unit(rng, 4) for _ in range(12)]
    for k in (3, 7, 7, 11, 0):
        vecs.insert(int(rng.integers(0, len(vecs) + 1)), np.exp(2j * np.pi * rng.random()) * vecs[k])
    cases = [
        [np.conj(to_matrix(5, p) @ e0) for p in all_indices(5)],
        [np.conj(to_matrix(6, p) @ flat) for p in all_indices(6)],
        [np.conj(to_matrix(4, p) @ phased) for p in all_indices(4)],
        vecs,
    ]
    for vectors, classes in zip(cases, (5, 6, 16, 12)):
        for weights in ([1.0 / 5] * len(vectors), list(rng.random(len(vectors)))):
            reps, acc = _merge_up_to_phase(vectors, weights)
            want_reps, want_acc = reference_merge(vectors, weights)
            assert len(reps) == len(want_reps) == classes
            assert all(u is v for u, v in zip(reps, want_reps))
            assert acc == want_acc


def test_decide_certified_family_both_directions():
    dec = decide(theorem1_set(9))
    assert dec.a_to_b.kind == "indistinguishable"
    assert dec.b_to_a.kind == "indistinguishable"
    assert dec.one_way_indistinguishable is True
    assert dec.a_to_b.certificate is not None


def test_decide_four_state_family():
    dec = decide(theorem2_set(Theorem2Spec(7)))
    assert dec.a_to_b.kind == "indistinguishable"
    assert dec.b_to_a.kind == "indistinguishable"


def test_decide_distinguishable_triple():
    dec = decide(bell_set(3, [(0, 0), (1, 0), (0, 1)]))
    assert dec.a_to_b.kind == "distinguishable"
    assert dec.a_to_b.simulated_success == 1.0
    assert dec.b_to_a.kind == "distinguishable"
    assert dec.one_way_indistinguishable is False


def test_decide_untagged_pair_via_nnls_completion():
    s = UnitarySet(2, (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)))
    v = decide_direction(s)
    assert v.kind == "distinguishable"
    assert v.simulated_success == 1.0
    assert v.povm_size >= 2


def test_decide_diagonal_family_distinguishable():
    dec = decide(bell_set(4, [(m, 0) for m in range(4)]))
    assert dec.a_to_b.kind == "distinguishable"
    assert dec.a_to_b.simulated_success == 1.0


def test_decide_certificate_wins_despite_starved_search():
    cfg = OptimizerConfig(restarts=1, max_iterations=5)
    v = decide_direction(theorem1_set(5), cfg)
    assert v.kind == "indistinguishable"
    # the forced-block prover also covers the same set with its tag stripped
    s = theorem1_set(5)
    v = decide_direction(UnitarySet(s.d, s.members), cfg)
    assert v.kind == "indistinguishable"


def test_decide_unknown_when_completion_impossible():
    # untagged pair with a one-restart harvest: witness found, POVM cannot
    # resolve the identity from a single projector
    s = UnitarySet(2, (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)))
    v = decide_direction(s, OptimizerConfig(restarts=1))
    assert v.kind == "unknown"
    assert v.witness is not None
    assert v.best_residual < 1e-12


def test_decide_near_witness_band():
    cfg = OptimizerConfig(success_tol=1e-40, failure_floor=1e-3, restarts=4)
    v = decide_direction(bell_set(3, [(0, 0), (1, 0), (0, 1)]), cfg)
    assert v.kind == "unknown"
    assert v.near_witness
    assert v.witness is not None


def test_decide_json_deterministic():
    a = canonical_json(decision_to_dict(decide(theorem1_set(9))))
    b = canonical_json(decision_to_dict(decide(theorem1_set(9))))
    assert a == b
    doc = json.loads(a)
    assert {r["direction"] for r in doc["reports"]} == {"A_to_B", "B_to_A"}
    assert doc["reports"][0]["verdict"] == "indistinguishable"
    assert doc["reports"][0]["certificate"]["kind"] == "fourier_cover"
    assert doc["one_way_indistinguishable"] is True


def test_orbit_povm_identity_for_random_pairs():
    rng = np.random.default_rng(4)
    for d in (4, 5, 6):
        s = ix_pair(d, rng)
        w = witness_search(s)
        assert w.residual < 1e-12
        p = povm_completion(s, w)
        assert povm_identity_residual(p, d) < 1e-10
        assert povm_orthogonality_residual(p, s) < 1e-6


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(success_tol=1e-3, failure_floor=1e-6)
