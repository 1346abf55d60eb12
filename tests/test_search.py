import json
from itertools import combinations

import numpy as np
import pytest

from entdis import _kernels as K
from entdis.gpauli import all_indices, to_matrix
from entdis.search import (
    _MERGE_TOL,
    OptimizerConfig,
    Povm,
    _answer_table,
    _levenberg,
    _pair_stacks,
    _restart_start,
    _run_restart,
    _spd_solve,
    decide,
    decide_direction,
    decision_to_dict,
    orbit_povm,
    pair_operators,
    penalty,
    povm_completion,
    povm_identity_residual,
    povm_orthogonality_residual,
    run_protocol,
    simulate_protocol,
    witness_search,
    Witness,
)
from entdis.serialize import canonical_json
from entdis.states import Theorem2Spec, UnitarySet, bell_set, theorem1_set, theorem2_set


def all_restarts(s, cfg=OptimizerConfig()):
    """All cfg.restarts restarts in order, past any success (the search stops at the first)."""
    W, Wd = _pair_stacks(s)
    return [_run_restart(W, Wd, s.d, cfg, r) for r in range(cfg.restarts)]


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
        _, grad, _, _ = K.penalty_value_grad(W, Wd, a)
        gv = np.concatenate([grad.real, grad.imag])
        fd = finite_difference(W, a)
        assert np.linalg.norm(fd - gv) / np.linalg.norm(gv) < 1e-6


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def residual_jacobian(W, Wd, a):
    """Real Jacobian of r = (Re g, Im g), g_p = a^dag W_p a, over (Re a, Im a), and r itself."""
    wa, wda = W @ a, Wd @ a
    g = wa @ np.conj(a)
    jx = wa + np.conj(wda)
    jy = 1j * (np.conj(wda) - wa)
    return np.block([[jx.real, jy.real], [jx.imag, jy.imag]]), np.concatenate([g.real, g.imag])


def test_half_gradient_is_jacobian_transpose_residual():
    rng = np.random.default_rng(11)
    sets = []
    for d, picks in ((2, [0, 3]), (3, [0, 4, 7]), (5, [0, 6, 13, 21]), (6, [1, 8, 30])):
        # A U B keeps the members unitary and trace-orthogonal
        A, B = random_unitary(rng, d), random_unitary(rng, d)
        bell = bell_set(d, [divmod(k, d) for k in picks])
        sets.append(UnitarySet(d, tuple(A @ U @ B for U in bell.members)))
    sets += [theorem2_set(Theorem2Spec(7)), bell_set(5, [(0, 0), (2, 3)])]
    for s in sets:
        W = pair_operators(s)
        Wd = np.ascontiguousarray(np.conj(np.swapaxes(W, 1, 2)))
        for _ in range(3):
            a = random_unit(rng, s.d)
            f, grad, _, _ = K.penalty_value_grad(W, Wd, a)
            jac, res = residual_jacobian(W, Wd, a)
            assert abs(f - res @ res) < 1e-12
            assert np.max(np.abs(0.5 * np.concatenate([grad.real, grad.imag]) - jac.T @ res)) < 1e-12


def test_every_restart_solves_untagged_ix_pair():
    s = UnitarySet(2, (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)))
    harvest = all_restarts(s)
    assert len(harvest) == 64
    assert max(f for f, _ in harvest) < 1e-28
    assert decide_direction(s).kind == "distinguishable"


def test_untagged_ix_pair_completes_from_one_block():
    # restart 0 succeeds, one witness cannot resolve the identity, so the
    # harvest grows to the first whole block of d = 2 starts
    s = UnitarySet(2, (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)))
    dec = decide(s)
    for v in (dec.a_to_b, dec.b_to_a):
        assert v.kind == "distinguishable" and v.simulated_success == 1.0
        assert v.restarts_used == 2


def test_restart_is_pure_function_of_seed_and_index():
    s = bell_set(3, [(0, 0), (1, 0), (0, 1)])
    W = pair_operators(s)
    Wd = np.ascontiguousarray(np.conj(np.swapaxes(W, 1, 2)))
    cfg = OptimizerConfig(restarts=6, seed=5)
    harvest = all_restarts(s, cfg)
    _, prefix = witness_search(s, cfg, collect=True)
    for (f, alpha), (g, beta) in zip(prefix, harvest):
        assert f == g and np.array_equal(alpha, beta)
    for k in (5, 0, 3):
        f, alpha = _run_restart(W, Wd, s.d, cfg, k)
        assert f == harvest[k][0]
        assert np.array_equal(alpha, harvest[k][1])


def reference_value_grad(W, Wd, a):
    """Penalty value, gradient and products with the gradient as a broadcast sum."""
    wa, wda = W @ a, Wd @ a
    g = wa @ np.conj(a)
    grad = 2.0 * (np.conj(g)[:, None] * wa + g[:, None] * wda).sum(axis=0)
    return float(np.sum(g.real * g.real + g.imag * g.imag)), grad, wa, wda


def reference_levenberg(W, Wd, alpha, max_iterations):
    """The LM solve before the Cholesky rewrite: (Re, Im) blocks, LU solve, an
    accepted trial evaluated twice, no crawl exit."""
    d = alpha.shape[0]
    a = alpha
    lam = 1e-3
    eye = np.eye(2 * d)
    f, grad, wa, wda = reference_value_grad(W, Wd, a)
    window_f, window_at = f, 0
    for it in range(max_iterations):
        if f < 1e-28:
            break
        if it - window_at >= 5:
            prog = (window_f - f) / f
            if prog < 1e-9 or (f > 1e-2 and prog < 1e-3):
                break
            window_f, window_at = f, it
        jc = np.concatenate([wa + np.conj(wda), 1j * (np.conj(wda) - wa)], axis=1)
        jac = np.concatenate([jc.real, jc.imag])
        normal = jac.T @ jac
        scale = np.trace(normal) / (2 * d)
        u = np.concatenate([a.real, a.imag])
        v = np.concatenate([-a.imag, a.real])
        normal += scale * (np.outer(u, u) + np.outer(v, v))
        rhs = -0.5 * np.concatenate([grad.real, grad.imag])
        for _ in range(30):
            z = np.linalg.solve(normal + lam * scale * eye, rhs)
            trial = a + z[:d] + 1j * z[d:]
            trial /= np.linalg.norm(trial)
            ft = K.penalty_value(W, trial)
            if ft < f:
                lam = max(lam / 4.0, 1e-9)
                break
            lam *= 4.0
        else:
            break
        a = trial
        f, grad, wa, wda = reference_value_grad(W, Wd, a)
    return a, float(f)


def test_levenberg_matches_reference_solve():
    cfg = OptimizerConfig()
    for s in (
        theorem1_set(9),
        UnitarySet(5, bell_set(5, [(0, 0), (1, 2)]).members),
        UnitarySet(3, bell_set(3, [(0, 2), (1, 0), (2, 1)]).members),  # stalls undamped Gauss-Newton
    ):
        W = pair_operators(s)
        Wd = np.ascontiguousarray(np.conj(np.swapaxes(W, 1, 2)))
        new, old = [], []
        for k in range(cfg.restarts):
            a0 = _restart_start(s.d, cfg.seed, k)
            a, f = _levenberg(W, Wd, a0, cfg.max_iterations)
            b, g = reference_levenberg(W, Wd, a0, cfg.max_iterations)
            assert 1.0 - abs(np.vdot(a, b)) <= 1e-12, (s.d, k)
            assert (f < cfg.success_tol) == (g < cfg.success_tol), (s.d, k)
            new.append(f)
            old.append(g)
        assert (min(new) < cfg.success_tol) == (min(old) < cfg.success_tol)


def test_spd_solve_refuses_singular_and_indefinite_systems():
    rhs = np.array([1.0, 2.0])
    for m in (np.zeros((2, 2)), np.diag([1.0, -1.0]), np.array([[1.0, 2.0], [2.0, 1.0]])):
        with pytest.raises(np.linalg.LinAlgError):
            _spd_solve(m, rhs)
    m = np.array([[4.0, 1.0], [1.0, 3.0]])
    assert np.max(np.abs(_spd_solve(m, rhs) - np.linalg.solve(m, rhs))) < 1e-15


def test_crawling_restart_ends_below_success_tol(monkeypatch):
    # theorem2 d=7 restart 0 passes success_tol within 10 iterations, then
    # converges sublinearly; without the crawl exit below 1e-20 it ran all 2000
    s = theorem2_set(Theorem2Spec(7))
    W = pair_operators(s)
    Wd = np.ascontiguousarray(np.conj(np.swapaxes(W, 1, 2)))
    calls = []
    for name in ("penalty_value", "penalty_value_grad"):
        kernel = getattr(K, name)
        monkeypatch.setattr(K, name, lambda *args, kernel=kernel: calls.append(1) or kernel(*args))
    f, _ = _run_restart(W, Wd, s.d, OptimizerConfig(), 0)
    assert f < OptimizerConfig().success_tol
    assert len(calls) <= 100


def test_restart_starts_come_in_orthonormal_bases():
    for d, seed in ((2, 0), (6, 0), (6, 9), (20, 3)):
        starts = np.array([_restart_start(d, seed, k) for k in range(2 * d)])
        for block in (starts[:d], starts[d:]):
            assert np.max(np.abs(np.conj(block) @ block.T - np.eye(d))) < 1e-14
        assert abs(np.vdot(starts[0], starts[d])) < 1 - 1e-6


def test_restart_pools_differ_between_seeds():
    # block m used to be seeded by seed ^ (m*d), which maps seed 8, block 0 to
    # seed 0, block 1 at d=8; seeds 0..63 then gave only d distinct pools
    assert not np.array_equal(_restart_start(8, 0, 8), _restart_start(8, 8, 0))
    for d in (2, 4, 8):
        pools = {frozenset(_restart_start(d, seed, m * d).tobytes() for m in range(64 // d)) for seed in range(64)}
        assert len(pools) == 64, d


def test_protocol_witness_is_the_first_success():
    # completion grows the harvest past the first success, and several of the
    # added restarts end between 1e-35 and 1e-32 here; the witness stays the
    # first success, not whichever rounds lowest
    s = UnitarySet(5, bell_set(5, [(0, 0), (1, 2)]).members)
    first, prefix = witness_search(s, collect=True)
    witness, used, povm, _ = run_protocol(s, OptimizerConfig())
    assert povm is not None and used > len(prefix)
    assert sum(f < 1e-12 for f, _ in all_restarts(s)[:used]) > 1
    assert witness.alpha.tobytes() == first.alpha.tobytes() and witness.residual == first.residual


def test_untagged_d8_pair_runs_every_restart_and_tagged_one():
    # NNLS cannot resolve the identity at d=8 from 64 witnesses, so the
    # untagged pair grows its harvest to the cap; the orbit completes at once
    untagged = decide(UnitarySet(8, bell_set(8, [(0, 0), (1, 2)]).members))
    tagged = decide(bell_set(8, [(0, 0), (1, 2)]))
    for v in (untagged.a_to_b, untagged.b_to_a):
        assert v.kind == "unknown" and v.restarts_used == 64
    for v in (tagged.a_to_b, tagged.b_to_a):
        assert v.kind == "distinguishable" and v.restarts_used == 1


def test_decide_untagged_d6_pairs_at_default_config():
    # NNLS completion needs witnesses spread around the identity; at the default
    # seed these pairs complete only from starts that come in orthonormal bases
    for pair in ([(0, 3), (1, 0)], [(1, 0), (5, 3)]):
        dec = decide(UnitarySet(6, bell_set(6, pair).members))
        for v in (dec.a_to_b, dec.b_to_a):
            assert v.kind == "distinguishable", pair
            assert v.simulated_success == 1.0
            assert v.restarts_used == 64


def test_damped_search_solves_sampled_qutrit_triples():
    # undamped Gauss-Newton leaves 8 and 5 of the 64 restarts stalled (up to f = 1.7)
    # on (0,2),(1,0),(2,1) and (0,2),(1,1),(2,0)
    labels = [(m, n) for m in range(3) for n in range(3)]
    triples = list(combinations(labels, 3))
    cfg = OptimizerConfig()
    for pick in np.random.default_rng(31).choice(len(triples), size=12, replace=False):
        triple = triples[pick]
        s = UnitarySet(3, bell_set(3, triple).members)
        harvest = all_restarts(s, cfg)
        assert all(f < cfg.success_tol for f, _ in harvest), triple


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
    cfg = OptimizerConfig(restarts=32)
    w, harvest = witness_search(s, cfg), all_restarts(s, cfg)
    p = povm_completion(s, w, harvest)
    assert p is not None
    assert povm_identity_residual(p, 2) < 1e-8


def test_simulate_perfect_discrimination():
    s = bell_set(2, [(0, 0), (0, 1)])
    p = Povm(np.array([1.0, 1.0]), np.eye(2, dtype=complex))
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
    bad = Povm(np.array([1.0]), np.array([[1, 0]], dtype=complex))
    with pytest.raises(ValueError):
        simulate_protocol(s, bad, 100, seed=0)
    good = orbit_povm(2, np.array([1, 0], dtype=complex))
    with pytest.raises(ValueError):
        simulate_protocol(s, good, 0, seed=0)
    nonunit = Povm(np.array([1.0, 1.0]), np.array([[2, 0], [0, 1]], dtype=complex))
    with pytest.raises(ValueError):
        simulate_protocol(s, nonunit, 100, seed=0)
    with pytest.raises(ValueError):
        witness_search(UnitarySet(2, (np.eye(2, dtype=complex),)))


# Reference implementations: the per-outcome receiver-basis loop and the
# pairwise phase merge that orbit cosets and the NNLS pool's phase classes replace.


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
    for i, (v, w) in enumerate(zip(vectors, weights)):
        for k, r in enumerate(reps):
            if abs(np.vdot(vectors[r], v)) > 1.0 - _MERGE_TOL:
                acc[k] += w
                break
        else:
            reps.append(i)
            acc.append(w)
    return reps, acc


def random_unit(rng, d):
    a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return a / np.linalg.norm(a)


def simulation_cases():
    rng = np.random.default_rng(23)
    untagged = UnitarySet(2, (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)))
    cfg = OptimizerConfig(restarts=8)
    w, harvest = witness_search(untagged, cfg), all_restarts(untagged, cfg)
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


def reference_identity_residual(povm, d):
    acc = -np.eye(d, dtype=np.complex128)
    for w, v in zip(povm.weights, povm.vectors):
        acc += w * np.outer(v, np.conj(v))
    return float(np.max(np.abs(acc)))


def test_identity_residual_matches_per_element_reference():
    rng = np.random.default_rng(37)
    untagged = UnitarySet(2, (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)))
    w, harvest = witness_search(untagged), all_restarts(untagged)
    cases = [(20, orbit_povm(20, random_unit(rng, 20))), (2, povm_completion(untagged, w, harvest))]
    for d, povm in cases:
        assert abs(povm_identity_residual(povm, d) - reference_identity_residual(povm, d)) < 1e-15
        assert povm_identity_residual(povm, d) < 1e-10


def test_orbit_povm_keeps_one_element_per_stabilizer_coset():
    rng = np.random.default_rng(29)
    flat = np.ones(6, dtype=complex) / np.sqrt(6)
    phased = np.exp(2j * np.pi * rng.random(4)) / 2
    # an eigenvector of U_(1,1) is one of U_(2,2) too, fixed by the diagonal {(k, k)} off both axes
    diagonal = np.linalg.eig(to_matrix(4, (1, 1)))[1][:, 0]
    triple = witness_search(bell_set(3, [(0, 0), (1, 0), (0, 1)])).alpha
    cases = [(5, np.eye(5, dtype=complex)[0], 5), (6, flat, 6), (4, phased, 16), (4, diagonal, 4), (3, triple, 3)]
    for d, alpha, size in cases:
        vectors = [np.conj(to_matrix(d, p) @ alpha) for p in all_indices(d)]
        want_reps, want_acc = reference_merge(vectors, [1.0 / d] * d * d)
        povm = orbit_povm(d, alpha)
        assert len(povm) == len(want_reps) == size, d
        assert np.array_equal(povm.vectors, np.array(vectors)[want_reps]), d
        assert np.max(np.abs(povm.weights - want_acc)) <= 1e-15, d
        assert np.allclose(povm.weights, d / size), d


def test_orbit_povm_rejects_non_unit_vector():
    with pytest.raises(ValueError, match="unit vector"):
        orbit_povm(3, np.array([1, 1, 0], dtype=complex))


def test_nnls_completion_keeps_one_witness_per_phase_class():
    rng = np.random.default_rng(41)
    ix = UnitarySet(2, (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)))
    triple = UnitarySet(3, bell_set(3, [(0, 0), (1, 0), (0, 1)]).members)
    for s in (ix, triple):
        cfg = OptimizerConfig(restarts=8)
        w, harvest = witness_search(s, cfg), all_restarts(s, cfg)
        phased = harvest + [(f, np.exp(2j * np.pi * rng.random()) * a) for f, a in harvest]
        pool = [w.alpha] + [a for f, a in harvest if f < cfg.success_tol]
        reps, _ = reference_merge(pool, [0.0] * len(pool))  # reps[0] is the witness itself
        merged = povm_completion(s, w, [(0.0, pool[r]) for r in reps[1:]])
        alone, doubled = povm_completion(s, w, harvest), povm_completion(s, w, phased)
        assert alone is not None and doubled is not None, s.d
        assert np.array_equal(alone.weights, merged.weights), s.d
        assert np.array_equal(alone.vectors, merged.vectors), s.d
        assert np.array_equal(alone.weights, doubled.weights), s.d
        overlaps = np.abs(np.einsum("kd,kd->k", np.conj(alone.vectors), doubled.vectors))
        assert np.all(overlaps > 1.0 - 1e-12), s.d


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


def test_canonical_json_pins_numpy_sets_and_tuples():
    doc = {
        "t": (np.int64(3), (np.float64(2.0) / 3, np.bool_(True))),
        "a": np.array([[1.5], [-0.0]]),
        "s": frozenset({np.int64(5), 1}),
        "b": np.bool_(False),
    }
    assert canonical_json(doc) == (
        '{\n  "a": [\n    [\n      1.5\n    ],\n    [\n      -0.0\n    ]\n  ],\n  "b": false,\n'
        '  "s": [\n    1,\n    5\n  ],\n  "t": [\n    3,\n    [\n      0.6666666666666666,\n      true\n    ]\n  ]\n}\n'
    )


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
