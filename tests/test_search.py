import json
import re
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from entdis import _kernels as K
from entdis import certify, search
from entdis.gpauli import all_indices, lagrangians, phase_table, to_matrix, transpose_index, weyl_stack
from entdis.search import (
    _MERGE_TOL,
    Decision,
    ELEMENT_ORTHO_TOL,
    IDENTITY_TOL,
    OptimizerConfig,
    Povm,
    _answer_table,
    _levenberg,
    _nnls,
    _pair_stacks,
    _restart_basis,
    _run_restart,
    _spd_solve,
    _success_probability,
    decide,
    decide_direction,
    decision_to_dict,
    label_povm,
    orbit_povm,
    pair_operators,
    penalty,
    povm_completion,
    povm_identity_residual,
    povm_orthogonality_residual,
    run_protocol,
    simulate_protocol,
    Verdict,
    witness_search,
    Witness,
)
from entdis.serialize import canonical_json
from entdis.states import Theorem2Spec, UnitarySet, bell_set, theorem1_set, theorem2_set, transpose_set


def all_restarts(s, cfg=OptimizerConfig()):
    """All cfg.restarts restarts in order, past any success (the search stops at the first)."""
    G = _pair_stacks(s)
    return [_run_restart(G, _restart_basis(s.d, cfg.seed, r // s.d), s.d, cfg, r) for r in range(cfg.restarts)]


def adjoints(W):
    return np.ascontiguousarray(np.conj(np.swapaxes(W, 1, 2)))


def operators(G):
    """The operators W_p = H_p - i K_p of a Hermitian residual stack (H_0, ..., H_{P-1}, K_0, ..., K_{P-1})."""
    return G[: len(G) // 2] - 1j * G[len(G) // 2 :]


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


def finite_difference(G, a, h=1e-6):
    d = a.shape[0]
    fd = np.empty(2 * d)
    for k in range(d):
        for part, unit in ((0, 1.0), (1, 1j)):
            e = np.zeros(d, dtype=complex)
            e[k] = unit
            fd[k + part * d] = (K.penalty_value(G, a + h * e) - K.penalty_value(G, a - h * e)) / (2 * h)
    return fd


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        count = int(rng.integers(2, min(5, d * d) + 1))
        picks = rng.choice(d * d, size=count, replace=False)
        s = bell_set(d, [(int(k) // d, int(k) % d) for k in picks])
        G = certify.hermitian_parts(pair_operators(s))
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a /= np.linalg.norm(a)
        _, grad, _ = K.penalty_value_grad(G, a)
        gv = np.concatenate([grad.real, grad.imag])
        fd = finite_difference(G, a)
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
        G = certify.hermitian_parts(W)
        for _ in range(3):
            a = random_unit(rng, s.d)
            f, grad, _ = K.penalty_value_grad(G, a)
            jac, res = residual_jacobian(W, adjoints(W), a)
            assert abs(f - res @ res) < 1e-12
            assert np.max(np.abs(0.5 * np.concatenate([grad.real, grad.imag]) - jac.T @ res)) < 1e-12


def test_stacked_product_view_is_the_residual_jacobian():
    # r_q = a^dag G_q a over the interleaved (Re a_0, Im a_0, ...) has Jacobian 2 (G a).view(float64)
    rng = np.random.default_rng(13)
    h = 1e-6
    for s in (theorem1_set(9), bell_set(4, [(0, 0), (0, 2), (2, 0)]), theorem2_set(Theorem2Spec(7)),
              UnitarySet(5, bell_set(5, [(0, 0), (3, 4)]).members)):
        G = _pair_stacks(s)
        residuals = lambda x: np.real(np.einsum("i,qij,j->q", np.conj(x), G, x))
        for _ in range(3):
            a = random_unit(rng, s.d)
            f, grad, c = K.penalty_value_grad(G, a)
            jac = 2.0 * c.view(np.float64)
            fd = np.empty_like(jac)
            for k in range(2 * s.d):
                e = np.zeros(2 * s.d)
                e[k] = h
                e = e.view(np.complex128)
                fd[:, k] = (residuals(a + e) - residuals(a - e)) / (2 * h)
            assert np.max(np.abs(jac - fd)) < 1e-8 * max(1.0, np.max(np.abs(jac))), s.d
            r = residuals(a)
            assert abs(f - r @ r) < 1e-12
            assert np.max(np.abs(grad.view(np.float64) - 2.0 * jac.T @ r)) < 1e-12


def test_untagged_search_stack_holds_the_constraint_rows():
    # the search's Hermitian parts are exactly the operators whose coordinates the provers read
    rng = np.random.default_rng(19)
    sets = [theorem2_set(Theorem2Spec(7)), UnitarySet(9, theorem1_set(9).members)]
    for d, picks in ((2, [0, 3]), (4, [1, 6, 11])):  # A U B keeps the members unitary and trace-orthogonal
        A, B = random_unitary(rng, d), random_unitary(rng, d)
        sets.append(UnitarySet(d, tuple(A @ U @ B for U in bell_set(d, [divmod(k, d) for k in picks]).members)))
    for s in sets:
        rows = certify.hermitian_coords(_pair_stacks(s))  # H_0, ..., H_{P-1}, K_0, ..., K_{P-1}
        pairs = len(rows) // 2
        interleaved = np.empty_like(rows)
        interleaved[0::2], interleaved[1::2] = rows[:pairs], rows[pairs:]
        assert np.array_equal(interleaved, certify.constraint_matrix(s))


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
    G = _pair_stacks(s)
    cfg = OptimizerConfig(restarts=6, seed=5)
    harvest = all_restarts(s, cfg)
    _, prefix = witness_search(s, cfg, collect=True)
    for (f, alpha), (g, beta) in zip(prefix, harvest):
        assert f == g and np.array_equal(alpha, beta)
    for k in (5, 0, 3):
        f, alpha = _run_restart(G, _restart_basis(s.d, cfg.seed, k // s.d), s.d, cfg, k)
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
            ft = reference_value_grad(W, Wd, trial)[0]
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
        G = _pair_stacks(s)
        new, old = [], []
        for k in range(cfg.restarts):
            a0 = _restart_basis(s.d, cfg.seed, k // s.d)[k % s.d]
            a, f = _levenberg(G, a0, cfg.max_iterations)
            b, g = reference_levenberg(W, adjoints(W), a0, cfg.max_iterations)
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
    G = _pair_stacks(s)
    calls = []
    for name in ("penalty_value", "penalty_value_grad"):
        kernel = getattr(K, name)
        monkeypatch.setattr(K, name, lambda *args, kernel=kernel: calls.append(1) or kernel(*args))
    f, _ = _run_restart(G, _restart_basis(s.d, 0, 0), s.d, OptimizerConfig(), 0)
    assert f < OptimizerConfig().success_tol
    assert len(calls) <= 100


def test_restart_starts_come_in_orthonormal_bases():
    for d, seed in ((2, 0), (6, 0), (6, 9), (20, 3)):
        starts = np.concatenate([_restart_basis(d, seed, 0), _restart_basis(d, seed, 1)])
        for block in (starts[:d], starts[d:]):
            assert np.max(np.abs(np.conj(block) @ block.T - np.eye(d))) < 1e-14
        assert abs(np.vdot(starts[0], starts[d])) < 1 - 1e-6


def test_restart_basis_rows_are_the_per_index_starts():
    # one QR per block gives, bit for bit, the starts that one QR per restart gave
    def start(d, seed, index):
        m, j = divmod(index, d)
        rng = np.random.default_rng((seed ^ (m << 32)) & ((1 << 64) - 1))
        z = rng.standard_normal((j + 1, 2, d))
        q, r = np.linalg.qr((z[:, 0] + 1j * z[:, 1]).T)
        return q[:, j] * (r[j, j] / abs(r[j, j]))

    for d in (2, 3, 5, 9, 20):
        for seed in (0, 9, 2**40):
            for m in range(-(-64 // d)):
                basis = _restart_basis(d, seed, m)
                assert basis.flags.c_contiguous
                for j in range(d):
                    assert np.array_equal(basis[j], start(d, seed, m * d + j)), (d, seed, m, j)


def test_restart_pools_differ_between_seeds():
    # block m used to be seeded by seed ^ (m*d), which maps seed 8, block 0 to
    # seed 0, block 1 at d=8; seeds 0..63 then gave only d distinct pools
    assert not np.array_equal(_restart_basis(8, 0, 1)[0], _restart_basis(8, 8, 0)[0])
    for d in (2, 4, 8):
        pools = {frozenset(_restart_basis(d, seed, m)[0].tobytes() for m in range(64 // d)) for seed in range(64)}
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
        G = certify.hermitian_parts(pair_operators(s))
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a /= np.linalg.norm(a)
        f0 = K.penalty_value(G, a)
        for p in all_indices(d):
            fa = K.penalty_value(G, to_matrix(d, p) @ a)
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
    p = orbit_povm(3, w.alpha)
    assert len(p) == 9
    assert np.allclose(p.weights, 1 / 3)
    assert povm_identity_residual(p, 3) < 1e-10
    assert povm_orthogonality_residual(p, s) < 1e-6


def test_povm_completion_rejects_bad_witness():
    s = bell_set(2, [(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        povm_completion(s, Witness(2, np.array([1, 1], dtype=complex) / np.sqrt(2), 1.0))


def test_povm_completion_rejects_a_nan_witness():
    nan = Witness(3, np.full(3, np.nan, dtype=complex), float("nan"))
    with pytest.raises(ValueError, match="not below success tolerance"):
        povm_completion(bell_set(3, [(0, 0), (1, 0), (0, 1)]), nan)
    pair = UnitarySet(2, (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)))
    with pytest.raises(ValueError, match="not below success tolerance"):
        povm_completion(pair, Witness(2, np.full(2, np.nan, dtype=complex), float("nan")))


def test_povm_completion_untagged_single_witness_incomplete():
    # a single rank-one element cannot resolve the identity at d >= 2
    s = UnitarySet(2, (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)))
    w = Witness(2, np.array([1, 0], dtype=complex), 0.0)
    assert povm_completion(s, w) is None


def test_povm_completion_none_when_nnls_keeps_no_weight():
    # a zero vector claiming residual 0 gives NNLS a zero column, which gets no weight
    s = UnitarySet(2, (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)))
    assert povm_completion(s, Witness(2, np.zeros(2, dtype=complex), 0.0)) is None


def test_povm_completion_none_when_the_orthogonality_gate_fails():
    # the computational basis resolves the identity, but <k|Z|k> = +-1 for {I, Z}
    s = UnitarySet(2, (np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)))
    basis = Povm(np.ones(2), np.eye(2, dtype=complex))
    assert povm_identity_residual(basis, 2) < IDENTITY_TOL
    assert povm_orthogonality_residual(basis, s) > ELEMENT_ORTHO_TOL
    w = Witness(2, np.array([1, 0], dtype=complex), 0.0)
    assert povm_completion(s, w, [(0.0, np.array([0, 1], dtype=complex))]) is None


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
    # exact table entries make p exactly 1, so not even 2^63 - 1 trials draw a failure
    assert _success_probability(s, p) == 1.0
    assert simulate_protocol(s, p, 2**63 - 1, seed=0) == 1.0


def test_simulate_wrong_povm_coin_flip():
    s = bell_set(2, [(0, 0), (0, 1)])
    wrong = orbit_povm(2, np.array([1, 1], dtype=complex) / np.sqrt(2))
    rate = simulate_protocol(s, wrong, 10_000, seed=0)
    assert abs(rate - 0.5) < 0.02
    p = _success_probability(s, wrong)
    assert abs(p - 0.5) < 1e-15
    assert rate == np.random.default_rng(0).binomial(10_000, p) / 10_000


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
    with pytest.raises(ValueError):
        simulate_protocol(s, good, 2**63, seed=0)
    nonunit = Povm(np.array([1.0, 1.0]), np.array([[2, 0], [0, 1]], dtype=complex))
    with pytest.raises(ValueError):
        simulate_protocol(s, nonunit, 100, seed=0)
    with pytest.raises(ValueError):
        witness_search(UnitarySet(2, (np.eye(2, dtype=complex),)))


def test_povm_stores_a_listed_lagrangian_as_a_tuple():
    s = bell_set(3, [(0, 0), (1, 0), (0, 1)])
    p = label_povm(s.d, s.tag)
    listed = Povm(p.weights, p.vectors, list(p.lagrangian))
    assert listed.lagrangian == p.lagrangian and type(listed.lagrangian) is tuple
    assert simulate_protocol(s, listed, 100, seed=0) == 1.0


def test_povm_refuses_a_lagrangian_that_is_not_three_integers():
    p = label_povm(3, bell_set(3, [(0, 0), (1, 0), (0, 1)]).tag)
    search._lagrangian_gathers.cache_clear()
    for bad in ((1.0, 1, 3), (True, 1, 3), (1, 1), (1, 1, 3, 0), "113", 3, {1: 1}):
        with pytest.raises(ValueError, match="lagrangian must be None or three integers"):
            Povm(p.weights, p.vectors, bad)


def test_simulate_refuses_vectors_of_another_length():
    s = bell_set(3, [(0, 0), (1, 0), (0, 1)])
    for vectors in (np.eye(2, dtype=complex), np.eye(4, dtype=complex)[:3], np.ones(3, dtype=complex)):
        povm = Povm(np.ones(len(vectors)), vectors)
        with pytest.raises(ValueError, match=re.escape(f"must have the set's length 3, got shape {np.shape(vectors)}")):
            simulate_protocol(s, povm, 100, seed=0)


def test_povm_stores_arrays_of_its_weights_and_vectors():
    s = bell_set(3, [(0, 0), (1, 0), (0, 1)])
    listed = Povm([1, 1, 1], np.eye(3, dtype=complex))
    assert listed.weights.dtype == np.float64 and listed.vectors.dtype == np.complex128
    assert simulate_protocol(s, listed, 10) == simulate_protocol(s, Povm(np.ones(3), np.eye(3, dtype=complex)), 10)
    assert povm_identity_residual(Povm([1, 1, 1], np.eye(3)), 3) == 0.0
    weights, vectors = np.ones(3), np.eye(3, dtype=complex)
    kept = Povm(weights, vectors)
    assert kept.weights is weights and kept.vectors is vectors
    for complex_weights in ([1j, 1, 1], np.ones(3, dtype=complex)):
        with pytest.raises(ValueError, match="POVM weights must be real"):
            Povm(complex_weights, vectors)


def test_povm_refuses_weights_and_vectors_of_different_counts():
    with pytest.raises(ValueError, match="POVM has 2 weights but 3 vectors"):
        simulate_protocol(bell_set(3, [(0, 0), (1, 0)]), Povm(np.ones(2), np.eye(3, dtype=complex)), 10)
    with pytest.raises(ValueError, match="POVM has 4 weights but 3 vectors"):
        Povm(np.ones(4), np.eye(3, dtype=complex))


def test_simulate_refuses_a_bad_seed():
    s = bell_set(2, [(0, 0), (0, 1)])
    good = orbit_povm(2, np.array([1, 0], dtype=complex))
    for seed in (1.5, -1, True, np.float64(2.0), "1", None):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            simulate_protocol(s, good, 100, seed=seed)
    for seed in (0, np.int64(7), np.uint64(2**63)):
        assert simulate_protocol(s, good, 100, seed=seed) == 1.0


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


def reference_law(s, povm):
    """Per-trial success probability read off the per-outcome reference tables."""
    conf, labels = reference_table(s, povm)
    k_cum = np.cumsum(povm.weights / s.d)
    k_cum[-1] = 1.0
    states = np.arange(len(s))
    hits = np.sum(conf * (labels[:, None, :] == states[None, :, None]), axis=2)  # (K, n)
    return float(np.diff(k_cum, prepend=0.0) @ hits.mean(axis=1))


def assert_rates_follow_law(s, povm, p, name):
    # the mean of 200 independent rates over 10,000 trials has standard error sqrt(p (1 - p) / (10,000 * 200))
    se = np.sqrt(p * (1.0 - p) / (10_000 * 200))
    for simulate in (simulate_protocol, gathered_rows_simulate):
        mean = np.mean([simulate(s, povm, 10_000, seed) for seed in range(200)])
        assert abs(mean - p) <= 4 * se, (name, simulate.__name__, mean, p, se)


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
        # unequal weights: the standard basis (answers right) with weight 0.7, the X basis (a coin flip) with 0.3
        ("mixed_bases_d2", bell_set(2, [(0, 0), (0, 1)]), mixed_bases_povm(0.3)),
    ]


def mixed_bases_povm(t):
    plus, minus = np.array([1, 1], dtype=complex) / np.sqrt(2), np.array([1, -1], dtype=complex) / np.sqrt(2)
    return Povm(np.array([1 - t, 1 - t, t, t]), np.array([[1, 0], [0, 1], plus, minus], dtype=complex))


def test_simulation_law_matches_per_outcome_reference():
    for name, s, povm in simulation_cases():
        assert povm is not None, name
        p = _success_probability(s, povm)
        assert abs(p - reference_law(s, povm)) < 1e-12, name
        assert_rates_follow_law(s, povm, p, name)
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
        vectors = np.array([np.conj(to_matrix(d, p) @ alpha) for p in all_indices(d)])
        want_reps, want_acc = reference_merge(vectors, [1.0 / d] * d * d)
        povm = orbit_povm(d, alpha)
        assert len(povm) == len(want_reps) == size, d
        # the BLAS matvec may fuse multiply-adds that the gathered orbit rounds
        # separately, so each element matches its label's vector within 1e-15;
        # the lowest label it matches is exactly the reference representative
        close = np.max(np.abs(vectors[None] - povm.vectors[:, None]), axis=2) <= 1e-15
        assert close.any(axis=1).all(), d
        assert close.argmax(axis=1).tolist() == want_reps, d
        assert np.array_equal(povm.weights, np.full(size, d / size)), d
        assert np.max(np.abs(povm.weights - want_acc)) <= 1e-15, d


# Reference copies of the dense protocol tail that label arithmetic, receiver-state
# contractions and the one binomial success count replace.


def reference_orbit_povm(d, alpha):
    V = np.conj([to_matrix(d, p) @ alpha for p in all_indices(d)])
    stab = np.flatnonzero(np.abs(np.einsum("kd,d->k", V, alpha)) > 1.0 - _MERGE_TOL)
    m, n = np.divmod(np.arange(d * d)[:, None], d)
    reps = np.unique(((m + stab // d) % d * d + (n + stab % d) % d).min(axis=1))
    return Povm(np.full(len(reps), len(stab) / d), V[reps])


def three_operand_identity_residual(p, d):
    V = p.vectors
    return float(np.max(np.abs(np.einsum("k,kd,ke->de", p.weights, V, np.conj(V)) - np.eye(d))))


def three_operand_orthogonality_residual(p, s):
    B = np.conj(p.vectors)
    return float(np.max(np.abs(np.einsum("pde,ke,kd->pk", pair_operators(s), B, np.conj(B)))))


def gathered_rows_simulate(s, povm, trials, seed):
    conf, leftover = _answer_table(s, povm)
    rng = np.random.default_rng(seed)
    i_draw = rng.integers(0, len(s), size=trials)
    k_cum = np.cumsum(povm.weights / s.d)
    k_cum[-1] = 1.0
    k_draw = np.searchsorted(k_cum, rng.random(trials), side="right")
    u = rng.random(trials)
    rows = np.cumsum(conf[k_draw, i_draw], axis=1)
    r_draw = (u[:, None] < rows).argmax(axis=1)
    answers = np.where(r_draw < len(s), r_draw, leftover[k_draw])
    return float(np.mean(answers == i_draw))


def test_orbit_povm_matches_dense_matvec_orbit():
    rng = np.random.default_rng(43)
    for d in (2, 3, 5, 8, 12, 20):
        for alpha in (random_unit(rng, d), np.eye(d, dtype=complex)[0], np.ones(d, dtype=complex) / np.sqrt(d)):
            got, want = orbit_povm(d, alpha), reference_orbit_povm(d, alpha)
            assert len(got) == len(want), d
            assert np.array_equal(got.weights, want.weights), d
            assert np.max(np.abs(got.vectors - want.vectors)) <= 1e-15, d


def test_povm_residuals_match_three_operand_einsum():
    # the contraction order changed, so equality is up to a few roundings of d-term sums
    rng = np.random.default_rng(47)
    untagged = UnitarySet(2, (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)))
    w, harvest = witness_search(untagged), all_restarts(untagged)
    cases = [(untagged, povm_completion(untagged, w, harvest))]
    for d in (3, 8, 20):
        s = bell_set(d, [(0, 0), (1, 1), (0, 1)])
        cases += [(s, orbit_povm(d, random_unit(rng, d))), (s, orbit_povm(d, witness_search(s).alpha))]
    cases.append((theorem1_set(9), orbit_povm(9, random_unit(rng, 9))))  # 28 pairs
    for s, povm in cases:
        assert abs(povm_identity_residual(povm, s.d) - three_operand_identity_residual(povm, s.d)) <= 1e-14
        got, want = povm_orthogonality_residual(povm, s), three_operand_orthogonality_residual(povm, s)
        assert abs(got - want) <= 1e-14 * max(1.0, want), s.d


def test_simulation_law_matches_gathered_rows_reference():
    untagged = UnitarySet(2, (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)))
    w, harvest = witness_search(untagged), all_restarts(untagged)
    coin_flip = bell_set(2, [(0, 0), (0, 1)])
    cases = [
        (untagged, povm_completion(untagged, w, harvest)),
        (coin_flip, orbit_povm(2, np.array([1, 1], dtype=complex) / np.sqrt(2))),
    ]
    for d in (3, 8, 20):
        s = bell_set(d, [(0, 0), (1, 1)])
        cases.append((s, povm_completion(s, witness_search(s))))
    for s, povm in cases:
        assert povm is not None, s.d
        p = _success_probability(s, povm)
        assert abs(p - reference_law(s, povm)) < 1e-12, s.d
        assert_rates_follow_law(s, povm, p, s.d)


@pytest.mark.parametrize("d", [*range(2, 10), 20, 64])
def test_orbit_is_bitwise_the_former_gather(d):
    # the former gather, inlined as the reference: row m*d + n holds conj(w^{m(k-n)}) conj(alpha_{k-n}) in column k
    rng = np.random.default_rng(d)
    alpha = random_unit(rng, d)
    k = np.arange(d)
    j = (k - k[:, None]) % d
    ref = (np.conj(phase_table(d))[k[:, None, None] * j % d] * np.conj(alpha)[j]).reshape(d * d, d)
    p = orbit_povm(d, alpha)
    assert len(p) == d * d  # a generic vector has a trivial stabilizer, so every row is kept in label order
    assert np.array_equal(p.vectors.view(np.uint64), ref.view(np.uint64))


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


def test_decision_is_undecided_unless_a_direction_settles_it():
    cfg = OptimizerConfig()
    unknown, proven, shown = Verdict("unknown"), Verdict("indistinguishable"), Verdict("distinguishable")
    for a, b, claim in (
        (unknown, proven, None),
        (proven, unknown, None),
        (unknown, unknown, None),
        (unknown, shown, False),
        (proven, proven, True),
    ):
        assert Decision(a, b, cfg).one_way_indistinguishable is claim


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
        p = orbit_povm(d, w.alpha)
        assert povm_identity_residual(p, d) < 1e-10
        assert povm_orthogonality_residual(p, s) < 1e-6


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(success_tol=1e-3, failure_floor=1e-6)


# sets whose label differences meet every Lagrangian, so only the Pauli orbit completes them
ORBIT_ONLY = [
    (4, [(0, 0), (0, 2), (2, 0)], 16),
    (4, [(0, 0), (0, 2), (2, 0), (2, 2)], 16),
    (6, [(0, 0), (0, 3), (3, 0)], 36),
]


@pytest.mark.parametrize("d, tag, size", ORBIT_ONLY)
def test_orbit_only_sets_complete_through_the_orbit(d, tag, size):
    s = bell_set(d, tag)
    assert label_povm(d, s.tag) is None
    assert label_povm(d, transpose_set(s).tag) is None
    dec = decide(s)
    for v in (dec.a_to_b, dec.b_to_a):
        assert (v.kind, v.povm_size, v.simulated_success) == ("distinguishable", size, 1.0)


def test_label_povm_is_a_gated_basis_for_a_set_exactly_when_for_its_transpose():
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(120):
        d = int(rng.integers(2, 10))
        k = rng.choice(d * d, size=int(rng.integers(2, min(d * d, 6) + 1)), replace=False)
        s = bell_set(d, [(int(x) // d, int(x) % d) for x in k])
        povms = [label_povm(d, s.tag), label_povm(d, transpose_set(s).tag)]
        assert (povms[0] is None) == (povms[1] is None), s.tag
        for u, p in zip((s, transpose_set(s)), povms):
            if p is not None:
                found += 1
                assert len(p) == d and np.array_equal(p.weights, np.ones(d))
                assert povm_identity_residual(p, d) < IDENTITY_TOL
                assert povm_orthogonality_residual(p, u) < ELEMENT_ORTHO_TOL
    assert found > 100


@pytest.mark.parametrize("d", [2, 4, 6, 9, 12])
def test_lagrangian_gathers_list_each_lagrangian_by_its_membership_rule(d):
    m, n = np.divmod(np.arange(d * d), d)
    for a, b, c in lagrangians(d):
        members = np.flatnonzero((m % a == 0) & ((n - m // a * b) % c == 0))  # flat m*d + n
        labels = search._lagrangian_gathers(d, (a, b, c))[0]  # flat n*d + m
        assert sorted(labels % d * d + labels // d) == members.tolist(), (a, b, c)
    assert search._lagrangian_gathers(d, (1, 0, 1)) is None


def test_label_povm_decides_a_set_the_orbit_misses():
    # a near-stabilizer witness sinks the orbit's identity residual on this set
    dec = decide(bell_set(7, [(3, 4), (1, 5), (0, 0), (2, 4)]))
    for v in (dec.a_to_b, dec.b_to_a):
        assert (v.kind, v.povm_size, v.simulated_success, v.restarts_used) == ("distinguishable", 7, 1.0, 1)


@pytest.mark.parametrize("d, tag", [(3, [(0, 0), (1, 0), (0, 1)]), (3, [(0, 0), (1, 0)])])
def test_label_protocol_is_exactly_perfect_at_the_largest_trial_count(d, tag):
    s = bell_set(d, tag)
    p = label_povm(d, s.tag)
    assert len(p) == d
    assert _success_probability(s, p) == 1.0
    assert simulate_protocol(s, p, 2**63 - 1, seed=0) == 1.0


# sets that complete with a Lagrangian's label basis in both directions
LABEL_PROTOCOL = [
    (20, [(0, 0), (1, 1)]),
    (4, [(0, 0), (0, 2)]),
    (3, [(0, 0), (1, 0), (0, 1)]),
    (7, [(3, 4), (1, 5), (0, 0), (2, 4)]),
]
RECEIVER_NUMERICS = ("_receiver_states", "povm_orthogonality_residual", "_answer_table")


@pytest.mark.parametrize("d, tag", LABEL_PROTOCOL)
def test_label_protocols_are_gated_and_simulated_by_label_arithmetic(monkeypatch, d, tag):
    def refuse(*args, **kwargs):
        raise AssertionError("a label protocol reached the receiver-state numerics")

    for name in RECEIVER_NUMERICS:
        monkeypatch.setattr(search, name, refuse)
    dec = decide(bell_set(d, tag))
    for v in (dec.a_to_b, dec.b_to_a):
        assert (v.kind, v.povm_size, v.simulated_success) == ("distinguishable", d, 1.0)


@pytest.mark.parametrize("d, tag, size", ORBIT_ONLY)
def test_orbit_protocols_keep_the_receiver_state_numerics(monkeypatch, d, tag, size):
    calls = []
    for name in RECEIVER_NUMERICS:
        real = getattr(search, name)
        monkeypatch.setattr(search, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    dec = decide(bell_set(d, tag))
    for v in (dec.a_to_b, dec.b_to_a):
        assert (v.kind, v.povm_size, v.simulated_success) == ("distinguishable", size, 1.0)
    assert set(calls) == set(RECEIVER_NUMERICS)


def test_exact_label_success_agrees_with_the_answer_table():
    rng = np.random.default_rng(53)
    found = 0
    for _ in range(150):
        d = int(rng.integers(2, 13))
        k = rng.choice(d * d, size=int(rng.integers(2, min(d * d, 6) + 1)), replace=False)
        s = bell_set(d, [divmod(int(x), d) for x in k])
        for u in (s, transpose_set(s)):
            p = label_povm(d, u.tag)
            if p is None:
                continue
            found += 1
            assert search._label_tie(u, p), (d, u.tag)
            assert _success_probability(u, p) == 1.0
            # the same elements without their Lagrangian go through the numeric gate and the answer table
            assert _success_probability(u, replace(p, lagrangian=None)) >= 1 - 1e-12, (d, u.tag)
            assert povm_orthogonality_residual(p, u) < ELEMENT_ORTHO_TOL
    assert found > 200


def test_a_forged_label_basis_gets_the_numeric_gate_and_table(monkeypatch):
    s = bell_set(20, [(0, 0), (1, 1)])
    p = label_povm(s.d, s.tag)
    # mix b_0 with the basis vector b_j that U_(1,1) b_0 is a multiple of, by real coefficients: still an
    # orthonormal basis that names L, but |<b|U_(1,1) b>| = 1/2 on both mixed elements
    B = np.conj(p.vectors)
    j = int(np.argmax(np.abs(np.conj(B) @ (to_matrix(s.d, (1, 1)) @ B[0]))))
    V = p.vectors.copy()
    V[0], V[j] = (p.vectors[0] + p.vectors[j]) / np.sqrt(2), (p.vectors[0] - p.vectors[j]) / np.sqrt(2)
    forged = Povm(p.weights, V, p.lagrangian)
    assert povm_identity_residual(forged, s.d) < IDENTITY_TOL
    assert povm_orthogonality_residual(forged, s) > 0.4
    assert not search._label_tie(s, forged)
    p = _success_probability(s, forged)
    assert p == _success_probability(s, replace(forged, lagrangian=None)) < 1.0
    monkeypatch.setattr(search, "label_povm", lambda d, tag: forged)
    assert povm_completion(s, witness_search(s)) is None


def test_a_label_basis_on_another_set_gets_the_numeric_table(monkeypatch):
    s = bell_set(20, [(0, 0), (1, 1)])
    p = label_povm(s.d, s.tag)
    tables = []
    real = search._answer_table
    monkeypatch.setattr(search, "_answer_table", lambda *a: tables.append(a) or real(*a))
    # the differences +-(1, 0) of this pair lie in L = {(m, 0)}, so U_(1,0) b_k is a multiple of b_k: a coin flip
    assert p.lagrangian == (1, 0, 20)
    assert abs(_success_probability(bell_set(20, [(0, 0), (1, 0)]), p) - 0.5) < 1e-12
    untagged = UnitarySet(s.d, s.members)
    assert _success_probability(untagged, p) >= 1 - 1e-12
    assert len(tables) == 2
    # a triple that is no Lagrangian of Z_20^2 never ties
    assert not search._label_tie(s, replace(p, lagrangian=(1, 0, 10)))


@pytest.mark.parametrize("d", range(2, 41))
def test_label_basis_is_a_read_only_common_eigenbasis_of_each_lagrangian(d):
    for a, b, c in lagrangians(d):
        V = search._label_basis(d, (a, b, c))
        assert V is search._label_basis(d, (a, b, c)) and not V.flags.writeable
        assert V.shape == (d, d) and np.max(np.abs(V @ np.conj(V.T) - np.eye(d))) <= 1e-13, (a, b, c)
        B = np.conj(V)  # the receiving-side vectors b_k
        for g in weyl_stack(d, [(a, b), (0, c)]):
            gB = B @ g.T  # row k is U_g b_k
            eigenvalues = np.einsum("kd,kd->k", V, gB)
            assert np.max(np.abs(gB - eigenvalues[:, None] * B)) <= 1e-13, (a, b, c)


@pytest.mark.parametrize("d, tag", LABEL_PROTOCOL)
def test_label_protocols_decide_without_eigh(monkeypatch, d, tag):
    want = canonical_json(decision_to_dict(decide(bell_set(d, tag))))

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh ran")

    search._label_basis.cache_clear()
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    dec = decide(bell_set(d, tag))
    for v in (dec.a_to_b, dec.b_to_a):
        assert (v.kind, v.povm_size, v.simulated_success) == ("distinguishable", d, 1.0)
    assert canonical_json(decision_to_dict(dec)) == want


def test_a_rephased_label_basis_passes_the_numeric_gate_but_does_not_tie(monkeypatch):
    s = bell_set(20, [(0, 0), (1, 1)])
    p = label_povm(s.d, s.tag)
    V = p.vectors.copy()
    V[3] *= np.exp(0.7j)  # the same rank-one elements, so the same measurement
    rephased = Povm(p.weights, V, p.lagrangian)
    assert povm_identity_residual(rephased, s.d) < IDENTITY_TOL
    assert povm_orthogonality_residual(rephased, s) < ELEMENT_ORTHO_TOL
    assert search._label_tie(s, p) and not search._label_tie(s, rephased)
    tables = []
    real = search._answer_table
    monkeypatch.setattr(search, "_answer_table", lambda *a: tables.append(a) or real(*a))
    assert _success_probability(s, p) == 1.0 and not tables
    assert _success_probability(s, rephased) >= 1 - 1e-12 and len(tables) == 1
    monkeypatch.setattr(search, "label_povm", lambda d, tag: rephased)
    assert povm_completion(s, witness_search(s)) is rephased


def test_label_povm_builds_only_the_basis_it_returns():
    rng = np.random.default_rng(29)
    later = 0
    for _ in range(60):
        d = int(rng.integers(2, 13))
        k = rng.choice(d * d, size=int(rng.integers(2, min(d * d, 5) + 1)), replace=False)
        tag = [divmod(int(x), d) for x in k]
        search._label_basis.cache_clear()
        p = label_povm(d, tag)
        info = search._label_basis.cache_info()
        assert (info.misses, info.currsize) == ((0, 0) if p is None else (1, 1)), (d, tag)
        if p is not None:
            assert p.vectors is search._label_basis(d, p.lagrangian)
            later += p.lagrangian != lagrangians(d)[0]
    assert later > 10


def test_harvest_grows_only_for_untagged_sets_when_completion_fails(monkeypatch):
    monkeypatch.setattr(search, "povm_completion", lambda *args, **kwargs: None)
    cfg = OptimizerConfig(restarts=8)
    tagged = bell_set(2, [(0, 0), (0, 1)])
    untagged = UnitarySet(2, tagged.members)
    v = decide_direction(tagged, cfg)
    assert (v.kind, v.restarts_used) == ("unknown", 1)
    v = decide_direction(untagged, cfg)
    assert (v.kind, v.restarts_used) == ("unknown", cfg.restarts)


def haar_rotated_pair(d, seed):
    # A U B keeps a Bell pair trace-orthogonal and makes both members dense
    rng = np.random.default_rng(seed)
    A, B = random_unitary(rng, d), random_unitary(rng, d)
    return UnitarySet(d, tuple(A @ U @ B for U in bell_set(d, [(0, 0), (1, 1)]).members))


@pytest.mark.parametrize(
    "make",
    [
        lambda: bell_set(20, [(0, 0), (1, 1)]),
        lambda: bell_set(4, [(0, 0), (0, 2)]),  # order-2 label difference
        lambda: UnitarySet(2, bell_set(2, [(0, 0), (0, 1)]).members),  # untagged I/X
        lambda: haar_rotated_pair(5, 3),
    ],
    ids=["tagged_d20", "order2_d4", "untagged_ix", "haar_d5"],
)
def test_pairs_skip_both_provers(monkeypatch, make):
    def no_prover(*args, **kwargs):
        raise AssertionError("a prover ran on a pair")

    for name in ("constraints_from_set", "fourier_cover_prover", "hermitian_feasible_subspace", "scan_blocks"):
        monkeypatch.setattr(search, name, no_prover)
    s = make()
    assert len(s) == 2
    for target in (s, transpose_set(s)):
        assert search.certify_direction(target) is None
    assert decide_direction(s).kind == "distinguishable"


def test_three_member_sets_still_reach_both_provers(monkeypatch):
    calls = {"cover": 0, "blocks": 0}

    def counted(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(search, "fourier_cover_prover", counted("cover", search.fourier_cover_prover))
    monkeypatch.setattr(certify, "block_identity_prover", counted("blocks", certify.block_identity_prover))
    s = bell_set(3, [(0, 0), (1, 0), (0, 1)])
    for k, target in enumerate((s, transpose_set(s)), start=1):
        assert search.certify_direction(target) is None
        assert calls == {"cover": k, "blocks": 3 * k}  # every 2x2 block of d = 3 is tried and misses


@pytest.mark.parametrize("field", ["seed", "max_iterations"])
def test_optimizer_config_refuses_negative_seed_and_iterations(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 0, got -1"):
        OptimizerConfig(**{field: -1})
    assert OptimizerConfig(**{field: 0}).to_dict()[field] == 0


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_optimizer_config_refuses_nonpositive_success_tol(tol):
    # no restart can pass f < success_tol: the tagged qutrit triple would run all its restarts to unknown
    with pytest.raises(ValueError, match=f"success_tol must be > 0, got {tol}"):
        OptimizerConfig(success_tol=tol)


@pytest.mark.parametrize("field", ["success_tol", "failure_floor"])
def test_optimizer_config_refuses_non_finite_tolerances(field):
    # failure_floor=inf used to run the whole decision, then fail to write the report as JSON
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match=f"{field} must be finite, got {value!r}"):
            OptimizerConfig(**{field: value})


@pytest.mark.parametrize("field", ["restarts", "max_iterations", "seed"])
def test_optimizer_config_refuses_non_integer_counts(field):
    # a float fails later in range() or ^, and True would run as 1
    for value in (2.0, 2.5, True):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            OptimizerConfig(**{field: value})
    value = OptimizerConfig(**{field: np.int64(3)}).to_dict()[field]
    assert value == 3 and type(value) is int


def test_numpy_integer_config_decides_as_python_int():
    s = bell_set(3, [(0, 0), (1, 0), (0, 1)])
    cfg = OptimizerConfig(restarts=np.int64(4), max_iterations=np.int32(50), seed=np.int64(1))
    want = decision_to_dict(decide(s, OptimizerConfig(restarts=4, max_iterations=50, seed=1)))
    assert canonical_json(decision_to_dict(decide(s, cfg))) == canonical_json(want)


def test_simulate_refuses_non_integer_trials():
    s = bell_set(3, [(0, 0), (1, 0), (0, 1)])
    povm = label_povm(s.d, s.tag)  # a perfect protocol: 2.5 trials would report 2 / 2.5
    for trials in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="trials must be an integer"):
            simulate_protocol(s, povm, trials, seed=0)
    assert simulate_protocol(s, povm, np.int64(100), seed=0) == 1.0


def test_orbit_povm_refuses_wrong_length():
    for n in (2, 4):
        with pytest.raises(ValueError, match=f"expected a vector of length 3, got \\({n},\\)"):
            orbit_povm(3, np.eye(n, dtype=complex)[0])


def test_decide_builds_pair_operators_only_for_the_feasible_subspace(monkeypatch):
    # the gate and the answer table read the receiver's states U_i b_k, and a tagged search
    # scatters its stack from the labels: only hermitian_feasible_subspace builds the dense pairs
    builds = []

    def counted(s):
        builds.append(len(s))
        return pair_operators(s)

    monkeypatch.setattr(certify, "pair_operators", counted)
    monkeypatch.setattr(search, "pair_operators", counted)
    dec = decide(bell_set(3, [(0, 0), (1, 0), (0, 1)]))
    assert [v.kind for v in (dec.a_to_b, dec.b_to_a)] == ["distinguishable"] * 2
    assert builds == [3, 3]  # one per direction
    builds.clear()
    dec = decide(bell_set(20, [(0, 0), (1, 1)]))
    assert [v.kind for v in (dec.a_to_b, dec.b_to_a)] == ["distinguishable"] * 2
    assert builds == []  # a pair skips the provers


# ---------------------------------------------------------------------------
# merged label-difference stack of tagged sets
# ---------------------------------------------------------------------------


def dense_stack(s):
    """Hermitian residual stack of the members' pair operators, two rows per pair i < j."""
    return certify.hermitian_parts(pair_operators(s))


def merged_stack_cases():
    rng = np.random.default_rng(23)
    cases = [theorem1_set(d) for d in range(4, 21)]
    # arithmetic progressions repeat every difference; seeded draws of many labels repeat some
    cases += [bell_set(7, [(0, k) for k in range(5)]), bell_set(6, [(k, 2 * k % 6) for k in range(4)])]
    for _ in range(12):
        d = int(rng.integers(3, 9))
        picks = rng.choice(d * d, size=int(rng.integers(4, min(9, d * d) + 1)), replace=False)
        cases.append(bell_set(d, [divmod(int(k), d) for k in picks]))
    # order-2 differences (t = -t) and pairs
    cases += [bell_set(4, [(0, 0), (0, 2), (2, 0), (2, 2)]), bell_set(6, [(0, 0), (3, 0), (0, 3)])]
    cases += [bell_set(4, [(0, 0), (0, 2)]), bell_set(20, [(0, 0), (1, 1)]), bell_set(3, [(1, 2), (0, 1)])]
    return cases


def test_merged_stack_matches_dense_pair_stack():
    rng = np.random.default_rng(29)
    repeated = 0
    for s in merged_stack_cases():
        G = _pair_stacks(s)
        W = operators(G)
        D = dense_stack(s)
        pairs = len(s) * (len(s) - 1) // 2
        assert len(W) <= pairs
        repeated += len(W) < pairs
        # ||sqrt(mu) U_t||_F^2 = mu d, and the classes hold every pair once
        assert np.isclose(np.sum(np.abs(W) ** 2) / s.d, pairs)
        assert np.array_equal(G, adjoints(G))
        for _ in range(3):
            a = random_unit(rng, s.d)
            f, grad, _ = K.penalty_value_grad(G, a)
            g, dense_grad, _ = K.penalty_value_grad(D, a)
            assert abs(f - g) <= 1e-12 * g, (s.d, s.tag)
            assert np.linalg.norm(grad - dense_grad) <= 1e-12 * np.linalg.norm(dense_grad), (s.d, s.tag)
    assert repeated >= 10


def test_order_two_differences_keep_their_multiplicity():
    # the six pairs of d=4 {(0,0),(0,2),(2,0),(2,2)} fall into three classes t = -t of two pairs each
    W = operators(_pair_stacks(bell_set(4, [(0, 0), (0, 2), (2, 0), (2, 2)])))
    assert np.allclose(np.sum(np.abs(W) ** 2, axis=(1, 2)) / 4, [2, 2, 2])
    W = operators(_pair_stacks(bell_set(4, [(0, 0), (0, 2)])))
    assert len(W) == 1 and np.allclose(W[0], to_matrix(4, (0, 2)))


@pytest.mark.parametrize("d,size", [(9, 13), (20, 30), (64, 96)])
def test_theorem1_merged_stack_sizes(d, size):
    s = theorem1_set(d)
    assert len(_pair_stacks(s)) == 2 * size
    assert len(s) * (len(s) - 1) // 2 > size
    assert len(_pair_stacks(UnitarySet(d, s.members))) == len(s) * (len(s) - 1)


def test_one_member_tagged_set_is_refused():
    s = bell_set(3, [(1, 2)])
    basis = Povm(np.ones(3), np.eye(3, dtype=complex))
    calls = (lambda: _pair_stacks(s), lambda: witness_search(s), lambda: penalty(np.eye(3)[0], s),
             lambda: povm_orthogonality_residual(basis, s))
    for call in calls:
        with pytest.raises(ValueError, match="distinguishability needs at least two states"):
            call()


@pytest.mark.parametrize("d", [*range(2, 10), 20, 64])
def test_merged_stack_is_bitwise_the_former_scatter(d):
    # the former class stack, inlined as the reference: sqrt(mu) w^{mk} scattered at ((k + n) mod d, k) per class label
    rng = np.random.default_rng(d)
    picks = rng.choice(d * d, size=min(d * d, 12), replace=False)
    s = bell_set(d, [divmod(int(k), d) for k in picks])
    t = np.array(s.tag)
    key = (t - t[:, None]) % d @ np.array([d, 1])
    mu = np.bincount(np.minimum(key, key.T).ravel(), minlength=d * d) // 2
    mu[0] = 0
    labels = np.flatnonzero(mu)
    m, n = np.divmod(labels[:, None], d)
    k = np.arange(d)
    W = np.zeros((len(labels), d, d), dtype=np.complex128)
    W[np.arange(len(labels))[:, None], (k + n) % d, k] = np.sqrt(mu[labels, None]) * phase_table(d)[m * k % d]
    assert np.array_equal(_pair_stacks(s).view(np.uint64), certify.hermitian_parts(W).view(np.uint64))


def test_transposed_set_gets_the_stack_of_the_mapped_labels():
    for s in merged_stack_cases()[::3]:
        t = transpose_set(s)
        mapped = bell_set(s.d, [transpose_index(s.d, p).index for p in s.tag])
        assert np.array_equal(_pair_stacks(t), _pair_stacks(mapped))


# ---------------------------------------------------------------------------
# in-package NNLS
# ---------------------------------------------------------------------------


def nnls_problems():
    rng = np.random.default_rng(31)
    full = rng.standard_normal((20, 8))
    low = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 10))  # rank 3
    dup = np.repeat(rng.standard_normal((9, 4)), 2, axis=1)  # every column twice
    x0 = np.where(rng.random(8) < 0.5, rng.random(8), 0.0)
    phis = rng.standard_normal((30, 3)) + 1j * rng.standard_normal((30, 3))
    phis /= np.linalg.norm(phis, axis=1)[:, None]
    proj = certify.hermitian_coords(phis[:, :, None] * np.conj(phis)[:, None, :]).T
    return [
        ("full rank, b outside", full, rng.standard_normal(20), True),
        ("full rank, b inside", full, full @ x0, True),
        ("full rank, b = 0", full, np.zeros(20), True),
        ("rank-deficient, b outside", low, rng.standard_normal(12), False),
        ("rank-deficient, b inside", low, low @ rng.random(10), False),
        ("duplicate columns, b outside", dup, rng.standard_normal(9), False),
        ("duplicate columns, b inside", dup, dup @ rng.random(8), False),
        ("small positive entry", np.eye(3), np.array([1.0, 1e-6, -1.0]), True),
        ("projectors onto the identity", proj, certify.hermitian_coords(np.eye(3, dtype=complex)), False),
    ]


@pytest.mark.parametrize("name,A,b,unique", nnls_problems(), ids=[p[0] for p in nnls_problems()])
def test_nnls_agrees_with_scipy_and_meets_kkt(name, A, b, unique):
    from scipy.optimize import nnls

    x = _nnls(A, b)
    y, rnorm = nnls(A, b)
    assert x is not None
    # the fit A x is the projection of b onto the cone of the columns, so it is unique even where x is not
    assert np.max(np.abs(A @ x - A @ y)) < 1e-10
    assert abs(np.linalg.norm(A @ x - b) - rnorm) < 1e-10
    if unique:
        assert np.max(np.abs(x - y)) < 1e-10
        assert np.array_equal(x > 1e-12, y > 1e-12)  # the weight completion keeps; scipy leaves ~1e-17 entries
    tol = 1e-10 * np.abs(A).max() * max(1.0, np.linalg.norm(b))
    grad = A.T @ (b - A @ x)
    assert np.all(x >= 0)
    assert np.all(grad[x == 0] <= tol)
    assert np.all(np.abs(grad[x > 0]) <= tol)


def test_nnls_agrees_with_scipy_where_columns_must_leave():
    # more columns than rows and b outside the cone: a column that joins can push
    # others to zero, so the loop steps back along the segment toward z
    from scipy.optimize import nnls

    for seed in range(20):
        rng = np.random.default_rng(seed)
        A, b = rng.standard_normal((6, 12)), rng.standard_normal(6)
        x = _nnls(A, b)
        assert x is not None and np.all(x >= 0), seed
        assert np.max(np.abs(A @ x - A @ nnls(A, b)[0])) < 1e-10, seed
        assert np.max(A.T @ (b - A @ x)) < 1e-10, seed


def test_nnls_of_zero_rhs_is_zero():
    A = np.random.default_rng(37).standard_normal((6, 4))
    assert np.array_equal(_nnls(A, np.zeros(6)), np.zeros(4))


def test_nnls_stops_at_its_cap_and_completion_gives_none(monkeypatch):
    rng = np.random.default_rng(41)
    A = rng.standard_normal((10, 6))
    b = A @ (1.0 + rng.random(6))  # every column in the support: at least 6 solves
    assert _nnls(A, b) is not None
    assert _nnls(A, b, max_iterations=5) is None
    s = UnitarySet(2, (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)))
    w, harvest = witness_search(s, collect=True)
    harvest += all_restarts(s, OptimizerConfig(restarts=4))
    assert povm_completion(s, w, harvest) is not None
    monkeypatch.setattr(search, "_nnls", lambda A, b: _nnls(A, b, max_iterations=1))
    assert povm_completion(s, w, harvest) is None
