"""Acceptance suite: one criterion per test, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
Every tolerance is pinned here; Monte-Carlo checks use fixed seeds.
"""
import json
import math
import subprocess
import sys
import time
from itertools import combinations

import numpy as np

from entdis import _kernels as K
from entdis.certify import (
    block_identity_prover,
    constraints_from_set,
    fourier_cover_prover,
    hermitian_feasible_subspace,
    scan_blocks,
    verify_certificate,
)
from entdis.cli import main as cli_main
from entdis.gpauli import all_indices, adjoint_product, omega, to_matrix
from entdis.search import (
    OptimizerConfig,
    decide,
    pair_operators,
    povm_completion,
    povm_identity_residual,
    simulate_protocol,
    witness_search,
)
from entdis.states import Theorem2Spec, bell_set, theorem1_set, theorem2_set, transpose_set

# witness weight on a certified forced block may be at most this times sqrt(residual)
BLOCK_WEIGHT_FACTOR = 10.0


def report(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num}: {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_algebra_exactness():
    t0 = time.monotonic()
    worst = 0.0
    for d in range(2, 9):
        w = omega(d)
        mats = {p: to_matrix(d, p) for p in all_indices(d)}
        for a in all_indices(d):
            adj = mats[a].conj().T
            for b in all_indices(d):
                pp = adjoint_product(d, a, b)
                dense = adj @ mats[b]
                worst = max(worst, float(np.max(np.abs(to_matrix(d, pp) - dense))))
                row = pp.index.n % d
                assert abs(dense[row, 0] - w**pp.phase) < 1e-12, (d, a, b)
    for d in range(2, 17):
        Z, X = to_matrix(d, (1, 0)), to_matrix(d, (0, 1))
        worst = max(worst, float(np.max(np.abs(Z @ X - omega(d) * X @ Z))))
    elapsed = time.monotonic() - t0
    report(
        1,
        "adjoint products match dense multiplication with exact phases; Weyl relation holds",
        worst < 1e-12 and elapsed < 10.0,
        f"worst entry error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_flat_family_reproduction():
    worst_tr, worst_dt = 0.0, 0.0
    for d in range(4, 21):
        t0 = time.monotonic()
        s = theorem1_set(d)
        sq = math.isqrt(d - 1) + 1
        want = 3 * sq - 3 if d == sq * (sq - 1) else 3 * sq - 1
        assert len(s) == want, (d, len(s), want)
        tr = max(
            abs(np.trace(s.members[i].conj().T @ s.members[j]))
            for i, j in combinations(range(len(s)), 2)
        )
        worst_tr = max(worst_tr, float(tr))
        assert tr < 1e-10, d
        for direction in (s, transpose_set(s)):
            cert = fourier_cover_prover(constraints_from_set(direction.tag, d))
            assert cert is not None, (d, "no certificate")
            assert verify_certificate(cert, direction), (d, "verification failed")
        worst_dt = max(worst_dt, time.monotonic() - t0)
        assert worst_dt < 1.0, (d, worst_dt)
    report(
        2,
        "3*ceil(sqrt(d))-1 family certified and verified in both directions for d=4..20",
        True,
        f"worst |Tr| {worst_tr:.1e}, worst per-d time {worst_dt*1000:.0f}ms",
    )


def test_criterion_3_block_family_reproduction():
    worst_res, worst_dt = 0.0, 0.0
    for d in (7, 9, 11):
        t0 = time.monotonic()
        s = theorem2_set(Theorem2Spec(d))
        for U in s.members:
            assert np.max(np.abs(U.conj().T @ U - np.eye(d))) < 1e-12, d
        for i, j in combinations(range(4), 2):
            assert abs(np.trace(s.members[i].conj().T @ s.members[j])) < 1e-12, d
        cert = block_identity_prover(hermitian_feasible_subspace(s), (0, 1))
        assert cert is not None, d
        worst_res = max(worst_res, max(cert.forced_functional_residuals))
        assert max(cert.forced_functional_residuals) < 1e-8, d
        dec = decide(s)
        assert dec.a_to_b.kind == "indistinguishable", d
        assert dec.b_to_a.kind == "indistinguishable", d
        dt = time.monotonic() - t0
        worst_dt = max(worst_dt, dt)
        assert dt < 5.0, (d, dt)
    report(
        3,
        "four-state block family certified at block {0,1} and decided indistinguishable (d=7,9,11)",
        True,
        f"worst functional residual {worst_res:.1e}, worst per-d time {worst_dt:.2f}s",
    )


def test_criterion_4_phase_condition_gate(tmp_path):
    codes = []
    for gamma in ("0,1", "0,-1"):
        codes.append(
            cli_main(
                ["gen", "theorem2", "--d", "7", "--gamma", gamma,
                 "--output", str(tmp_path / "x.json")]
            )
        )
    report(
        4,
        "degenerate phases gamma = +-i rejected with exit code 2",
        codes == [2, 2],
        f"exit codes {codes}",
    )


def test_criterion_5_distinguishable_controls():
    t0 = time.monotonic()
    worst_wit, worst_id = 0.0, 0.0
    perfect = True
    for d in range(4, 9):
        rng = np.random.default_rng(1000 + d)
        for trial in range(50):
            k1, k2 = rng.choice(d * d, size=2, replace=False)
            s = bell_set(d, [(int(k1) // d, int(k1) % d), (int(k2) // d, int(k2) % d)])
            w = witness_search(s)
            worst_wit = max(worst_wit, w.residual)
            assert w.residual < 1e-10, (d, trial, w.residual)
            povm = povm_completion(s, w)
            ident = povm_identity_residual(povm, d)
            worst_id = max(worst_id, ident)
            assert ident < 1e-10, (d, trial, ident)
            rate = simulate_protocol(s, povm, 10_000, seed=trial)
            perfect = perfect and rate == 1.0
            assert rate == 1.0, (d, trial, rate)

    worst_triple = 0.0
    for triple in combinations([(m, n) for m in range(3) for n in range(3)], 3):
        w = witness_search(bell_set(3, list(triple)))
        worst_triple = max(worst_triple, w.residual)
        assert w.residual < 1e-9, (triple, w.residual)

    diag = bell_set(4, [(m, 0) for m in range(4)])
    assert fourier_cover_prover(constraints_from_set(diag.tag, 4)) is None
    dec = decide(diag)
    assert dec.a_to_b.kind == "distinguishable"

    elapsed = time.monotonic() - t0
    report(
        5,
        "250 random pairs perfect, 84 qutrit triples admit witnesses, diagonal family "
        "distinguishable with inconclusive cover",
        elapsed < 120.0 and perfect,
        f"worst pair residual {worst_wit:.1e}, worst identity {worst_id:.1e}, "
        f"worst triple residual {worst_triple:.1e}, {elapsed:.0f}s",
    )


def test_criterion_6_prover_search_consistency():
    """Flat sets keep a witness floor; block-certified sets may have exact
    single witnesses, but those must avoid the forced block and not complete.

    A block certificate writes every traceless block functional as a
    combination of constraint rows, and each constraint is violated by at
    most sqrt(f), so a witness of residual f carries block weight O(sqrt(f)).
    """
    floors = {}
    for d in range(4, 21):
        floors[f"flat_d{d}"] = witness_search(theorem1_set(d)).residual
    blocks, worst_ratio = {}, 0.0
    for d in (7, 9, 11):
        s = theorem2_set(Theorem2Spec(d))
        cert = scan_blocks(hermitian_feasible_subspace(s))
        assert cert is not None and verify_certificate(cert, s), d
        w, harvest = witness_search(s, collect=True)
        blocks[f"block_d{d}"] = w.residual
        rows = list(cert.block_rows)
        for f, alpha in harvest:
            if f < 1e-4:
                weight = float(np.sum(np.abs(alpha[rows]) ** 2))
                assert weight <= BLOCK_WEIGHT_FACTOR * math.sqrt(f), (d, rows, f, weight)
                if f > 0:
                    worst_ratio = max(worst_ratio, weight / math.sqrt(f))
        if w.residual < OptimizerConfig().success_tol:
            assert povm_completion(s, w, harvest) is None, d
    for name, value in sorted({**floors, **blocks}.items()):
        print(f"    floor {name}: {value:.3e}")
    violations = {k: v for k, v in floors.items() if v <= 1e-4}
    detail = (
        f"min flat floor {min(floors.values()):.1e}; block-family residuals "
        + ", ".join(f"{k}={v:.1e}" for k, v in sorted(blocks.items()))
        + f" with block weight <= {worst_ratio:.2f}*sqrt(residual), no POVM completes"
    )
    report(
        6,
        "witness search stays above the 1e-4 floor on flat certified sets; block-certified "
        "sets' witnesses stay off the forced block and do not complete",
        not violations,
        detail,
    )


def test_criterion_7_numerical_hygiene():
    rng = np.random.default_rng(77)
    worst_rel = 0.0
    samples = 0
    while samples < 100:
        d = int(rng.integers(2, 7))
        count = int(rng.integers(2, min(6, d * d) + 1))
        picks = rng.choice(d * d, size=count, replace=False)
        s = bell_set(d, [(int(k) // d, int(k) % d) for k in picks])
        W = pair_operators(s)
        Wd = np.ascontiguousarray(np.conj(np.swapaxes(W, 1, 2)))
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a /= np.linalg.norm(a)
        _, grad, _, _ = K.penalty_value_grad(W, Wd, a)
        gv = np.concatenate([grad.real, grad.imag])
        fd = np.empty(2 * d)
        h = 1e-6
        for k in range(d):
            for part, unit in ((0, 1.0), (1, 1j)):
                e = np.zeros(d, dtype=complex)
                e[k] = unit
                fd[k + part * d] = (
                    K.penalty_value(W, a + h * e) - K.penalty_value(W, a - h * e)
                ) / (2 * h)
        worst_rel = max(worst_rel, float(np.linalg.norm(fd - gv) / np.linalg.norm(gv)))
        samples += 1

    worst_twirl = 0.0
    for d in range(2, 7):
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = (A + A.conj().T) / 2
        acc = np.zeros((d, d), dtype=complex)
        for p in all_indices(d):
            U = to_matrix(d, p)
            acc += U @ rho @ U.conj().T
        worst_twirl = max(
            worst_twirl, float(np.max(np.abs(acc - d * np.trace(rho) * np.eye(d))))
        )

    report(
        7,
        "gradients match central differences at 100 samples; twirl identity holds for d<=6",
        worst_rel < 1e-6 and worst_twirl < 1e-10,
        f"worst gradient rel err {worst_rel:.1e}, worst twirl err {worst_twirl:.1e}",
    )


def test_criterion_8_bound_comparison_table(tmp_path):
    out = tmp_path / "table.csv"
    assert cli_main(["sweep", "4", "60", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    ok = True
    for row in rows:
        d, bound, half = int(row[0]), int(row[1]), int(row[2])
        assert bound == 3 * (math.isqrt(d - 1) + 1) - 1
        assert half == -(-d // 2) + 2
        if d >= 30 and bound > half:
            ok = False
    at30 = next(row for row in rows if row[0] == "30")
    ok = ok and at30[1] == "17" and at30[2] == "17"
    certified = all(row[4] == "true" for row in rows)
    report(
        8,
        "3*ceil(sqrt(d))-1 <= ceil(d/2)+2 for all d >= 30; equality 17 = 17 at d = 30",
        ok and certified,
        f"{len(rows)} rows, all certified: {certified}",
    )


def test_criterion_9_byte_determinism(tmp_path):
    sf = tmp_path / "set.json"
    assert cli_main(["gen", "theorem1", "--d", "9", "--output", str(sf)]) == 0
    outs = []
    for name in ("v1.json", "v2.json"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "entdis.cli", "decide", str(sf), "--seed", "0",
             "--output", str(out)],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        outs.append(out.read_bytes())
    identical = outs[0] == outs[1]
    doc = json.loads(outs[0])
    report(
        9,
        "two seed-0 runs produce byte-identical verdict JSON",
        identical and doc["one_way_indistinguishable"] is True,
        f"{len(outs[0])} bytes",
    )
