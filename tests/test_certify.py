import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import entdis.certify
import entdis.search
from entdis.certify import (
    BLOCK_TOL,
    RANK_RTOL,
    BlockCertificate,
    CoverCertificate,
    _MONOMIAL_MIN_D,
    _SCREEN_TOL,
    _SQRT2,
    _membership_residuals,
    _monomial_form,
    _monomial_rows,
    _projection_residuals,
    _screen_losses,
    block_functionals,
    block_identity_prover,
    certificate_from_dict,
    certificate_to_dict,
    constraint_matrix,
    constraints_from_set,
    fourier_cover_prover,
    hermitian_coords,
    hermitian_feasible_subspace,
    hermitian_parts,
    pair_operators,
    scan_blocks,
    triu_pairs,
    unitaries_hash,
    verify_certificate,
    verify_certificate_detailed,
)
from entdis.cli import main as cli_main
from entdis.gpauli import weyl_stack
from entdis.search import certify_direction, decide, witness_search
from entdis.serialize import canonical_json, matrix_to_json, sha256_hex
from entdis.states import (
    Theorem2Spec,
    UnitarySet,
    bell_set,
    theorem1_indices,
    theorem1_set,
    theorem2_set,
    transpose_set,
)

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


def difference_pairs(table):
    """The (shift, frequency) pairs a difference table marks."""
    return {(int(n), int(m)) for n, m in zip(*np.nonzero(table))}


def freqs_by_shift(table):
    out = {}
    for shift, freq in difference_pairs(table):
        out.setdefault(shift, set()).add(freq)
    return out


def test_constraints_single_pair():
    table = constraints_from_set([(0, 0), (1, 0)], 4)
    assert table.shape == (4, 4) and table.dtype == bool
    assert difference_pairs(table) == {(0, 1), (0, 3)}


def test_constraints_theorem1_d4():
    cons = constraints_from_set(theorem1_indices(4), 4)
    by = freqs_by_shift(cons)
    assert by[0] == {1, 2, 3}
    assert by[1] == {0, 1, 2, 3}
    assert by[3] == {0, 1, 2, 3}


def test_constraints_diagonal_set():
    cons = constraints_from_set([(0, 0), (1, 0), (2, 0)], 3)
    assert freqs_by_shift(cons) == {0: {1, 2}}


def test_constraints_conjugate_closure():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d = int(rng.integers(2, 12))
        count = int(rng.integers(2, min(d * d, 6) + 1))
        picks = rng.choice(d * d, size=count, replace=False)
        idx = [(int(k) // d, int(k) % d) for k in picks]
        cons = constraints_from_set(idx, d)
        mirrored = {((-s) % d, (-f) % d) for s, f in difference_pairs(cons)}
        assert mirrored == difference_pairs(cons)


def test_constraints_reject_duplicates():
    with pytest.raises(ValueError):
        constraints_from_set([(0, 0), (0, 0)], 3)


def test_cover_prover_theorem1_d4():
    labels = theorem1_indices(4)
    cert = fourier_cover_prover(constraints_from_set(labels, 4), labels)
    assert cert is not None
    assert cert.indices == tuple(labels)
    assert cert.witness_shift == 1
    assert cert.shift0_frequencies == frozenset({1, 2, 3})
    assert cert.shiftN_frequencies == frozenset(range(4))
    assert cert.uniform_modulus == Fraction(1, 4)


def test_cover_prover_inconclusive_on_diagonal_set():
    labels = [(m, 0) for m in range(4)]
    cert = fourier_cover_prover(constraints_from_set(labels, 4), labels)
    assert cert is None


@pytest.mark.parametrize("d", range(4, 21))
def test_cover_prover_certifies_family(d):
    s = theorem1_set(d)
    cert = fourier_cover_prover(constraints_from_set(s.tag, d), s.tag)
    assert cert is not None
    assert verify_certificate(cert, s)


def test_cover_prover_monotone_under_supersets():
    rng = np.random.default_rng(11)
    for d in (4, 6, 9, 12):
        base = list(theorem1_indices(d))
        spare = [(m, n) for m in range(d) for n in range(d) if (m, n) not in base]
        extra = [spare[int(k)] for k in rng.choice(len(spare), size=2, replace=False)]
        labels = base + extra
        cert = fourier_cover_prover(constraints_from_set(labels, d), labels)
        assert cert is not None


def test_hermitian_coords_round_trip():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        M = (A + A.conj().T) / 2
        x = hermitian_coords(M)
        # the coordinate map is an isometry for Tr(AB)
        assert abs(np.dot(x, x) - np.real(np.trace(M @ M))) < 1e-10


def test_hermitian_coords_of_a_stack_are_per_matrix_coords():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    M = A + np.conj(np.swapaxes(A, -1, -2))
    x = hermitian_coords(M)
    assert x.shape == (2, 3, 16)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(x[idx], hermitian_coords(M[idx]))


# Reference implementations: the per-pair loops that pair_operators and
# constraint_matrix replace.


def reference_functional_coords(G):
    """Coordinates of the functional M -> Tr(G M): entry k is Tr(G B_k)."""
    d = G.shape[0]
    iu, ju = np.triu_indices(d, k=1)
    c = np.empty(d * d, dtype=np.complex128)
    c[:d] = np.diag(G)
    c[d::2] = (G[ju, iu] + G[iu, ju]) / _SQRT2
    c[d + 1 :: 2] = 1j * (G[ju, iu] - G[iu, ju]) / _SQRT2
    return c


def reference_constraint_matrix(s):
    rows = []
    for i, j in combinations(range(len(s)), 2):
        c = reference_functional_coords(s.members[j].conj().T @ s.members[i])
        rows.append(c.real)
        rows.append(c.imag)
    return np.array(rows)


def reference_pair_operators(s):
    n = len(s)
    ops = [s.members[i].conj().T @ s.members[j] for i in range(n) for j in range(i + 1, n)]
    return np.ascontiguousarray(np.stack(ops))


def pairwise_cases():
    rng = np.random.default_rng(41)
    return [
        UnitarySet(2, (I2, X2, Z2)),
        theorem2_set(Theorem2Spec(7)),
        bell_set(5, [(0, 0), (1, 2)]),
        random_untagged_pair(4, rng),
    ]


def test_constraint_matrix_matches_per_pair_reference():
    for s in pairwise_cases():
        A = constraint_matrix(s)
        ref = reference_constraint_matrix(s)
        assert A.shape == ref.shape == (len(s) * (len(s) - 1), s.d * s.d)
        assert np.max(np.abs(A - ref)) <= 1e-15


def dense_haar_set(d, seed):
    # A U B keeps a Bell triple trace-orthogonal, and Haar A and B make every
    # W_p = B^dag U_i^dag U_j B dense, so the constraint support is all d^2 columns
    rng = np.random.default_rng(seed)
    A, B = (np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0] for _ in range(2))
    return UnitarySet(d, tuple(A @ U @ B for U in bell_set(d, [(0, 0), (1, 0), (0, 1)]).members))


def test_pair_operators_equal_per_pair_loop():
    # d >= 41 is formed in row blocks; the result is still bitwise the loop's
    large = [theorem2_set(Theorem2Spec(41)), theorem2_set(Theorem2Spec(61)), theorem1_set(64)]
    for s in pairwise_cases() + [theorem1_set(9)] + large + [dense_haar_set(41, 2), dense_haar_set(64, 3)]:
        W = pair_operators(s)
        assert W.flags.c_contiguous
        assert np.array_equal(W, reference_pair_operators(s))
    with pytest.raises(ValueError):
        pair_operators(UnitarySet(2, (I2,)))


# Monomial sets: constraint_matrix writes their rows by index arithmetic from
# d = _MONOMIAL_MIN_D on; the reference is the dense product it replaces.


def dense_constraint_matrix(s):
    x = hermitian_coords(hermitian_parts(pair_operators(s)))
    return x.reshape(2, -1, s.d * s.d).swapaxes(0, 1).reshape(-1, s.d * s.d)


def direct_constraint_matrix(s):
    form = _monomial_form(s.members)
    assert form is not None
    return _monomial_rows(*form)


def test_monomial_rows_equal_the_dense_product_on_theorem2(monkeypatch):
    # every product of theorem2's default members is exact, so the values are equal
    cases = [t for d in [*range(7, 27, 2), 61] for s in [theorem2_set(Theorem2Spec(d))] for t in (s, transpose_set(s))]
    refs = [dense_constraint_matrix(t) for t in cases]

    def refuse(s):
        raise AssertionError("constraint_matrix took the dense product")

    monkeypatch.setattr(entdis.certify, "pair_operators", refuse)
    for t, ref in zip(cases, refs):
        A = constraint_matrix(t) if t.d >= _MONOMIAL_MIN_D else direct_constraint_matrix(t)
        assert A.shape == ref.shape == (12, t.d * t.d)
        assert np.array_equal(A, ref)


QUARTER_TURNS = np.array([1, 1j, -1, -1j])


def quarter_turn_monomial_set(rng, d, n):
    """n random permutation matrices times random quarter-turn phases, each kept when
    trace-orthogonal to those before it; every entry and product is exact."""
    members = []
    while len(members) < n:
        U = np.zeros((d, d), dtype=complex)
        U[rng.permutation(d), np.arange(d)] = QUARTER_TURNS[rng.integers(0, 4, d)]
        if all(np.vdot(V, U) == 0 for V in members):
            members.append(U)
    return UnitarySet(d, members)


def phased_weyl_monomial_set(rng, d, n):
    """n phased Weyl members times one random monomial unitary: generic unit phases."""
    labels = [divmod(int(k), d) for k in rng.choice(d * d, n, replace=False)]
    Q = np.zeros((d, d), dtype=complex)
    Q[rng.permutation(d), np.arange(d)] = np.exp(2j * np.pi * rng.random(d))
    return UnitarySet(d, np.exp(2j * np.pi * rng.random(n))[:, None, None] * weyl_stack(d, labels) @ Q)


def cycle_counts(s):
    """(fixed points, 2-cycles) over the pair operators W_p of a monomial set."""
    nz = pair_operators(s) != 0
    fixed = np.count_nonzero(np.diagonal(nz, axis1=1, axis2=2))
    return fixed, (np.count_nonzero(nz & np.swapaxes(nz, 1, 2)) - fixed) // 2


def random_monomial_cases(make, seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        d = int(rng.integers(2, 41))
        yield make(rng, d, min(int(rng.integers(2, 7)), d))


def test_monomial_rows_equal_the_dense_product_on_random_permutations():
    fixed = swaps = 0
    for s in random_monomial_cases(quarter_turn_monomial_set, 11):
        assert np.array_equal(direct_constraint_matrix(s), dense_constraint_matrix(s))
        f, t = cycle_counts(s)
        fixed, swaps = fixed + f, swaps + t
    assert fixed and swaps  # both cases of a missing or present partner W_yx ran


def test_monomial_rows_round_generic_phases_like_the_dense_product():
    # BLAS and numpy may round a product of two generic phases differently: a few ulps apart
    for s in random_monomial_cases(phased_weyl_monomial_set, 12):
        assert np.max(np.abs(direct_constraint_matrix(s) - dense_constraint_matrix(s))) <= 4.5e-16
    for d in (*range(4, 21), 64):
        s = theorem1_set(d)
        assert np.max(np.abs(direct_constraint_matrix(s) - dense_constraint_matrix(s))) <= 4.5e-16


def haar_rotated(s, rng):
    """V U_k V^dag for one Haar V: unitary and trace-orthogonal, with dense members."""
    V, _ = np.linalg.qr(rng.standard_normal((s.d, s.d)) + 1j * rng.standard_normal((s.d, s.d)))
    return UnitarySet(s.d, V @ s.members @ V.conj().T)


def test_constraint_matrix_keeps_the_dense_product_for_other_sets():
    s = theorem2_set(Theorem2Spec(_MONOMIAL_MIN_D + 2))
    M = s.members.copy()
    M[1, 0, 0] = 1e-300  # one more nonzero entry: not monomial, with no tolerance
    tiny = UnitarySet(s.d, M)
    assert _monomial_form(tiny.members) is None and _monomial_form(s.members) is not None
    rng = np.random.default_rng(13)
    for t in [tiny] + [haar_rotated(theorem2_set(Theorem2Spec(d)), rng) for d in (7, _MONOMIAL_MIN_D + 2)]:
        assert constraint_matrix(t).tobytes() == dense_constraint_matrix(t).tobytes()


def test_feasible_subspace_holds_a_read_only_matrix():
    rng = np.random.default_rng(14)
    rotated = haar_rotated(theorem2_set(Theorem2Spec(17)), rng)
    for s in (theorem2_set(Theorem2Spec(7)), theorem2_set(Theorem2Spec(61)), rotated):
        A = hermitian_feasible_subspace(s).constraints
        assert not A.flags.writeable
        with pytest.raises(ValueError):
            A[0, 0] = 1.0


def test_feasible_subspace_identity_z():
    fs = hermitian_feasible_subspace(UnitarySet(2, (I2, Z2)))
    assert fs.constraint_rank == 1
    assert fs.dim() == 3


def assert_row_basis_spans_constraints(fs):
    # orthonormal rows whose span holds every constraint row: the feasible
    # subspace is exactly their orthogonal complement
    Q = fs.row_basis
    A = constraint_matrix(fs.unitaries)
    assert Q.shape == (fs.constraint_rank, fs.d * fs.d)
    assert np.max(np.abs(Q @ Q.T - np.eye(fs.constraint_rank))) < 1e-12
    assert np.max(np.abs(A - (A @ Q.T) @ Q)) < 1e-10


def test_feasible_subspace_identity_x_z():
    fs = hermitian_feasible_subspace(UnitarySet(2, (I2, X2, Z2)))
    assert fs.dim() == 4 - fs.constraint_rank
    assert fs.constraint_rank == 3
    assert_row_basis_spans_constraints(fs)


def test_feasible_subspace_theorem2():
    s = theorem2_set(Theorem2Spec(7))
    fs = hermitian_feasible_subspace(s)
    assert fs.dim() == 49 - fs.constraint_rank
    assert_row_basis_spans_constraints(fs)


@pytest.mark.parametrize(
    "s",
    [UnitarySet(2, (I2, X2, Z2)), theorem2_set(Theorem2Spec(7)), bell_set(5, [(0, 0), (1, 2)])],
    ids=["qubit_triple", "theorem2_d7", "bell_pair_d5"],
)
def test_projection_residuals_match_lstsq(s):
    # the prover's projection and the verifier's least squares measure the
    # same distance from the constraint row space, on every 2-row block
    fs = hermitian_feasible_subspace(s)
    A = constraint_matrix(s)
    for rows in combinations(range(s.d), 2):
        proj = _projection_residuals(fs, rows)
        ref = _membership_residuals(A, s.d, rows)
        assert np.max(np.abs(np.subtract(proj, ref))) < 1e-12


# Test-local copies of the full-width SVD and least squares that the support
# versions replace.


def reference_full_width_subspace(s):
    _, sv, vt = np.linalg.svd(constraint_matrix(s), full_matrices=False)
    rank = int(np.sum(sv > RANK_RTOL * sv[0]))
    return rank, vt[:rank]


def reference_membership_residuals(A, d, rows):
    h = block_functionals(d, rows).T
    x, *_ = np.linalg.lstsq(A.T, h, rcond=None)
    return np.linalg.norm(A.T @ x - h, axis=0).tolist()


# (id, set factory, whether the constraint support is all d^2 columns)
SUPPORT_CASES = (
    [(f"theorem2_d{d}", lambda d=d: theorem2_set(Theorem2Spec(d)), False) for d in (*range(7, 26, 2), 61)]
    + [(f"theorem1_d{d}", lambda d=d: theorem1_set(d), False) for d in range(4, 10)]
    + [(f"bell_pair_d{d}", lambda d=d: bell_set(d, [(0, 0), (1, 1)]), False) for d in (8, 16, 32)]
    + [(f"dense_haar_d{d}", lambda d=d: dense_haar_set(d, d), True) for d in (5, 8)]
)


@pytest.mark.parametrize("make, full", [c[1:] for c in SUPPORT_CASES], ids=[c[0] for c in SUPPORT_CASES])
def test_support_svd_matches_full_width_svd(make, full):
    s = make()
    fs = hermitian_feasible_subspace(s)
    rank, vt = reference_full_width_subspace(s)
    support = np.any(constraint_matrix(s), axis=0)
    assert fs.constraint_rank == rank
    assert fs.row_basis.shape == (rank, s.d * s.d)
    assert np.max(np.abs(fs.row_basis.T @ fs.row_basis - vt.T @ vt)) <= 1e-12
    assert np.all(fs.row_basis[:, ~support] == 0.0)
    assert support.all() == full


def test_membership_residuals_match_full_width_lstsq():
    every = [theorem2_set(Theorem2Spec(7)), bell_set(5, [(0, 0), (1, 2)]), dense_haar_set(5, 5)]
    cases = [(s, rows) for s in every for rows in combinations(range(s.d), 2)]
    t61 = theorem2_set(Theorem2Spec(61))
    cases += [(t61, rows) for rows in ((0, 1), (0, 2), (1, 60), (5, 9))]
    cases += [(transpose_set(t61), (0, 1))]
    certified = 0
    for s, rows in cases:
        A = constraint_matrix(s)
        got = _membership_residuals(A, s.d, rows)
        ref = reference_membership_residuals(A, s.d, rows)
        assert np.max(np.abs(np.subtract(got, ref))) <= 1e-14, (s.d, rows)
        certified += max(got) < BLOCK_TOL
    assert 0 < certified < len(cases)


def test_certificate_issued_before_the_support_solve_still_verifies():
    # the A_to_B certificate of theorem2 d=7 as the full-width SVD issued it
    doc = {
        "kind": "forced_block",
        "tool_version": "0.1.0",
        "d": 7,
        "unitaries_sha256": "757d5bce925d557e0c7d61bc443883688e91547f3c4dc282b4607290f2bc01c5",
        "block_rows": [0, 1],
        "forced_functional_residuals": [4.757231558895532e-16, 4.804556838276431e-16, 8.730412408698213e-16],
        "tolerance": 1e-08,
        "rank_one_reduction": True,
    }
    assert verify_certificate_detailed(doc, theorem2_set(Theorem2Spec(7))) == (True, "ok")


HELPER_CPU = """
import os, sys, threading, time
from entdis import Theorem2Spec, bell_set, decide, theorem2_set, transpose_set, verify_certificate
from entdis.certify import pair_operators

def other_threads_ns():
    me = threading.get_native_id()
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != me:
            with open(f"/proc/self/task/{tid}/schedstat") as f:
                total += int(f.read().split()[0])
    return total

s, s64 = theorem2_set(Theorem2Spec(61)), bell_set(64, [(0, 0), (1, 1)])
time.sleep(0.5)  # validation's own gemm wakes the BLAS helper, which spins for about 0.13 s
if len(os.listdir("/proc/self/task")) < 2:
    print("skip: one thread")
    sys.exit(0)
try:
    before = other_threads_ns()
except OSError:
    print("skip: no schedstat")
    sys.exit(0)
dec = decide(s)
assert dec.one_way_indistinguishable is True
assert verify_certificate(dec.a_to_b.certificate, s)
assert verify_certificate(dec.b_to_a.certificate, transpose_set(s))
pair_operators(s64)  # 15-row blocks: a 16-row block would be a gemm of 2^16 that wakes the helper
time.sleep(0.3)  # a helper woken above would spin on; bill that too
print(other_threads_ns() - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task/*/schedstat")
def test_theorem2_d61_decision_bills_no_helper_thread(tmp_path):
    # every dense call of a certified decision stays small enough for BLAS to
    # run it on the calling thread, so no other thread of the process runs;
    # pair_operators at d=64 checks the strict bound on the row blocks
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", HELPER_CPU], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.strip()
    if out.startswith("skip:"):
        pytest.skip(out)
    assert int(out) < 1_000_000, f"other threads ran {int(out) / 1e6:.1f} ms"


def random_untagged_pair(d, rng):
    # V and V diag(1, w, ..., w^(d-1)) are trace-orthogonal for w = e^(2 pi i/d)
    V, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return UnitarySet(d, (V, V * np.exp(2j * np.pi * np.arange(d) / d)))


def screen_cases():
    rng = np.random.default_rng(31)
    t1 = theorem1_set(5)
    return (
        [UnitarySet(2, (I2, X2, Z2)), UnitarySet(5, t1.members), bell_set(5, [(0, 0), (1, 2)])]
        + [theorem2_set(Theorem2Spec(d)) for d in (7, 9, 11, 13)]
        + [random_untagged_pair(d, rng) for d in (3, 4, 5, 6)]
    )


def test_block_screen_is_sound():
    # the screen may reject only blocks whose projection residual misses
    # BLOCK_TOL, so scan_blocks agrees with an exhaustive projection scan
    certified = 0
    for k, s in enumerate(screen_cases()):
        fs = hermitian_feasible_subspace(s)
        first = None
        for rows in combinations(range(s.d), 2):
            proj = _projection_residuals(fs, rows)
            if not np.all(_screen_losses(fs, *rows) <= _SCREEN_TOL):
                assert max(proj) >= BLOCK_TOL, (k, rows)
            if first is None and max(proj) < BLOCK_TOL:
                first = (rows, tuple(proj))
        cert = scan_blocks(fs)
        assert (cert is None) == (first is None), k
        if cert is not None:
            assert (cert.block_rows, cert.forced_functional_residuals) == first
            certified += 1
    assert certified == 6


def dense_block_directions(d, rows):
    """Orthonormal traceless Hermitian directions of the 2-row block p < q."""
    p, q = sorted(rows)
    out = np.zeros((3, d, d), dtype=np.complex128)
    out[0, [p, q], [q, p]] = 1 / _SQRT2
    out[1, [p, q], [q, p]] = (1j / _SQRT2, -1j / _SQRT2)
    out[2, [p, q], [p, q]] = (1 / _SQRT2, -1 / _SQRT2)
    return out


def test_block_functionals_are_coords_of_dense_directions():
    for d, rows in ((2, (0, 1)), (5, (1, 3)), (5, (0, 4)), (6, (2, 5))):
        dense = dense_block_directions(d, rows)
        for H in dense:
            assert abs(np.trace(H)) < 1e-15 and np.array_equal(H, H.conj().T)
        for order in (rows, rows[::-1]):
            h = block_functionals(d, order)
            assert h.shape == (3, d * d)
            assert np.max(np.abs(h - hermitian_coords(dense))) < 1e-15
            assert np.max(np.abs(h @ h.T - np.eye(3))) < 1e-15


def test_block_functionals_need_two_distinct_rows():
    for rows in ((2,), (0, 2, 4), (3, 3), (2, 7), (-1, 2)):
        with pytest.raises(ValueError):
            block_functionals(5, rows)
        with pytest.raises(ValueError):
            block_identity_prover(hermitian_feasible_subspace(bell_set(5, [(0, 0), (1, 2)])), rows)


def reference_block_functionals(d, rows):
    """The general k-row construction: Hermitian coordinates of the k^2 - 1
    orthonormal traceless directions of a principal block."""
    rows = sorted(rows)
    k = len(rows)
    out = np.zeros((k * k - 1, d, d), dtype=np.complex128)
    for n, (a, b) in enumerate(combinations(rows, 2)):
        out[2 * n, [a, b], [b, a]] = 1.0 / _SQRT2
        out[2 * n + 1, [a, b], [b, a]] = (1j / _SQRT2, -1j / _SQRT2)
    for t in range(1, k):
        out[k * (k - 1) + t - 1, rows[: t + 1], rows[: t + 1]] = np.append(np.ones(t), -t) / np.sqrt(t * (t + 1))
    return hermitian_coords(out)


def test_forced_three_row_blocks_force_their_two_row_sub_blocks():
    # a k-row certificate proves nothing a 2-row one cannot: the traceless
    # directions of each 2-row sub-block lie in the span of the k-row ones;
    # no screen case has a forced 3-row block, all 16 qudit Bell states at
    # d=4 force every block
    assert np.max(np.abs(reference_block_functionals(6, (1, 4)) - block_functionals(6, (1, 4)))) < 1e-15
    forced = 0
    for s in screen_cases() + [bell_set(4, [(m, n) for m in range(4) for n in range(4)])]:
        fs = hermitian_feasible_subspace(s)
        Q = fs.row_basis
        for rows in combinations(range(s.d), 3):
            h = reference_block_functionals(s.d, rows).T
            if max(np.linalg.norm(h - Q.T @ (Q @ h), axis=0)) < BLOCK_TOL:
                forced += 1
                for sub in combinations(rows, 2):
                    assert block_identity_prover(fs, sub) is not None, (s.d, rows, sub)
    assert forced == 4


def reference_unitaries_hash(s):
    data = b"%d %d\n" % (s.d, len(s)) + b"".join(np.asarray(U, dtype="<c16").tobytes(order="C") for U in s.members)
    return hashlib.sha256(data).hexdigest()


def test_unitaries_hash_is_sha256_of_member_bytes():
    rng = np.random.default_rng(37)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    V = np.zeros((3, 3), dtype=complex)
    V[:2, :2] = q
    V[2, 2] = np.exp(0.3j)
    pair = UnitarySet(3, (V, V * np.exp(2j * np.pi * np.arange(3) / 3)))
    for s in (theorem2_set(Theorem2Spec(7)), bell_set(5, [(0, 0), (1, 2), (3, 1)]), pair):
        assert unitaries_hash(s) == reference_unitaries_hash(s)

    def variant(entry, value):
        W = V.copy()
        W[entry] = value
        return UnitarySet(3, (W, pair.members[1]))

    negative_zero = variant((0, 2), complex(-0.0, 0.0))
    one_ulp = variant((2, 2), complex(np.nextafter(V[2, 2].real, 2.0), V[2, 2].imag))
    swapped = UnitarySet(3, pair.members[::-1])
    digests = [unitaries_hash(s) for s in (pair, negative_zero, one_ulp, swapped)]
    assert len(set(digests)) == 4


def test_unitaries_hash_keeps_its_digests():
    # certificates already issued carry these digests: how the members are stored must not move the hashed bytes
    s = theorem2_set(Theorem2Spec(7))
    assert unitaries_hash(s) == "757d5bce925d557e0c7d61bc443883688e91547f3c4dc282b4607290f2bc01c5"
    assert unitaries_hash(transpose_set(s)) == "67490a49b127493a7a71226cdc7d985424b5eaf513d158c1724ca6ac74762b82"
    untagged = UnitarySet(4, bell_set(4, [(0, 0), (1, 0), (0, 1)]).members)
    assert unitaries_hash(untagged) == "2214e6ae761268d2f708ad116154a31e41c79bd722418c34510a4f30e235e5a7"


def test_feasible_subspace_needs_two():
    with pytest.raises(ValueError):
        hermitian_feasible_subspace(UnitarySet(2, (I2,)))


@pytest.mark.parametrize("d", [7, 9])
def test_block_prover_certifies_four_state_family(d):
    s = theorem2_set(Theorem2Spec(d))
    cert = block_identity_prover(hermitian_feasible_subspace(s), (0, 1))
    assert cert is not None
    assert max(cert.forced_functional_residuals) < 1e-8
    assert verify_certificate(cert, s)


def test_block_prover_not_forced_for_identity_z():
    fs = hermitian_feasible_subspace(UnitarySet(2, (I2, Z2)))
    assert block_identity_prover(fs, (0, 1)) is None


def test_block_prover_refuses_a_block_the_screen_passes():
    # theorem2 d=7 rotated on the right by exp(i eps H) for a seeded Hermitian H
    # and eps = 1e-5: block (0, 1) keeps a squared loss near 1e-9, inside the
    # screen, while its residual moves to about 3e-5, far above BLOCK_TOL
    rng = np.random.default_rng(3)
    A = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    evals, evecs = np.linalg.eigh((A + A.conj().T) / 2)
    V = (evecs * np.exp(1e-5j * evals)) @ evecs.conj().T
    S = hermitian_feasible_subspace(UnitarySet(7, tuple(U @ V for U in theorem2_set(Theorem2Spec(7)).members)))
    losses = _screen_losses(S, 0, 1)
    assert np.all(losses <= _SCREEN_TOL) and max(losses) > 1e-10
    assert max(_projection_residuals(S, (0, 1))) > 1e-6 > BLOCK_TOL
    assert block_identity_prover(S, (0, 1)) is None


def test_scan_blocks_orders_and_outcomes():
    s = theorem2_set(Theorem2Spec(7))
    cert = scan_blocks(hermitian_feasible_subspace(s))
    assert cert is not None and cert.block_rows == (0, 1)

    assert scan_blocks(hermitian_feasible_subspace(UnitarySet(2, (I2, X2)))) is None

    diag = bell_set(4, [(m, 0) for m in range(4)])
    assert scan_blocks(hermitian_feasible_subspace(diag)) is None


def test_scan_blocks_certifies_qubit_triple():
    # {I, X, Z} leaves only multiples of the identity feasible
    cert = scan_blocks(hermitian_feasible_subspace(UnitarySet(2, (I2, X2, Z2))))
    assert cert is not None and cert.block_rows == (0, 1)


def test_verify_cover_certificate_cases():
    s9 = theorem1_set(9)
    cert = fourier_cover_prover(constraints_from_set(s9.tag, 9), s9.tag)
    assert verify_certificate(cert, s9)
    ok, reason = verify_certificate_detailed(cert, theorem1_set(4))
    assert not ok and "dimension" in reason
    # wrong indices with the right dimension
    other = bell_set(9, [(0, 0), (1, 0)])
    ok, reason = verify_certificate_detailed(cert, other)
    assert not ok


def test_verify_cover_certificate_tamper_detection():
    s = theorem1_set(9)
    cert = fourier_cover_prover(constraints_from_set(s.tag, 9), s.tag)

    bad = dataclasses.replace(cert, witness_shift=5)
    ok, reason = verify_certificate_detailed(bad, s)
    assert not ok and "shift" in reason

    bad = dataclasses.replace(cert, shift0_frequencies=frozenset(range(9)))
    ok, reason = verify_certificate_detailed(bad, s)
    assert not ok

    bad = dataclasses.replace(cert, uniform_modulus=Fraction(1, 8))
    ok, reason = verify_certificate_detailed(bad, s)
    assert not ok


def test_verify_block_certificate_tamper_detection():
    s = theorem2_set(Theorem2Spec(7))
    cert = block_identity_prover(hermitian_feasible_subspace(s), (0, 1))
    assert verify_certificate(cert, s)

    bad = dataclasses.replace(
        cert, forced_functional_residuals=(1e-9,) * len(cert.forced_functional_residuals)
    )
    ok, reason = verify_certificate_detailed(bad, s)
    assert not ok and "residual" in reason

    other = theorem2_set(Theorem2Spec(9))
    ok, reason = verify_certificate_detailed(cert, other)
    assert not ok


def cover_certificate(s, shift0, witness_shift, at_shift):
    """A cover certificate for tagged set s, stating the given frequencies."""
    return CoverCertificate(s.d, frozenset(shift0), witness_shift, frozenset(at_shift), Fraction(1, s.d), s.tag)


def test_verifier_names_each_rejection():
    t1 = theorem1_set(4)
    cover = certify_direction(t1)
    assert isinstance(cover, CoverCertificate) and verify_certificate(cover, t1)
    t2 = theorem2_set(Theorem2Spec(7))
    block = certify_direction(t2)
    assert isinstance(block, BlockCertificate) and verify_certificate(block, t2)
    pair = bell_set(4, [(0, 0), (1, 0)])  # shift 0 carries frequencies {1, 3} only
    diagonal = bell_set(4, [(m, 0) for m in range(4)])  # shift 0 is full, no other shift occurs
    unforced = bell_set(5, [(0, 0), (1, 2)])
    residuals = tuple(_membership_residuals(constraint_matrix(unforced), 5, (0, 1)))
    cases = (
        (cover, UnitarySet(4, t1.members), "set carries no generalized-Bell tag"),
        (cover_certificate(pair, {1, 3}, 1, ()), pair, "shift-0 frequencies do not cover {1..d-1}"),
        (dataclasses.replace(cover, witness_shift=0), t1, "witness shift 0 out of range"),
        (dataclasses.replace(cover, witness_shift=4), t1, "witness shift 4 out of range"),
        (cover_certificate(diagonal, {1, 2, 3}, 1, ()), diagonal, "shift 1 does not carry every frequency"),
        (
            dataclasses.replace(block, forced_functional_residuals=block.forced_functional_residuals[:2]),
            t2,
            "residual count mismatch",
        ),
        (
            BlockCertificate(5, (0, 1), residuals, BLOCK_TOL, unitaries_hash(unforced)),
            unforced,
            "recomputes to residual",
        ),
        (42, t1, "unknown certificate type int"),
    )
    for cert, s, reason in cases:
        ok, got = verify_certificate_detailed(cert, s)
        assert not ok and reason in got, (reason, got)
    with pytest.raises(ValueError, match="not a certificate"):
        certificate_to_dict(certificate_to_dict(cover))
    for doc in ([certificate_to_dict(cover)], "fourier_cover", None):
        with pytest.raises(ValueError, match="certificate must be a JSON object"):
            certificate_from_dict(doc)


def test_cover_verifier_refuses_a_witness_shift_that_is_no_row():
    # the verifier indexes the difference table by the stated shift
    t1 = theorem1_set(4)
    for shift in (1.5, True, -1):
        ok, reason = verify_certificate_detailed(dataclasses.replace(certify_direction(t1), witness_shift=shift), t1)
        assert not ok and reason == f"witness shift {shift} out of range"


def test_verify_block_certificate_refuses_raised_or_nan_tolerance():
    # a certificate states its own tolerance; one above BLOCK_TOL (or NaN)
    # would let the true residuals of an unforced block verify
    s = bell_set(5, [(0, 0), (1, 2)])
    residuals = tuple(_membership_residuals(constraint_matrix(s), s.d, (0, 1)))
    assert max(residuals) > BLOCK_TOL
    nan = float("nan")
    for tol, stored in ((1.0, residuals), (nan, residuals), (nan, (nan,) * 3)):
        forged = BlockCertificate(5, (0, 1), stored, tol, unitaries_hash(s))
        ok, reason = verify_certificate_detailed(forged, s)
        assert not ok and "tolerance" in reason

    t2 = theorem2_set(Theorem2Spec(7))
    cert = block_identity_prover(hermitian_feasible_subspace(t2), (0, 1))
    ok, reason = verify_certificate_detailed(dataclasses.replace(cert, forced_functional_residuals=(nan,) * 3), t2)
    assert not ok and "stored residual" in reason


def test_verify_refuses_old_digest_and_three_row_certificates():
    t2 = theorem2_set(Theorem2Spec(7))
    cert = block_identity_prover(hermitian_feasible_subspace(t2), (0, 1))
    # the digest of the canonical JSON text of the members, used before the
    # digest of their bytes
    json_digest = sha256_hex(canonical_json({"d": 7, "unitaries": [matrix_to_json(U) for U in t2.members]}))
    ok, reason = verify_certificate_detailed(dataclasses.replace(cert, unitaries_sha256=json_digest), t2)
    assert not ok and reason.startswith("unitaries hash mismatch")

    # a truly forced 3-row block, with its 8 true residuals, is still refused
    bell = UnitarySet(4, bell_set(4, [(m, n) for m in range(4) for n in range(4)]).members)
    A = constraint_matrix(bell)
    h = reference_block_functionals(4, (0, 1, 2)).T
    x, *_ = np.linalg.lstsq(A.T, h, rcond=None)
    residuals = tuple(np.linalg.norm(A.T @ x - h, axis=0).tolist())
    assert len(residuals) == 8 and max(residuals) < BLOCK_TOL
    three = BlockCertificate(4, (0, 1, 2), residuals, BLOCK_TOL, unitaries_hash(bell))
    ok, reason = verify_certificate_detailed(three, bell)
    assert not ok and "two distinct rows" in reason
    assert not verify_certificate(certificate_to_dict(three), bell)


def test_certificate_json_round_trips():
    s = theorem1_set(9)
    cover = fourier_cover_prover(constraints_from_set(s.tag, 9), s.tag)
    doc = certificate_to_dict(cover)
    assert doc["kind"] == "fourier_cover"
    assert verify_certificate(certificate_from_dict(doc), s)

    t = theorem2_set(Theorem2Spec(7))
    block = block_identity_prover(hermitian_feasible_subspace(t), (0, 1))
    doc = certificate_to_dict(block)
    assert doc["kind"] == "forced_block"
    assert doc["unitaries_sha256"] == unitaries_hash(t)
    assert verify_certificate(certificate_from_dict(doc), t)

    with pytest.raises(ValueError):
        certificate_from_dict({"kind": "nope"})
    with pytest.raises(ValueError):
        certificate_from_dict({"kind": "forced_block"})


def test_certificate_fields_must_be_integers():
    # int() used to truncate these; both forgeries verified as (True, 'ok')
    t2 = theorem2_set(Theorem2Spec(7))
    cover = certificate_to_dict(certify_direction(theorem1_set(4)))
    block = certificate_to_dict(block_identity_prover(hermitian_feasible_subspace(t2), (0, 1)))
    forged_cover = dict(cover, d=4.7, witness_shift=cover["witness_shift"] + 0.5)
    forged_block = dict(block, d=7.9, block_rows=[0.5, 1.7])
    for forged, s in ((forged_cover, theorem1_set(4)), (forged_block, t2)):
        with pytest.raises(ValueError, match="malformed certificate: .* is not an integer"):
            certificate_from_dict(forged)
        ok, reason = verify_certificate_detailed(forged, s)
        assert not ok and reason.startswith("malformed certificate")
    for field, bad in (("witness_shift", True), ("uniform_modulus", [1.0, 4]), ("indices", [[0, 0.0]])):
        with pytest.raises(ValueError, match="is not an integer"):
            certificate_from_dict(dict(cover, **{field: bad}))
    assert verify_certificate(certificate_from_dict(dict(block, d=np.int64(7))), t2)
    rows_off = dataclasses.replace(certificate_from_dict(block), block_rows=(0.5, 1.7))
    ok, reason = verify_certificate_detailed(rows_off, t2)
    assert not ok and "not an integer" in reason


def test_malformed_cover_fields_are_refused_not_raised():
    # a zero denominator and a one-element label used to escape as
    # ZeroDivisionError and IndexError
    s = theorem1_set(4)
    cover = certificate_to_dict(certify_direction(s))
    for field, bad in (("uniform_modulus", [1, 0]), ("indices", [[0]]), ("indices", [[0, 0, 1]])):
        forged = dict(cover, **{field: bad})
        with pytest.raises(ValueError, match="malformed certificate"):
            certificate_from_dict(forged)
        ok, reason = verify_certificate_detailed(forged, s)
        assert not ok and reason.startswith("malformed certificate"), (field, bad, reason)


def test_certificate_flags_and_reals_must_be_json_types():
    # bool() and float() used to coerce these; both forgeries verified as (True, 'ok')
    t2 = theorem2_set(Theorem2Spec(7))
    block = certificate_to_dict(block_identity_prover(hermitian_feasible_subspace(t2), (0, 1)))
    as_strings = dict(
        block,
        tolerance=str(block["tolerance"]),
        forced_functional_residuals=[str(r) for r in block["forced_functional_residuals"]],
    )
    as_text_flag = dict(block, rank_one_reduction="false")
    for forged, message in ((as_text_flag, "is not a boolean"), (as_strings, "is not a number")):
        with pytest.raises(ValueError, match=f"malformed certificate: .* {message}"):
            certificate_from_dict(forged)
        ok, reason = verify_certificate_detailed(forged, t2)
        assert not ok and reason.startswith("malformed certificate")
    for field, bad in (("rank_one_reduction", 1), ("tolerance", True), ("forced_functional_residuals", [None])):
        with pytest.raises(ValueError, match="is not a"):
            certificate_from_dict(dict(block, **{field: bad}))
    assert certificate_from_dict(dict(block, tolerance=0)).tolerance == 0.0  # a JSON integer is a number
    assert not verify_certificate(certificate_from_dict(dict(block, rank_one_reduction=False)), t2)


def test_witness_projectors_lie_in_feasible_subspace():
    # any vector with pairwise-orthogonal images is feasible for the same set
    rng = np.random.default_rng(21)
    for d in (4, 5, 6):
        k1, k2 = rng.choice(d * d, size=2, replace=False)
        s = bell_set(d, [(int(k1) // d, int(k1) % d), (int(k2) // d, int(k2) % d)])
        w = witness_search(s)
        assert w.residual < 1e-16
        A = constraint_matrix(s)
        coords = hermitian_coords(np.outer(w.alpha, np.conj(w.alpha)))
        assert np.linalg.norm(A @ coords) < 1e-8


def test_cover_certified_sets_defeat_witness_search():
    for d in (4, 5, 6):
        s = theorem1_set(d)
        assert fourier_cover_prover(constraints_from_set(s.tag, d), s.tag) is not None
        assert witness_search(s).residual > 1e-6


def seeded_pairs():
    rng = np.random.default_rng(18)
    for d in range(2, 13):
        k1, k2 = rng.choice(d * d, size=2, replace=False)
        yield bell_set(d, [divmod(int(k1), d), divmod(int(k2), d)])
        yield random_untagged_pair(d, rng)


def test_no_prover_can_fire_on_a_pair():
    # the bounds behind certify_direction's pair exit: 2 constraint rows leave
    # three orthonormal block functionals a summed squared residual of at least
    # 3 - 2, and +-t are at most 2 of the 2d - 1 labels a Fourier cover needs
    for s in seeded_pairs():
        assert constraint_matrix(s).shape[0] == 2
        S = hermitian_feasible_subspace(s)
        assert S.constraint_rank <= 2
        assert scan_blocks(S) is None
        for rows in combinations(range(s.d), 2):
            assert sum(r * r for r in _projection_residuals(S, rows)) >= 1 - 1e-12
        if s.tag is not None:
            table = constraints_from_set(s.tag, s.d)
            assert np.count_nonzero(table) <= 2 < 2 * s.d - 1
            assert fourier_cover_prover(table, s.tag) is None


# ---------------------------------------------------------------------------
# one constraint build per certified direction
# ---------------------------------------------------------------------------


def count_calls(monkeypatch, name, *modules):
    """Patch name in each module with a wrapper that logs its calls; returns the log."""
    calls = []
    for module in modules:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, **kwargs):
            calls.append(name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_triu_pairs_is_a_read_only_bounded_cache_of_triu_indices():
    for n in range(7):
        i, j = triu_pairs(n)
        ref_i, ref_j = np.triu_indices(n, k=1)
        assert np.array_equal(i, ref_i) and np.array_equal(j, ref_j)
        assert not (i.flags.writeable or j.flags.writeable)
        assert triu_pairs(n) is triu_pairs(n)
    assert triu_pairs.cache_info().maxsize == 16


def test_decide_builds_the_constraint_matrix_once_per_direction(monkeypatch):
    builds = count_calls(monkeypatch, "constraint_matrix", entdis.certify)
    s = theorem2_set(Theorem2Spec(7))
    assert decide(s).one_way_indistinguishable is True
    assert len(builds) == 2
    # nothing is kept on the set: deciding it again builds both matrices again
    decide(s)
    assert len(builds) == 4


def test_decide_builds_the_label_table_once_per_direction(monkeypatch):
    # the prover looks the table up through entdis.search, the verifier through entdis.certify
    builds = count_calls(monkeypatch, "constraints_from_set", entdis.search, entdis.certify)
    matrices = count_calls(monkeypatch, "constraint_matrix", entdis.certify)
    assert decide(theorem1_set(9)).one_way_indistinguishable is True
    assert len(builds) == 2 and matrices == []


def test_certify_and_verify_commands_build_once(monkeypatch, tmp_path):
    set_file, certs_file, cert_file = tmp_path / "t2.json", tmp_path / "certs.json", tmp_path / "cert.json"
    assert cli_main(["gen", "theorem2", "--d", "7", "--output", str(set_file)]) == 0
    builds = count_calls(monkeypatch, "constraint_matrix", entdis.certify)
    assert cli_main(["certify", str(set_file), "--output", str(certs_file)]) == 0
    assert len(builds) == 2
    cert = json.loads(certs_file.read_text())["directions"]["A_to_B"]["certificate"]
    cert_file.write_text(json.dumps(cert))
    # the standalone verifier builds its own matrix from the set file
    assert cli_main(["verify", str(cert_file), str(set_file)]) == 0
    assert len(builds) == 3


def test_verify_without_constraints_builds_its_own(monkeypatch):
    t2, t1 = theorem2_set(Theorem2Spec(7)), theorem1_set(9)
    block, cover = certify_direction(t2), certify_direction(t1)
    matrices = count_calls(monkeypatch, "constraint_matrix", entdis.certify)
    tables = count_calls(monkeypatch, "constraints_from_set", entdis.search, entdis.certify)
    assert verify_certificate(block, t2) and len(matrices) == 1
    assert verify_certificate(cover, t1) and len(tables) == 1


def certified_corpus():
    for d in [*range(7, 26, 2), 61]:
        yield theorem2_set(Theorem2Spec(d))
    for d in [*range(4, 21), 64]:
        yield theorem1_set(d)


def built_constraints(cert, s):
    """The array certify_direction hands the verifier for this certificate's kind."""
    if isinstance(cert, CoverCertificate):
        return constraints_from_set(s.tag, s.d)
    return constraint_matrix(s)


def test_shared_constraints_give_the_verifiers_own_answer_on_the_certified_corpus():
    for s in certified_corpus():
        for direction in (s, transpose_set(s)):
            cert = certify_direction(direction)
            assert cert is not None, (s.d, len(s))
            A = built_constraints(cert, direction)
            shared = verify_certificate_detailed(cert, direction, constraints=A)
            assert shared == verify_certificate_detailed(cert, direction) == (True, "ok")


def test_shared_constraints_still_fail_every_tampered_certificate():
    t2 = theorem2_set(Theorem2Spec(7))
    block = certify_direction(t2)
    r = block.forced_functional_residuals
    t1 = theorem1_set(4)
    cover = certify_direction(t1)
    diagonal = bell_set(4, [(m, 0) for m in range(4)])  # shift 0 is full, no other shift occurs
    unforced = bell_set(5, [(0, 0), (1, 2)])
    true = tuple(_membership_residuals(constraint_matrix(unforced), 5, (0, 1)))
    cases = (
        (dataclasses.replace(block, forced_functional_residuals=(r[0] + 1e-3,) + r[1:]), t2, "stored residual"),
        (dataclasses.replace(block, unitaries_sha256=unitaries_hash(transpose_set(t2))), t2, "unitaries hash mismatch"),
        (BlockCertificate(5, (0, 1), true, 1.0, unitaries_hash(unforced)), unforced, "tolerance 1.000e+00 is above"),
        (BlockCertificate(5, (0, 1), true, BLOCK_TOL, unitaries_hash(unforced)), unforced, "recomputes to residual"),
        (dataclasses.replace(cover, indices=((0, 0), (1, 0))), t1, "certificate indices do not match the set"),
        (cover_certificate(diagonal, {1, 2, 3}, 1, ()), diagonal, "shift 1 does not carry every frequency"),
    )
    for cert, s, reason in cases:
        ok, got = verify_certificate_detailed(cert, s, constraints=built_constraints(cert, s))
        assert not ok and reason in got, (reason, got)
        assert (ok, got) == verify_certificate_detailed(cert, s)
        assert not verify_certificate(cert, s, constraints=built_constraints(cert, s))


def test_verifier_reads_the_constraints_it_is_handed():
    # a zero matrix forces nothing and an empty table covers nothing, so the
    # checks run on the handed array, not on one rebuilt from the set
    t2, t1 = theorem2_set(Theorem2Spec(7)), theorem1_set(9)
    ok, reason = verify_certificate_detailed(certify_direction(t2), t2, constraints=np.zeros((12, 49)))
    assert not ok and "recomputes to residual" in reason
    ok, reason = verify_certificate_detailed(certify_direction(t1), t1, constraints=np.zeros((9, 9), dtype=bool))
    assert not ok and reason == "stored shift-0 frequencies disagree with recomputation"


def test_constraints_of_the_wrong_kind_or_shape_are_refused():
    t2, t1 = theorem2_set(Theorem2Spec(7)), theorem1_set(9)
    block, cover = certify_direction(t2), certify_direction(t1)
    cases = (
        (block, t2, constraints_from_set([(0, 0), (1, 0)], 7), "forced_block certificate reads a float64"),
        (cover, t1, constraint_matrix(t1), "fourier_cover certificate reads a bool"),
        (block, t2, constraint_matrix(t2)[:-2], r"got float64 \(10, 49\)"),
        (block, t2, constraint_matrix(t2).astype(np.float32), "got float32"),
    )
    for cert, s, constraints, match in cases:
        for verify in (verify_certificate, verify_certificate_detailed):
            with pytest.raises(ValueError, match=match):
                verify(cert, s, constraints=constraints)
