import dataclasses
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from entdis.certify import (
    BLOCK_TOL,
    _block_coordinates,
    _functional_coords,
    _membership_residuals,
    _projection_residuals,
    _screen_rejects,
    block_identity_prover,
    certificate_from_dict,
    certificate_to_dict,
    constraint_matrix,
    constraints_from_set,
    fourier_cover_prover,
    hermitian_coords,
    hermitian_feasible_subspace,
    scan_blocks,
    traceless_block_functionals,
    unitaries_hash,
    verify_certificate,
    verify_certificate_detailed,
)
from entdis.search import witness_search
from entdis.serialize import canonical_json, matrix_to_json, sha256_hex
from entdis.states import Theorem2Spec, UnitarySet, bell_set, theorem1_indices, theorem1_set, theorem2_set

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


def freqs_by_shift(cons):
    out = {}
    for shift, freq in cons.constraints:
        out.setdefault(shift, set()).add(freq)
    return out


def test_constraints_single_pair():
    cons = constraints_from_set([(0, 0), (1, 0)], 4)
    assert cons.constraints == frozenset({(0, 1), (0, 3)})


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
        mirrored = {((-s) % d, (-f) % d) for s, f in cons.constraints}
        assert mirrored == set(cons.constraints)


def test_constraints_reject_duplicates():
    with pytest.raises(ValueError):
        constraints_from_set([(0, 0), (0, 0)], 3)


def test_cover_prover_theorem1_d4():
    cert = fourier_cover_prover(constraints_from_set(theorem1_indices(4), 4))
    assert cert is not None
    assert cert.witness_shift == 1
    assert cert.shift0_frequencies == frozenset({1, 2, 3})
    assert cert.shiftN_frequencies == frozenset(range(4))
    assert cert.uniform_modulus == Fraction(1, 4)


def test_cover_prover_inconclusive_on_diagonal_set():
    cert = fourier_cover_prover(constraints_from_set([(m, 0) for m in range(4)], 4))
    assert cert is None


@pytest.mark.parametrize("d", range(4, 21))
def test_cover_prover_certifies_family(d):
    s = theorem1_set(d)
    cert = fourier_cover_prover(constraints_from_set(s.tag, d))
    assert cert is not None
    assert verify_certificate(cert, s)


def test_cover_prover_monotone_under_supersets():
    rng = np.random.default_rng(11)
    for d in (4, 6, 9, 12):
        base = list(theorem1_indices(d))
        spare = [(m, n) for m in range(d) for n in range(d) if (m, n) not in base]
        extra = [spare[int(k)] for k in rng.choice(len(spare), size=2, replace=False)]
        cert = fourier_cover_prover(constraints_from_set(base + extra, d))
        assert cert is not None


def test_hermitian_coords_round_trip():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        M = (A + A.conj().T) / 2
        x = hermitian_coords(M)
        # the coordinate map is an isometry for Tr(AB)
        assert abs(np.dot(x, x) - np.real(np.trace(M @ M))) < 1e-10


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
            if _screen_rejects(fs, rows):
                assert max(proj) >= BLOCK_TOL, (k, rows)
            if first is None and max(proj) < BLOCK_TOL:
                first = (rows, tuple(proj))
        cert = scan_blocks(fs)
        assert (cert is None) == (first is None), k
        if cert is not None:
            assert (cert.block_rows, cert.forced_functional_residuals) == first
            certified += 1
    assert certified == 6


def test_block_coordinates_match_dense_functionals():
    for d, rows in ((2, (0, 1)), (5, (1, 3)), (5, (0, 2, 4)), (6, (0, 1, 3, 5))):
        fns = traceless_block_functionals(d, rows)
        sparse = _block_coordinates(d, rows)
        assert len(sparse) == len(fns)
        for H, (idx, coef) in zip(fns, sparse):
            h = np.zeros(d * d)
            h[idx] = coef
            assert np.max(np.abs(h - _functional_coords(H).real)) < 1e-15


def test_unitaries_hash_matches_canonical_json():
    rng = np.random.default_rng(37)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    V = np.full((3, 3), complex(-0.0, 0.0))
    V[:2, :2] = q
    V[2, 2] = np.exp(0.3j)
    pair = UnitarySet(3, (V, V * np.exp(2j * np.pi * np.arange(3) / 3)))
    floats = [repr(x) for U in pair.members for x in U.view(np.float64).ravel().tolist()]
    assert "-0.0" in floats
    assert any(len(x.lstrip("-0.")) == 17 for x in floats)
    for s in (theorem2_set(Theorem2Spec(7)), bell_set(5, [(0, 0), (1, 2), (3, 1)]), pair):
        doc = {"d": s.d, "unitaries": [matrix_to_json(U) for U in s.members]}
        assert unitaries_hash(s) == sha256_hex(canonical_json(doc))


def test_feasible_subspace_needs_two():
    with pytest.raises(ValueError):
        hermitian_feasible_subspace(UnitarySet(2, (I2,)))


def test_traceless_block_functionals_shape():
    fns = traceless_block_functionals(5, (1, 3))
    assert len(fns) == 3
    fns = traceless_block_functionals(5, (0, 2, 4))
    assert len(fns) == 8
    for H in fns:
        assert abs(np.trace(H)) < 1e-14
        assert np.max(np.abs(H - H.conj().T)) < 1e-14
    with pytest.raises(ValueError):
        traceless_block_functionals(5, (2,))
    with pytest.raises(ValueError):
        traceless_block_functionals(5, (2, 7))


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
    cert = fourier_cover_prover(constraints_from_set(s9.tag, 9))
    assert verify_certificate(cert, s9)
    ok, reason = verify_certificate_detailed(cert, theorem1_set(4))
    assert not ok and "dimension" in reason
    # wrong indices with the right dimension
    other = bell_set(9, [(0, 0), (1, 0)])
    ok, reason = verify_certificate_detailed(cert, other)
    assert not ok


def test_verify_cover_certificate_tamper_detection():
    s = theorem1_set(9)
    cert = fourier_cover_prover(constraints_from_set(s.tag, 9))

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


def test_certificate_json_round_trips():
    s = theorem1_set(9)
    cover = fourier_cover_prover(constraints_from_set(s.tag, 9))
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
        assert fourier_cover_prover(constraints_from_set(s.tag, d)) is not None
        assert witness_search(s).residual > 1e-6
