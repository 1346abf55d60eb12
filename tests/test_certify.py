import dataclasses
import hashlib
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from entdis.certify import (
    BLOCK_TOL,
    BlockCertificate,
    _SCREEN_TOL,
    _SQRT2,
    _membership_residuals,
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
    pair_operators,
    scan_blocks,
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


def test_pair_operators_equal_per_pair_loop():
    for s in pairwise_cases() + [theorem1_set(9)]:
        W = pair_operators(s)
        assert W.flags.c_contiguous
        assert np.array_equal(W, reference_pair_operators(s))
    with pytest.raises(ValueError):
        pair_operators(UnitarySet(2, (I2,)))


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


def test_certificate_fields_must_be_integers():
    # int() used to truncate these; both forgeries verified as (True, 'ok')
    t2 = theorem2_set(Theorem2Spec(7))
    cover = certificate_to_dict(fourier_cover_prover(constraints_from_set(theorem1_set(4).tag, 4)))
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
        assert fourier_cover_prover(constraints_from_set(s.tag, d)) is not None
        assert witness_search(s).residual > 1e-6
