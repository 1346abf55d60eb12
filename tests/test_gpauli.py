"""Exact algebra tests: every closed form is checked against dense matrices.

The dense oracle below builds U_{mn} = X^n Z^m from explicit shift/clock
matrix powers, independently of gpauli.to_matrix.
"""
import numpy as np
import pytest

from entdis.gpauli import (
    PauliIndex,
    PhasedPauli,
    adjoint_product,
    all_indices,
    apply,
    check_index,
    omega,
    to_matrix,
    transpose_index,
)

TOL = 1e-12


def oracle_matrix(d, m, n):
    """U_{mn} via explicit matrix powers of the shift and clock matrices."""
    X = np.zeros((d, d), dtype=complex)
    for j in range(d):
        X[(j + 1) % d, j] = 1.0
    Z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return np.linalg.matrix_power(X, n) @ np.linalg.matrix_power(Z, m)


def test_apply_phase_type():
    assert apply(4, PauliIndex(1, 0), 2) == (2, 2)


def test_apply_pure_shift_wraps():
    assert apply(4, PauliIndex(0, 1), 3) == (0, 0)


def test_apply_against_dense_oracle():
    # frozen from the dense matrix of U_{23} at d=5 built column by column
    assert apply(5, PauliIndex(2, 3), 4) == (3, 2)
    U = oracle_matrix(5, 2, 3)
    col = U[:, 4]
    row = int(np.argmax(np.abs(col)))
    assert row == 2
    w = omega(5)
    assert abs(col[row] - w**3) < TOL


def test_apply_rejects_out_of_range():
    with pytest.raises(ValueError):
        apply(4, PauliIndex(1, 0), 4)
    with pytest.raises(ValueError):
        apply(4, PauliIndex(1, 0), -1)


@pytest.mark.parametrize("d", range(2, 7))
def test_apply_matches_matrix_columns(d):
    for p in all_indices(d):
        U = to_matrix(d, p)
        for j in range(d):
            phase, row = apply(d, p, j)
            assert abs(U[row, j] - omega(d) ** phase) < TOL
            assert np.count_nonzero(np.abs(U[:, j]) > TOL) == 1


def test_adjoint_product_self_is_identity():
    for d in (2, 5, 9):
        for p in ((0, 0), (1, 0), (2, 1) if d > 2 else (1, 1)):
            assert adjoint_product(d, p, p) == PhasedPauli(0, PauliIndex(0, 0))


def test_adjoint_product_frozen_example():
    # dense multiplication oracle: U_{11}^dag U_{10} at d=4
    got = adjoint_product(4, PauliIndex(1, 1), PauliIndex(1, 0))
    assert got == PhasedPauli(1, PauliIndex(0, 3))
    dense = oracle_matrix(4, 1, 1).conj().T @ oracle_matrix(4, 1, 0)
    assert np.max(np.abs(to_matrix(4, got) - dense)) < TOL


def test_adjoint_product_identity_left_factor():
    assert adjoint_product(4, PauliIndex(0, 0), PauliIndex(2, 3)) == PhasedPauli(
        0, PauliIndex(2, 3)
    )


@pytest.mark.parametrize("d", range(2, 6))
def test_adjoint_product_exhaustive_dense(d):
    w = omega(d)
    for a in all_indices(d):
        Ua = to_matrix(d, a)
        for b in all_indices(d):
            pp = adjoint_product(d, a, b)
            dense = Ua.conj().T @ to_matrix(d, b)
            assert np.max(np.abs(to_matrix(d, pp) - dense)) < TOL
            # exact phase exponent: read off the nonzero entry of column 0
            row = (0 + pp.index.n) % d
            assert abs(dense[row, 0] - w**pp.phase) < TOL


def test_to_matrix_qubit_cases():
    assert np.allclose(to_matrix(2, PhasedPauli(0, PauliIndex(1, 0))), np.diag([1, -1]))
    assert np.allclose(to_matrix(2, PhasedPauli(0, PauliIndex(0, 1))), [[0, 1], [1, 0]])


def test_to_matrix_phased_qutrit():
    got = to_matrix(3, PhasedPauli(1, PauliIndex(1, 1)))
    assert np.max(np.abs(got.conj().T @ got - np.eye(3))) < TOL
    assert np.max(np.abs(got - omega(3) * to_matrix(3, PauliIndex(1, 1)))) < TOL


@pytest.mark.parametrize("d", range(2, 9))
def test_to_matrix_unitary(d):
    for p in all_indices(d):
        U = to_matrix(d, p)
        assert np.max(np.abs(U.conj().T @ U - np.eye(d))) < TOL


def test_transpose_identity_and_diagonal_are_symmetric():
    assert transpose_index(5, PauliIndex(0, 0)) == PhasedPauli(0, PauliIndex(0, 0))
    assert transpose_index(4, PauliIndex(1, 0)) == PhasedPauli(0, PauliIndex(1, 0))


def test_transpose_frozen_example():
    assert transpose_index(4, PauliIndex(1, 1)) == PhasedPauli(3, PauliIndex(1, 3))


@pytest.mark.parametrize("d", range(2, 7))
def test_transpose_matches_dense(d):
    for p in all_indices(d):
        t = transpose_index(d, p)
        assert np.max(np.abs(to_matrix(d, t) - to_matrix(d, p).T)) < TOL


@pytest.mark.parametrize("d", range(2, 17))
def test_weyl_relation(d):
    Z = to_matrix(d, PauliIndex(1, 0))
    X = to_matrix(d, PauliIndex(0, 1))
    assert np.max(np.abs(Z @ X - omega(d) * X @ Z)) < TOL


@pytest.mark.parametrize("d", range(2, 7))
def test_twirl_identity(d):
    rng = np.random.default_rng(d)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = (A + A.conj().T) / 2
    acc = np.zeros((d, d), dtype=complex)
    for p in all_indices(d):
        U = to_matrix(d, p)
        acc += U @ rho @ U.conj().T
    assert np.max(np.abs(acc - d * np.trace(rho) * np.eye(d))) < 1e-10


def test_dimension_validation():
    with pytest.raises(ValueError):
        to_matrix(1, PauliIndex(0, 0))
    with pytest.raises(ValueError):
        apply(0, PauliIndex(0, 0), 0)
    with pytest.raises(ValueError):
        adjoint_product(3, PauliIndex(3, 0), PauliIndex(0, 0))


def test_check_index_accepts_only_integers():
    assert check_index(4, (np.int64(3), 1)) == PauliIndex(3, 1)
    assert type(check_index(4, (np.int64(3), 1)).m) is int
    for p in ((0.9, 0), (1.5, 0), (1, 2.0), (True, 0), (0, False), ("1", 0), (None, 0)):
        with pytest.raises(ValueError, match="pair of integers"):
            check_index(4, p)
