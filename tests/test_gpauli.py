"""Exact algebra tests: every closed form is checked against dense matrices.

The dense oracle below builds U_{mn} = X^n Z^m from explicit shift/clock
matrix powers, independently of gpauli.weyl_columns, which writes every dense
Pauli of the package.
"""
import tracemalloc

import numpy as np
import pytest

from entdis.gpauli import (
    PauliIndex,
    PhasedPauli,
    adjoint_product,
    all_indices,
    check_index,
    difference_table,
    lagrangians,
    omega,
    to_matrix,
    transpose_index,
    weyl_columns,
    weyl_stack,
)

TOL = 1e-12


def oracle_matrix(d, m, n):
    """U_{mn} via explicit matrix powers of the shift and clock matrices."""
    X = np.zeros((d, d), dtype=complex)
    for j in range(d):
        X[(j + 1) % d, j] = 1.0
    Z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return np.linalg.matrix_power(X, n) @ np.linalg.matrix_power(Z, m)


# U_p applied to the basis ket |j> is column j of weyl_columns: w^{mj} |j + n mod d>


def applied(d, p, j, phase=0):
    """(row, value) of U_p |j> read off weyl_columns."""
    rows, vals = weyl_columns(d, [p], phase)
    assert rows.shape == vals.shape == (1, d)
    return int(rows[0, j]), vals[0, j]


def test_apply_phase_type():
    row, val = applied(4, PauliIndex(1, 0), 2)
    assert row == 2 and abs(val - omega(4) ** 2) < TOL


def test_apply_pure_shift_wraps():
    assert applied(4, PauliIndex(0, 1), 3) == (0, 1.0)


def test_apply_against_dense_oracle():
    # frozen from the dense matrix of U_{23} at d=5 built column by column
    row, val = applied(5, PauliIndex(2, 3), 4)
    assert row == 2 and abs(val - omega(5) ** 3) < TOL
    U = oracle_matrix(5, 2, 3)
    col = U[:, 4]
    assert int(np.argmax(np.abs(col))) == 2
    assert abs(col[2] - omega(5) ** 3) < TOL
    # a phase w^2 moves the entry to w^5 = 1, reduced mod d before the table lookup
    assert applied(5, PauliIndex(2, 3), 4, phase=2) == (2, 1.0)


def test_apply_rejects_out_of_range():
    # the checked entry point refuses labels outside Z_d; weyl_columns reads them mod d
    for p in ((4, 0), (-1, 0), (0, 4)):
        with pytest.raises(ValueError, match="out of range"):
            to_matrix(4, PauliIndex(*p))
    rows, vals = weyl_columns(4, [(1, 2), (5, -2), (-3, 6)])
    assert (rows == rows[0]).all() and (vals == vals[0]).all()


@pytest.mark.parametrize("d", range(2, 7))
def test_apply_matches_matrix_columns(d):
    labels = all_indices(d)
    for phase in (0, 1, d - 1, 3 * d - 1):
        rows, vals = weyl_columns(d, labels, phase)
        stack = weyl_stack(d, labels, phase)
        for k, (m, n) in enumerate(labels):
            U = omega(d) ** phase * oracle_matrix(d, m, n)
            assert np.max(np.abs(stack[k] - U)) < TOL
            assert np.array_equal(stack[k], to_matrix(d, PhasedPauli(phase, PauliIndex(m, n))))
            for j in range(d):
                assert abs(U[rows[k, j], j] - vals[k, j]) < TOL
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


def reference_to_matrix(d, phase, m, n):
    """The per-column loop that to_matrix's single fancy assignment replaces."""
    w = np.exp(2j * np.pi * np.arange(d) / d)
    mat = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        mat[(j + n) % d, j] = w[(phase + m * j) % d]
    return mat


@pytest.mark.parametrize("d", range(2, 8))
def test_to_matrix_matches_column_loop(d):
    for m, n in all_indices(d):
        assert np.array_equal(to_matrix(d, PauliIndex(m, n)), reference_to_matrix(d, 0, m, n))
        for phase in range(d):
            got = to_matrix(d, PhasedPauli(phase, PauliIndex(m, n)))
            assert np.array_equal(got, reference_to_matrix(d, phase, m, n)), (m, n, phase)


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
        weyl_columns(0, [PauliIndex(0, 0)])
    with pytest.raises(ValueError):
        adjoint_product(3, PauliIndex(3, 0), PauliIndex(0, 0))


def test_check_index_accepts_only_integers():
    assert check_index(4, (np.int64(3), 1)) == PauliIndex(3, 1)
    assert type(check_index(4, (np.int64(3), 1)).m) is int
    for p in ((0.9, 0), (1.5, 0), (1, 2.0), (True, 0), (0, False), ("1", 0), (None, 0)):
        with pytest.raises(ValueError, match="pair of integers"):
            check_index(4, p)


@pytest.mark.parametrize("d", range(2, 13))
def test_lagrangians_are_every_isotropic_subgroup_of_order_d_once(d):
    sigma = sum(a for a in range(1, d + 1) if d % a == 0)
    subgroups = set()
    for a, b, c in lagrangians(d):
        L = frozenset(((x * a) % d, (x * b + y * c) % d) for x in range(d) for y in range(d))
        assert len(L) == d, (a, b, c)
        assert all(((p[0] + q[0]) % d, (p[1] + q[1]) % d) in L for p in L for q in L)
        assert all((p[0] * q[1] - p[1] * q[0]) % d == 0 for p in L for q in L)
        # the membership rule of the docstring
        assert L == {(m, n) for m, n in all_indices(d) if m % a == 0 and (n - m // a * b) % c == 0}
        subgroups.add(L)
    assert len(subgroups) == len(lagrangians(d)) == sigma


def test_difference_table_marks_every_difference_of_two_labels():
    rng = np.random.default_rng(22)
    for _ in range(25):
        d = int(rng.integers(2, 12))
        picks = rng.choice(d * d, size=int(rng.integers(1, min(d * d, 7) + 1)), replace=False)
        labels = [divmod(int(k), d) for k in picks]
        expected = np.zeros((d, d), dtype=bool)
        for i, (mi, ni) in enumerate(labels):
            for j, (mj, nj) in enumerate(labels):
                if i != j:
                    expected[(ni - nj) % d, (mi - mj) % d] = True  # [shift, frequency]
        assert np.array_equal(difference_table(d, labels), expected)


def test_difference_table_forms_the_differences_in_blocks():
    # all 1024^2 label pairs of d=32 at once would hold about 48 MB of differences
    d = 32
    tracemalloc.start()
    try:
        table = difference_table(d, all_indices(d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(table) == d * d - 1 and not table[0, 0]
    assert peak < 8 * 2**20, peak
