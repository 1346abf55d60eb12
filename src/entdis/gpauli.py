"""Exact generalized Pauli (Weyl-Heisenberg) operator algebra on C^d.

Operators are labeled by residue pairs (m, n) mod d and act on the
computational basis as

    U_{mn} |j> = w^{m j} |j + n mod d>,        w = exp(2*pi*i/d),

i.e. m counts clock-phase powers and n cyclic shifts.  With Z = U_{10} and
X = U_{01} this fixes the ordering Z X = w X Z.  Products, adjoint products
and transposes stay inside the family up to a power of w; all phase
bookkeeping here is exact integer arithmetic mod d, so results are
bit-reproducible.  Dense matrices are derived artifacts realized in floating
point only by ``to_matrix``.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np


class PauliIndex(NamedTuple):
    """Label (m, n): m phase powers, n cyclic shifts, both residues mod d."""

    m: int
    n: int


class PhasedPauli(NamedTuple):
    """A generalized Pauli with a scalar prefactor w^phase."""

    phase: int
    index: PauliIndex


def is_integer(x) -> bool:
    """True for Python and numpy integers; bools and floats are not labels."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_dimension(d) -> int:
    if not is_integer(d):
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return int(d)


def check_index(d: int, p) -> PauliIndex:
    m, n = p
    if not (is_integer(m) and is_integer(n)):
        raise ValueError(f"index {(m, n)!r} must be a pair of integers")
    if not (0 <= m < d and 0 <= n < d):
        raise ValueError(f"index {(m, n)} out of range for dimension {d}")
    return PauliIndex(int(m), int(n))


def omega(d: int) -> complex:
    """Primitive d-th root of unity exp(2*pi*i/d)."""
    return complex(np.exp(2j * np.pi / d))


def phase_table(d: int) -> np.ndarray:
    """All powers w^0 .. w^{d-1}, evaluated once for accuracy."""
    return np.exp(2j * np.pi * np.arange(d) / d)


def apply(d, p, j):
    """Act with U_p on the basis ket |j>.

    Returns (phase exponent, image index): U_{mn}|j> = w^{m j}|j + n mod d>.
    """
    d = check_dimension(d)
    m, n = check_index(d, p)
    if not (isinstance(j, (int, np.integer)) and 0 <= j < d):
        raise ValueError(f"basis index {j!r} out of range for dimension {d}")
    return (m * j) % d, (j + n) % d


def adjoint_product(d, a, b) -> PhasedPauli:
    """U_a^dag U_b as a phased Pauli.

    For a = (m', n') and b = (m, n) the closed form is

        U_{m'n'}^dag U_{mn} = w^{m'(n' - n)} U_{(m - m') mod d, (n - n') mod d},

    which matches dense matrix multiplication exactly (verified in tests).
    """
    d = check_dimension(d)
    ma, na = check_index(d, a)
    mb, nb = check_index(d, b)
    phase = (ma * (na - nb)) % d
    return PhasedPauli(phase, PauliIndex((mb - ma) % d, (nb - na) % d))


def transpose_index(d, p) -> PhasedPauli:
    """U_p^T as a phased Pauli: U_{mn}^T = w^{-mn} U_{m, (-n) mod d}."""
    d = check_dimension(d)
    m, n = check_index(d, p)
    return PhasedPauli((-m * n) % d, PauliIndex(m, (-n) % d))


def to_matrix(d, p) -> np.ndarray:
    """Dense complex matrix of a PhasedPauli (or a bare PauliIndex).

    One nonzero unit-modulus entry per column: column j holds w^{phase + m j}
    at row (j + n) mod d.
    """
    d = check_dimension(d)
    if isinstance(p, PhasedPauli):
        phase, idx = p
    else:
        phase, idx = 0, p
    m, n = check_index(d, idx)
    j = np.arange(d)
    mat = np.zeros((d, d), dtype=np.complex128)
    mat[(j + n) % d, j] = phase_table(d)[(phase + m * j) % d]
    return mat


def all_indices(d) -> list[PauliIndex]:
    """All d^2 labels in row-major (m, n) order."""
    d = check_dimension(d)
    return [PauliIndex(m, n) for m in range(d) for n in range(d)]

