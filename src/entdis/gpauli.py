"""Exact generalized Pauli (Weyl-Heisenberg) operator algebra on C^d.

Operators are labeled by residue pairs (m, n) mod d and act on the
computational basis as

    U_{mn} |j> = w^{m j} |j + n mod d>,        w = exp(2*pi*i/d),

i.e. m counts clock-phase powers and n cyclic shifts.  With Z = U_{10} and
X = U_{01} this fixes the ordering Z X = w X Z.  Products, adjoint products
and transposes stay inside the family up to a power of w; all phase
bookkeeping here is exact integer arithmetic mod d, so results are
bit-reproducible.  Dense matrices are derived artifacts realized in floating
point only from ``weyl_columns``, the one place U_{mn}'s entries are
written: ``weyl_stack`` scatters them into a stack of matrices and
``to_matrix`` is one such stack.
"""
from __future__ import annotations

from functools import lru_cache
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


@lru_cache(maxsize=64)
def phase_table(d: int) -> np.ndarray:
    """All powers w^0 .. w^{d-1}, evaluated once for accuracy, as a read-only array cached per d."""
    w = np.exp(2j * np.pi * np.arange(d) / d)
    w.flags.writeable = False
    return w


def weyl_columns(d: int, labels, phase=0):
    """(rows, vals), both (L, d): column j of w^phase U_mn, label l = (m, n), holds
    vals[l, j] = w^{(phase + m j) mod d} at row rows[l, j] = (j + n) mod d.

    Labels and exponents are read mod d.
    """
    d = check_dimension(d)
    m, n = np.array(labels, dtype=np.int64).reshape(-1, 2).T[:, :, None]
    j = np.arange(d)
    return (j + n) % d, phase_table(d)[(phase + m * j) % d]


def weyl_stack(d: int, labels, phase=0) -> np.ndarray:
    """(L, d, d) stack of the dense matrices w^phase U_mn, scattered from weyl_columns.

    The stack is allocated first, so a size numpy cannot hold raises before
    the (L, d) columns are built.
    """
    d = check_dimension(d)
    labels = np.array(labels, dtype=np.int64).reshape(-1, 2)
    W = np.zeros((len(labels), d, d), dtype=np.complex128)
    rows, vals = weyl_columns(d, labels, phase)
    W[np.arange(len(rows))[:, None], rows, np.arange(d)] = vals
    return W


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
    """Dense complex matrix of a PhasedPauli (or a bare PauliIndex), from weyl_stack."""
    d = check_dimension(d)
    phase, idx = p if isinstance(p, PhasedPauli) else (0, p)
    return weyl_stack(d, [check_index(d, idx)], phase)[0]


def all_indices(d) -> list[PauliIndex]:
    """All d^2 labels in row-major (m, n) order."""
    d = check_dimension(d)
    return [PauliIndex(m, n) for m in range(d) for n in range(d)]


def lagrangians(d) -> list[tuple[int, int, int]]:
    """Every Lagrangian (order-d subgroup of Z_d^2 on which mn' - nm' vanishes) once.

    Each is (a, b, c), its Hermite normal form rows (a, b) and (0, c) with
    ac = d and 0 <= b < c, so there are sigma(d) of them, ordered by a, then
    b.  A label (m, n) lies in it exactly when a | m and n = (m/a) b mod c.
    """
    d = check_dimension(d)
    return [(a, b, d // a) for a in range(1, d + 1) if d % a == 0 for b in range(d // a)]


def difference_table(d: int, labels) -> np.ndarray:
    """(d, d) boolean table of the label differences D = {t_i - t_j : i != j}.

    table[n, m] is True when (m, n) is in D: rows are shifts n, columns
    frequencies m, as in the Fourier-cover certificate.  D is closed under
    negation, and (0, 0) is in D only if a label repeats.  The differences
    are formed for blocks of about 2^16 pairs, so memory stays O(d^2 + N)
    for N labels.
    """
    t = np.array(labels, dtype=np.int64).reshape(-1, 2)
    k = np.arange(len(t))
    table, step = np.zeros((d, d), dtype=bool), max(1, (1 << 16) // max(1, len(t)))
    for lo in range(0, len(t), step):
        m, n = ((t[None] - t[lo : lo + step, None]) % d)[k[lo : lo + step, None] != k].T
        table[n, m] = True
    return table
