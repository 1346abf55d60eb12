"""Hot numeric kernels for the witness search.

The penalty is f(alpha) = sum_p |alpha^dag W_p alpha|^2 over the stacked
operators W_p of entdis.search._pair_stacks: the pair operators
U_i^dag U_j (i < j), or for a tagged set one weighted Pauli per class
{t, -t} of label differences; its Euclidean gradient over the
real/imaginary parts, written as a complex vector, is

    grad = 2 * sum_p ( conj(g_p) W_p + g_p W_p^dag ) alpha,   g_p = a^dag W_p a.

Half of it, as the real vector of its real and imaginary parts, is J^T r
for the real Jacobian J of the residuals r = (Re g, Im g) over the same
coordinates of alpha: the Levenberg-Marquardt
right-hand side in entdis.search.  penalty_value_grad also returns the
products W alpha and W^dag alpha, from which that step builds J.

W alpha stays one stacked (P, d, d) @ (d,) matmul.  Flattened into one
(P*d, d) matrix-vector product it goes to a threaded BLAS gemv that bills
twice its wall time in CPU: for theorem1 d=20 (P=30) 7-10 us wall and
15-20 us CPU in either memory order, against 7-12 us of both stacked
(numpy 2.4.6, OpenBLAS 0.3.31, 2 cores, one process per variant).
"""
from __future__ import annotations

import numpy as np


def penalty_value(W: np.ndarray, alpha: np.ndarray) -> float:
    wa = W @ alpha
    g = wa @ np.conj(alpha)
    return float(np.sum(g.real * g.real + g.imag * g.imag))


def penalty_value_grad(W: np.ndarray, Wd: np.ndarray, alpha: np.ndarray):
    wa = W @ alpha
    wda = Wd @ alpha
    g = wa @ np.conj(alpha)
    f = float(np.sum(g.real * g.real + g.imag * g.imag))
    grad = 2.0 * (np.conj(g) @ wa + g @ wda)
    return f, grad, wa, wda
