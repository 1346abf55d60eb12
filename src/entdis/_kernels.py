"""Hot numeric kernels for the witness search.

The penalty is f(alpha) = sum_p |alpha^dag W_p alpha|^2 over the stacked
pair operators W_p = U_i^dag U_j (i < j); its Euclidean gradient over the
real/imaginary parts, written as a complex vector, is

    grad = 2 * sum_p ( conj(g_p) W_p + g_p W_p^dag ) alpha,   g_p = a^dag W_p a.

Half of it, with real and imaginary parts stacked, is J^T r for the real
Jacobian J of the residuals r = (Re g, Im g): the Levenberg-Marquardt
right-hand side in entdis.search.  penalty_value_grad also returns the
products W alpha and W^dag alpha, from which that step builds J.
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
    grad = 2.0 * (np.conj(g)[:, None] * wa + g[:, None] * wda).sum(axis=0)
    return f, grad, wa, wda
