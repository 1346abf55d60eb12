"""Hot numeric kernels for the witness search.

The penalty is f(alpha) = sum_q r_q^2 over the residuals r_q = a^dag G_q a
of the Hermitian stack G of entdis.search._pair_stacks: the two Hermitian
parts of each operator W_p, so r = (Re g_p, -Im g_p), g_p = a^dag W_p a.
One stacked product c = G a gives everything.  r_q = Re(c_q . conj(a)),
and since G_q is Hermitian, the real Jacobian of r over the interleaved
parts (Re a_0, Im a_0, Re a_1, ...) of alpha is J = 2 c.view(float64); the
Euclidean gradient, as a complex vector, is grad = 2 J^T r = 4 sum_q r_q c_q.
Both real contractions run on float64 views.  penalty_value_grad returns c
too, from which entdis.search's Levenberg-Marquardt step reads J.

c is one stacked (2P, d, d) @ (d,) matmul.  Flattened into one (2P*d, d)
matrix-vector product it goes to a threaded BLAS gemv that bills twice its
wall time in CPU: a gradient call for theorem1 d=20 (2P = 60) takes 15 us
wall and 30 us CPU, against 20 us of both stacked (numpy 2.4.6, OpenBLAS
0.3.31, 2 cores, one process per variant).
"""
from __future__ import annotations

import numpy as np


def penalty_value(G: np.ndarray, alpha: np.ndarray) -> float:
    r = (G @ alpha).view(np.float64) @ alpha.view(np.float64)
    return float(r @ r)


def penalty_value_grad(G: np.ndarray, alpha: np.ndarray):
    c = G @ alpha
    cr = c.view(np.float64)
    r = cr @ alpha.view(np.float64)
    return float(r @ r), (4.0 * (r @ cr)).view(np.complex128), c
