"""Numerical side of the decision procedure.

Witness search: a set of maximally entangled states defined by unitaries
{U_i} is one-way distinguishable (measuring party first) when some unit
vector alpha has pairwise-orthogonal images {U_i alpha}.  The search
minimizes the squared violation f(alpha) = sum_{i<j} |<alpha|U_i^dag
U_j|alpha>|^2 on the unit sphere: each random restart runs one damped
Gauss-Newton (Levenberg-Marquardt) solve of the residual system, real and
imaginary parts of <alpha|U_i^dag U_j|alpha> = 0, renormalizing after every
step.  Those residuals are a^dag G_q a for one stack G of Hermitian parts,
so one stacked product G a gives the residuals, the Jacobian and the
gradient (entdis._kernels).  A tagged set's terms depend only on the label
differences t_j - t_i, and t and -t give the same term, so its sum runs
over one weighted Pauli per class {t, -t} (theorem1 d=20: 30 operators for
66 pairs), scattered from the labels; the numeric POVM checks, the answer
table and the provers keep reading the members.  The damped normal system is
solved by Cholesky; an accepted trial carries its kernel results into the next
iteration, and a restart that only crawls on below 1e-20 ends there.  Each
block of d consecutive restarts starts from the rows of one random
orthonormal basis (one QR), so the starts pooled for NNLS completion
resolve the identity; the witnesses found near them then do so far more
often than those of independent starts.  Restarts run one after another,
each a pure function of (seed, restart index).  The search ends at its
first witness; for an untagged set, run_protocol adds restarts, doubling
the whole blocks, only while POVM completion fails.

Decision: certify_direction runs the exact provers of entdis.certify (the
forced-block residuals come from a projection onto the row space of the
constraint matrix) on every set but a pair, where neither can fire;
run_protocol runs search, POVM completion and the protocol simulation on
whole arrays.  Completion takes the d-element stabilizer basis of a
Lagrangian L that avoids a tagged set's label differences (_label_basis),
or else the Pauli orbit of its witness from label arithmetic, or NNLS over
an untagged set's pooled witnesses (_nnls).  A label basis is gated and
simulated by label arithmetic (_label_tie: L misses the differences and
the stored vectors equal L's basis exactly), so the receiver's states are
orthogonal by label_povm's argument and the success probability is exactly
1.  Every other POVM is checked on one stack of the receiver's states
U_i conj(phi_k), read by the orthogonality gate and by one answer table.
Either way the exact success probability fixes a single binomial draw of
the success count.  Those products are einsum calls, not @: a complex @
this size wakes a spinning BLAS helper thread.  decide_direction chains
the two.  scipy is imported only for LAPACK dposv, by the first damped
solve, so a certified direction runs on numpy alone.

Conventions: the stored witness alpha lives on the receiving (Bob) side;
the measuring party's POVM vectors are the conjugates phi = conj(alpha),
because projecting Alice's half of (I (x) U)|psi0> onto <phi| leaves Bob in
U|conj(phi)> up to normalization.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache, lru_cache

import numpy as np

from . import _kernels as K
from .certify import (
    certificate_to_dict,
    constraints_from_set,
    fourier_cover_prover,
    hermitian_coords,
    hermitian_feasible_subspace,
    hermitian_parts,
    pair_operators,
    scan_blocks,
    triu_pairs,
    verify_certificate,
)
# all_indices and to_matrix go unused but stay importable: decidebench's tracer wraps them by name
from . import gpauli
from .gpauli import all_indices, lagrangians, to_matrix, weyl_columns, weyl_stack  # noqa: F401
from .serialize import complex_to_pair
from .states import UnitarySet, transpose_set
from .version import __version__

IDENTITY_TOL = 1e-8
ELEMENT_ORTHO_TOL = 1e-6
SIMULATION_TRIALS = 10_000
MAX_TRIALS = 2**63 - 1  # the binomial success count is an int64
_MERGE_TOL = 1e-10
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class OptimizerConfig:
    """Random-restart search configuration.

    restarts caps the restarts of one direction, completion retries included.
    """

    restarts: int = 64
    max_iterations: int = 2000
    success_tol: float = 1e-12
    failure_floor: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "max_iterations", "seed"):
            if not gpauli.is_integer(getattr(self, name)):  # range() and ^ need integers
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
            object.__setattr__(self, name, int(getattr(self, name)))  # a numpy seed overflows & _SEED_MASK
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        for name in ("max_iterations", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("success_tol", "failure_floor"):
            if not np.isfinite(getattr(self, name)):  # inf would fail the JSON report after the whole decision
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.success_tol > 0:  # no residual f >= 0 passes f < success_tol
            raise ValueError(f"success_tol must be > 0, got {self.success_tol}")
        if not self.success_tol < self.failure_floor:
            raise ValueError("success_tol must be smaller than failure_floor")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Witness:
    """Bob-side unit vector with its recomputable orthogonality residual."""

    d: int
    alpha: np.ndarray
    residual: float

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "alpha": [complex_to_pair(z) for z in self.alpha],
            "residual": self.residual,
        }


@dataclass(frozen=True)
class Povm:
    """Rank-one elements m_k |phi_k><phi_k| on the measuring side.

    weights (float64 m_k; complex ones and a 1-D count other than the
    vectors' are refused) and vectors (complex128, row k the unit vector
    phi_k) are stored as arrays, copied only to change type.  lagrangian is
    the (a, b, c) of label_povm's basis, else None, trusted via _label_tie.
    """

    weights: np.ndarray
    vectors: np.ndarray
    lagrangian: tuple[int, int, int] | None = None

    def __post_init__(self):
        if np.iscomplexobj(self.weights):
            raise ValueError("POVM weights must be real")
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=np.complex128))
        if np.ndim(self.weights) == 1 and np.ndim(self.vectors) >= 1 and len(self.weights) != len(self.vectors):
            raise ValueError(f"POVM has {len(self.weights)} weights but {len(self.vectors)} vectors")
        if self.lagrangian is not None:
            L = tuple(self.lagrangian) if isinstance(self.lagrangian, (tuple, list)) else ()
            if len(L) != 3 or not all(map(gpauli.is_integer, L)):
                raise ValueError(f"lagrangian must be None or three integers (a, b, c), got {self.lagrangian!r}")
            object.__setattr__(self, "lagrangian", tuple(map(int, L)))

    def __len__(self):
        return len(self.weights)


def penalty(alpha: np.ndarray, s: UnitarySet):
    """Penalty value and Riemannian gradient rg = g - Re(<alpha, g>) alpha at a unit vector.

    g is the Euclidean gradient over real/imaginary parts.  For a tagged set
    the value is taken on the exact Paulis of the labels (see _pair_stacks),
    not on the members, which a transpose_set multiplies by unit phases.
    """
    alpha = np.ascontiguousarray(alpha, dtype=np.complex128).reshape(-1)  # the kernels take float64 views
    if alpha.shape != (s.d,):
        raise ValueError(f"expected a vector of length {s.d}, got {alpha.shape}")
    if not abs(np.linalg.norm(alpha) - 1.0) <= 1e-10:
        raise ValueError("penalty requires a unit vector")
    f, grad, _ = K.penalty_value_grad(_pair_stacks(s), alpha)
    rgrad = grad - np.real(np.vdot(alpha, grad)) * alpha
    return float(f), rgrad


def _pair_stacks(s: UnitarySet) -> np.ndarray:
    """The kernels' stack hermitian_parts(W) of the operators W_p the penalty sums over.

    |a^dag W_p a|^2 = (a^dag H_p a)^2 + (a^dag K_p a)^2.  An untagged set gives
    the pair operators U_i^dag U_j (i < j), so its stack's hermitian_coords
    are the rows of constraint_matrix.  For a tagged set U_i^dag U_j is a
    phase times U_t, t = t_j - t_i, and |<a|U_{-t}|a>| = |<a|U_t|a>|, so each
    class {t, -t} of these differences gives one operator sqrt(mu) U_t
    instead, mu the number of pairs in the class and t its lower flat label
    m*d + n, built by weyl_stack; its penalty is the one of the exact Paulis
    of the labels.
    """
    if s.tag is None:
        W = pair_operators(s)
    elif len(s) < 2:
        raise ValueError("distinguishability needs at least two states")
    else:
        d, t = s.d, np.array(s.tag)
        key = (t - t[:, None]) % d @ np.array([d, 1])  # key[i, j] = flat label of t_j - t_i
        mu = np.bincount(np.minimum(key, key.T).ravel(), minlength=d * d) // 2  # each pair in both orders
        mu[0] = 0  # the diagonal i = j: validation keeps the labels distinct
        labels = np.flatnonzero(mu)
        W = weyl_stack(d, np.stack(np.divmod(labels, d), axis=1))
        W *= np.sqrt(mu[labels])[:, None, None]
    return hermitian_parts(W)


@cache
def _lapack():
    """scipy's LAPACK wrappers, imported by the first damped solve, not by `import entdis`."""
    from scipy.linalg import lapack

    return lapack


def _spd_solve(m, rhs):
    """Solve m z = rhs for a symmetric positive definite m by Cholesky (LAPACK dposv).

    Raises LinAlgError when the factorization fails, i.e. m is singular or
    indefinite.  The first call imports scipy's LAPACK wrappers (see _lapack).
    """
    _, z, info = _lapack().dposv(m, rhs)
    if info != 0:
        raise np.linalg.LinAlgError(f"matrix is not positive definite (dposv info {info})")
    return z


def _levenberg(G, alpha, max_iterations):
    """Levenberg-Marquardt on the residual system a^dag G_q a = 0, renormalizing.

    Each K.penalty_value_grad call gives f, the gradient (2 J^T r) and c = G a,
    whose float64 view is half the Jacobian J; an accepted trial's results
    serve the next iteration.  J^T J gets a penalty on the radial and
    global-phase directions, scaled to its mean diagonal: f is homogeneous
    of degree 4, so an undamped step would shrink alpha and the
    renormalization would undo it.  That scale is positive whenever f is, so
    with the damping lam * scale * I (lam >= 1e-9) _spd_solve's Cholesky
    applies.  A trial that lowers f is taken and lam drops 4x (not below
    1e-9); otherwise it grows 4x, up to 30 times.  Stops below 1e-28, on a
    relative plateau over 5 iterations (coarse while f > 1e-2), on a crawl
    below 1e-20 (f fell by less than a third), or when no damping lowers f.
    """
    d = alpha.shape[0]
    a = alpha
    lam = 1e-3
    eye = np.eye(2 * d)
    f, grad, c = K.penalty_value_grad(G, a)
    window_f, window_at = f, 0
    for it in range(max_iterations):
        if f < 1e-28:
            break
        if it - window_at >= 5:
            prog = (window_f - f) / f
            if prog < 1e-9 or (f > 1e-2 and prog < 1e-3) or (f < 1e-20 and prog < 0.5):
                break
            window_f, window_at = f, it
        # unknowns interleaved (Re a_0, Im a_0, Re a_1, ...): complex arrays
        # enter the real system as float64 views
        jac = 2.0 * c.view(np.float64)
        normal = jac.T @ jac
        scale = normal.trace() / (2 * d)
        uv = np.array([a, 1j * a]).view(np.float64)  # radial and phase directions
        normal += scale * (uv.T @ uv)
        rhs = -0.5 * grad.view(np.float64)
        for _ in range(30):
            trial = a + _spd_solve(normal + lam * scale * eye, rhs).view(np.complex128)
            trial /= np.linalg.norm(trial)
            ft, gt, ct = K.penalty_value_grad(G, trial)
            if ft < f:
                lam = max(lam / 4.0, 1e-9)
                break
            lam *= 4.0
        else:  # no damping lowers f: stationary to machine precision
            break
        a, f, grad, c = trial, ft, gt, ct
    return a, float(f)


def _restart_basis(d, seed, m):
    """Starts of restarts m*d .. m*d + d - 1: the rows of one orthonormal basis,
    QR-orthonormalized from complex Gaussian draws seeded by seed ^ (m << 32),
    so each seed below 2^32 has its own blocks."""
    rng = np.random.default_rng((seed ^ (m << 32)) & _SEED_MASK)
    z = rng.standard_normal((d, 2, d))
    q, r = np.linalg.qr((z[:, 0] + 1j * z[:, 1]).T)
    r = np.diagonal(r)
    return np.ascontiguousarray((q * (r / abs(r))).T)


def _run_restart(G, basis, d, cfg, index):
    """One _levenberg restart from row index % d of its block's _restart_basis; returns (f, alpha)."""
    alpha, f = _levenberg(G, basis[index % d], cfg.max_iterations)
    return f, alpha


def _restarts(G, d, cfg, start, stop):
    """Restarts start .. stop - 1 in order, one _restart_basis per block."""
    for r in range(start, stop):
        if r == start or r % d == 0:
            basis = _restart_basis(d, cfg.seed, r // d)
        yield _run_restart(G, basis, d, cfg, r)


def witness_search(s: UnitarySet, cfg: OptimizerConfig | None = None, *, collect: bool = False):
    """Witness from up to cfg.restarts seeded restarts, run in order until one is below success_tol.

    Each restart is one Levenberg-Marquardt solve of at most
    cfg.max_iterations iterations from one row of its block's _restart_basis.
    Selection: the lowest residual (ties to the lower index), so the success
    the search stopped at, if any.

    With collect=True also returns the per-restart (residual, alpha) list
    actually evaluated, for POVM harvesting.
    """
    cfg = cfg or OptimizerConfig()
    harvest = []
    for result in _restarts(_pair_stacks(s), s.d, cfg, 0, cfg.restarts):
        harvest.append(result)
        if result[0] < cfg.success_tol:
            break

    f, alpha = min(harvest, key=lambda result: result[0])
    alpha = np.array(alpha)
    alpha.setflags(write=False)
    witness = Witness(s.d, alpha, float(f))
    if collect:
        return witness, harvest
    return witness


# ---------------------------------------------------------------------------
# POVM completion
# ---------------------------------------------------------------------------


def orbit_povm(d: int, alpha: np.ndarray) -> Povm:
    """POVM from the full Pauli orbit of a Bob-side unit vector.

    The d^2 vectors U_t alpha with weights 1/d resolve the identity
    (averaging a rank-one projector over all Pauli conjugations yields
    Tr(rho) I); stored elements are the Alice-side conjugates, from
    weyl_columns and U_mn = U_0n U_m0: the clock's values times alpha at the
    shift's rows.  U_r alpha and U_s alpha are equal up to phase exactly when
    U_{s-r} (a phase times U_r^dag U_s) fixes alpha up to phase, so the equal
    elements are the cosets of alpha's stabilizer
    S = {t : |<alpha|U_t alpha>| > 1 - _MERGE_TOL}.
    Each coset keeps its lowest label, with weight |S|/d.
    """
    alpha = np.asarray(alpha, dtype=np.complex128).reshape(-1)
    if alpha.shape != (d,):
        raise ValueError(f"expected a vector of length {d}, got {alpha.shape}")
    if not abs(np.linalg.norm(alpha) - 1.0) <= 1e-10:
        raise ValueError("orbit_povm requires a unit vector")
    k = np.arange(d)
    labels = np.zeros((2 * d, 2), dtype=np.int64)
    labels[:d, 0] = labels[d:, 1] = k  # the clocks (m, 0), then the shifts (0, n)
    rows, vals = weyl_columns(d, labels)
    V = np.empty((d * d, d), dtype=np.complex128)  # row m*d + n holds conj(U_mn alpha)
    V.reshape(d, d, d)[:, k[:, None], rows[d:]] = (np.conj(vals[:d]) * np.conj(alpha))[:, None, :]
    stab = np.flatnonzero(np.abs(np.einsum("kd,d->k", V, alpha)) > 1.0 - _MERGE_TOL)
    m, n = np.divmod(np.arange(d * d)[:, None], d)
    reps = np.unique(((m + stab // d) % d * d + (n + stab % d) % d).min(axis=1))  # lowest label of each coset
    return Povm(np.full(len(reps), len(stab) / d), V[reps])


@lru_cache(maxsize=256)
def _lagrangian_gathers(d: int, lagrangian) -> tuple | None:
    """Read-only (labels, cycles) of a Lagrangian L = (a, b, c) of gpauli.lagrangians(d), else None.

    labels are the flat labels n*d + m of L's d elements (k a, k b + l c),
    k < c, l < a, in the order of difference_table's flat view; row r0 of
    cycles, r0 < gcd(b, c), is the orbit r0 + t b mod c of r -> r + b on Z_c.
    """
    if lagrangian not in lagrangians(d):
        return None
    a, b, c = lagrangian
    k, l = np.divmod(np.arange(d), a)
    g = np.gcd(b, c)
    gathers = ((k * b + l * c) % d * d + k * a, (np.arange(g)[:, None] + np.arange(c // g) * b) % c)
    for x in gathers:
        x.flags.writeable = False
    return gathers


@lru_cache(maxsize=8)
def _label_basis(d: int, lagrangian) -> np.ndarray:
    """Read-only (d, d) conjugates phi_k of the common eigenvectors of L = (a, b, c)'s generators.

    With j = r + c q, U_(0,c) steps q; U_(a,b) multiplies by w^(a r) and
    moves r along its cycle r_t (t < l), carrying into q when r_t + b >= c.
    Row (s, r0, m) conjugates v[r_t + c q] = z^(l E_t - t (E_l + d m) - l c s q) / sqrt(l a),
    z = exp(2 pi i / (d l)), E_t = sum_(u<t) (a r_u + c s [r_u + b >= c]): eigenvalues w^(c s), z^(E_l + d m).
    """
    a, b, c = lagrangian
    cycles = _lagrangian_gathers(d, lagrangian)[1]
    g, l = cycles.shape
    s, r0, m, t, q = np.ix_(range(a), range(g), range(l), range(l), range(a))
    r = cycles[:, None, :, None]
    steps = a * r + c * s * (r + b >= c)
    E = np.cumsum(steps, axis=3)  # E_(t+1)
    e = (l * (E - steps) - t * (E[..., -1:, :] + d * m) - l * c * s * q) % (d * l)
    V = np.zeros((d, d), dtype=np.complex128)  # V[j, k] = phi_k[j]
    V.reshape(d, a, g, l)[r + c * q, s, r0, m] = np.exp(-2j * np.pi / (d * l) * e) / np.sqrt(l * a)
    V.flags.writeable = False
    return V.T  # column-major rows: povm_identity_residual's einsum runs 1.3x (d=20) to 1.8x (d=64) faster


def label_povm(d: int, tag) -> Povm | None:
    """Stabilizer basis of the first Lagrangian L that avoids the label differences, or None.

    D = {t_j - t_i : i != j} is read off gpauli.difference_table at L's
    elements.  If L and D share no element, the d common eigenvectors phi_k
    of {U_t : t in L} all witness the set: for s not in L some t in L has
    <s, t> != 0 (L is its own symplectic complement), and conjugating by U_t
    multiplies <phi_k|U_s|phi_k> by a nontrivial root of unity, so the value
    is 0.  The elements are _label_basis(d, L), built only for the L
    returned, with weight 1 each; the POVM records L for _label_tie.
    """
    table = gpauli.difference_table(d, tag).reshape(-1)
    for L in lagrangians(d):
        if not table[_lagrangian_gathers(d, L)[0]].any():
            return Povm(np.ones(d), _label_basis(d, L), L)
    return None


def _label_tie(s: UnitarySet, povm: Povm) -> bool:
    """True when povm is an exact label protocol for s: its success probability is 1.

    Integer part: povm.lagrangian is a Lagrangian L of Z_d^2 that misses s's
    label differences (difference_table at L's elements; an untagged s never
    ties).  Vector part: the stored vectors equal _label_basis(d, L) exactly.
    Each b_k = conj(phi_k) is then a common eigenvector of {U_t : t in L},
    so by label_povm's argument the receiver's states U_i b_k of every
    outcome are pairwise orthogonal.
    """
    gathers = None if s.tag is None else _lagrangian_gathers(s.d, povm.lagrangian)  # also None for no L
    if gathers is None or gpauli.difference_table(s.d, s.tag).reshape(-1)[gathers[0]].any():
        return False
    return np.array_equal(povm.vectors, _label_basis(s.d, povm.lagrangian))


def povm_identity_residual(p: Povm, d: int) -> float:
    """Max-entry deviation of sum_k m_k |phi_k><phi_k| from the identity."""
    V = p.vectors
    acc = np.einsum("kd,ke->de", p.weights[:, None] * V, np.conj(V)) - np.eye(d)
    return float(np.max(np.abs(acc)))


def _receiver_states(s: UnitarySet, p: Povm) -> np.ndarray:
    """(K, N, d) stack of U_i b_k, b_k = conj(phi_k): the receiver's state after outcome k if i was sent."""
    return np.einsum("ide,ke->kid", s.members, np.conj(p.vectors))


def povm_orthogonality_residual(p: Povm, s: UnitarySet) -> float:
    """Largest |<U_i b_k|U_j b_k>| = |<b_k|U_i^dag U_j|b_k>| over elements k, pairs i < j (_receiver_states)."""
    if len(s) < 2:
        raise ValueError("distinguishability needs at least two states")
    R = _receiver_states(s, p)
    i, j = triu_pairs(len(s))
    return float(np.max(np.abs(np.einsum("kid,kjd->kij", np.conj(R), R)[:, i, j])))


def _nnls(A: np.ndarray, b: np.ndarray, max_iterations: int | None = None):
    """argmin ||A x - b|| over x >= 0, or None after max_iterations least-squares solves.

    The active-set method of Lawson and Hanson (Solving Least Squares
    Problems, 1974): the free column of largest gradient w = A^T (b - A x)
    above tol joins the passive set P, and x_P is solved again by least
    squares.  While that solution z has an entry <= 0, x moves toward z as
    far as x >= 0 allows, and the columns that reach 0 leave P.  Rounding
    can make a column join and leave again forever, so the solves are
    capped at 3n by default, as in scipy.optimize.nnls.
    """
    m, n = A.shape
    cap = 3 * n if max_iterations is None else max_iterations
    tol = 10 * max(m, n) * np.finfo(float).eps * np.linalg.norm(A, 1) * np.linalg.norm(b)
    x, passive, solves = np.zeros(n), np.zeros(n, dtype=bool), 0
    w = A.T @ b  # the gradient, -inf on P
    while np.max(w, initial=-np.inf) > tol:
        passive[np.argmax(w)] = True
        while True:
            if solves == cap:
                return None
            solves += 1
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
            blocking = np.flatnonzero(passive & (z <= 0))
            if blocking.size == 0:
                break
            # x >= 0 >= z on the blocking columns; a column with x = z = 0 allows no step
            ratios = x[blocking] / np.maximum(x[blocking] - z[blocking], np.finfo(float).tiny)
            x += ratios.min() * (z - x)
            x[blocking[np.argmin(ratios)]] = 0.0
            passive &= x > 0
            x[~passive] = 0.0
        x = z
        w = A.T @ (b - A @ x)
        w[passive] = -np.inf
    return x


def povm_completion(s: UnitarySet, w: Witness, extra_witnesses=(), success_tol: float = 1e-12):
    """Complete a witness into a full POVM, or None if that fails.

    Pauli-tagged sets use label_povm, the d-element stabilizer basis of a
    Lagrangian that avoids the label differences, which needs no witness;
    when no Lagrangian does, the Pauli orbit of the witness (every orbit
    point is again a witness because conjugation preserves index differences
    up to phase).  Otherwise all supplied witnesses below success_tol are
    pooled, the first of each phase class (|<a|b>| > 1 - _MERGE_TOL in one
    overlap einsum; rounding keeps twin columns apart, so NNLS could pick
    either), and nonnegative least squares (_nnls) looks for weights
    resolving the identity; one that stops at its iteration cap gives None.

    Every POVM must resolve the identity.  A POVM that ties to s
    (_label_tie, the same exact check the simulation makes) passes the
    orthogonality gate by label arithmetic; any other POVM needs
    povm_orthogonality_residual below ELEMENT_ORTHO_TOL.
    """
    if not w.residual < success_tol:  # a NaN residual fails too
        raise ValueError(
            f"witness residual {w.residual:.3e} is not below success tolerance {success_tol:.1e}"
        )
    if s.tag is not None:
        povm = label_povm(s.d, s.tag) or orbit_povm(s.d, w.alpha)
    else:
        pool = np.array([w.alpha] + [alpha for res, alpha in extra_witnesses if res < success_tol])
        twins = np.abs(np.einsum("id,jd->ij", np.conj(pool), pool)) > 1.0 - _MERGE_TOL
        phis = np.conj(pool[np.argmax(twins, axis=0) == np.arange(len(pool))])  # first of each phase class
        cols = hermitian_coords(phis[:, :, None] * np.conj(phis)[:, None, :]).T
        weights = _nnls(cols, hermitian_coords(np.eye(s.d, dtype=np.complex128)))
        if weights is None:
            return None
        keep = weights > 1e-12
        if not keep.any():
            return None
        povm = Povm(weights[keep], phis[keep])
    if not povm_identity_residual(povm, s.d) < IDENTITY_TOL:
        return None
    if not (_label_tie(s, povm) or povm_orthogonality_residual(povm, s) < ELEMENT_ORTHO_TOL):
        return None
    return povm


# ---------------------------------------------------------------------------
# one-way protocol simulation
# ---------------------------------------------------------------------------


def _answer_table(s: UnitarySet, povm: Povm):
    """Answer probabilities conf[k, i, r] for every outcome k at once, and leftover labels.

    Candidates U_j b_k (b_k = conj(phi_k)) are Gram-Schmidted twice in state
    order; one with residual <= 1e-8 is rejected and its column stays zero.
    Column j < n holds |<q_j|U_i b_k>|^2 / |U_i b_k|^2 and answers j; column n
    holds the leftover (below 1e-16) and answers leftover[k], the first
    rejected state, or -1 (always wrong) when none was rejected.
    """
    cand = _receiver_states(s, povm)  # (K, n, d)
    basis = np.zeros_like(cand)
    leftover = np.full(len(povm), -1)
    for j in range(len(s)):
        u = cand[:, j].copy()
        for r in list(range(j)) * 2:  # two passes for near-parallel candidates
            u -= np.einsum("kd,kd->k", basis[:, r].conj(), u)[:, None] * basis[:, r]
        nrm = np.linalg.norm(u, axis=1)
        ok = nrm > 1e-8
        basis[ok, j] = u[ok] / nrm[ok, None]
        leftover[~ok & (leftover == -1)] = j
    conf = np.abs(np.einsum("krd,kid->kir", basis.conj(), cand)) ** 2
    conf /= np.sum(np.abs(cand) ** 2, axis=2)[:, :, None]
    return np.concatenate([conf, 1.0 - conf.sum(axis=2, keepdims=True)], axis=2), leftover


def _success_probability(s: UnitarySet, povm: Povm) -> float:
    """Per-trial success probability p, clipped to [0, 1]: 1 on a _label_tie, else from _answer_table."""
    if _label_tie(s, povm):
        return 1.0
    conf, leftover = _answer_table(s, povm)
    k_cum = np.cumsum(povm.weights / s.d)
    k_cum[-1] = 1.0
    states = np.arange(len(s))
    hits = conf[:, states, states] + conf[:, :, -1] * (leftover[:, None] == states)  # (K, n)
    p = float(np.einsum("k,ki->", np.diff(k_cum, prepend=0.0), hits)) / len(s)
    return min(max(p, 0.0), 1.0)  # rounding can push a perfect protocol just past 1


def simulate_protocol(s: UnitarySet, povm: Povm, trials: int = SIMULATION_TRIALS, seed: int = 0) -> float:
    """Monte-Carlo success rate of the one-way protocol under the POVM.

    The state index is uniform; the measuring party's outcome k occurs with
    probability P(k) = m_k/d (her reduced state is I/d); the receiver projects
    his conditional state U_i conj(phi_k) onto the per-outcome basis and
    answers the label he lands on.  The POVM must resolve the identity;
    per-outcome orthogonality is exactly what the simulation measures, so it
    is not a precondition.  Completion directions carry only the leftover mass.

    One trial succeeds with probability
    p = sum_k P(k) (1/n) sum_i (conf[k,i,i] + conf[k,i,n] [leftover[k] = i])
    from the answer table, or p = 1 exactly, with no table, for a label
    basis tied to s (_label_tie), and trials are independent, so the success
    count is Binomial(trials, p): one binomial draw has the law of drawing
    every trial's state, outcome and answer.  Cost and memory do not grow
    with trials, and p = 1 reports exactly 1.0.  The input checks (vector
    length, positive weights, unit vectors, the identity residual) run for
    every POVM.
    """
    if not (gpauli.is_integer(trials) and 1 <= trials <= MAX_TRIALS):
        raise ValueError(f"trials must be an integer between 1 and {MAX_TRIALS}, got {trials!r}")
    if not (gpauli.is_integer(seed) and seed >= 0):  # bools are not seeds; numpy's own errors name no argument
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    if np.ndim(povm.vectors) != 2 or np.shape(povm.vectors)[1] != s.d:
        raise ValueError(f"POVM vectors must have the set's length {s.d}, got shape {np.shape(povm.vectors)}")
    if povm.weights.size == 0 or not np.all(povm.weights > 0):
        raise ValueError("POVM weights must be positive")
    bad = np.flatnonzero(~(np.abs(np.linalg.norm(povm.vectors, axis=1) - 1.0) <= 1e-10))
    if bad.size:
        raise ValueError(f"POVM vector {bad[0]} is not unit length")
    res = povm_identity_residual(povm, s.d)
    if not res < IDENTITY_TOL:
        raise ValueError(f"POVM does not resolve the identity (residual {res:.3e})")
    return int(np.random.default_rng(seed).binomial(trials, _success_probability(s, povm))) / trials


# ---------------------------------------------------------------------------
# verdicts and the combined decision
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome for one communication direction."""

    kind: str  # "distinguishable" | "indistinguishable" | "unknown"
    certificate: object | None = None
    witness: Witness | None = None
    povm_size: int | None = None
    simulated_success: float | None = None
    best_residual: float | None = None
    restarts_used: int | None = None
    near_witness: bool = False


@dataclass(frozen=True)
class Decision:
    """Per-direction verdicts for a set, plus the overall claim.

    one_way_indistinguishable is True only when both directions carry a
    verified certificate, False when either direction is distinguishable,
    and None when the tool could not decide a direction.
    """

    a_to_b: Verdict
    b_to_a: Verdict
    config: OptimizerConfig

    @property
    def one_way_indistinguishable(self):
        kinds = (self.a_to_b.kind, self.b_to_a.kind)
        if all(k == "indistinguishable" for k in kinds):
            return True
        if any(k == "distinguishable" for k in kinds):
            return False
        return None


def certify_direction(s: UnitarySet):
    """Verified certificate for one direction, or None (inconclusive).

    Fourier-cover prover on Pauli-tagged sets, then the forced-block scan;
    a certificate counts only once verify_certificate passes it on the table
    or matrix its prover built in this call.  Pairs skip both (two
    orthogonal maximally entangled states are one-way distinguishable,
    Walgate et al., PRL 85, 4972): 2 constraint rows hold no three
    orthonormal block functionals within BLOCK_TOL, and 2 labels (+-t)
    cannot cover the 2d - 1 >= 3 that a Fourier cover needs.
    """
    if len(s) == 2:
        return None
    if s.tag is not None:
        table = constraints_from_set(s.tag, s.d)
        cert = fourier_cover_prover(table, s.tag)
        if cert is not None and verify_certificate(cert, s, constraints=table):
            return cert
    S = hermitian_feasible_subspace(s)
    cert = scan_blocks(S)
    if cert is not None and verify_certificate(cert, s, constraints=S.constraints):
        return cert
    return None


def run_protocol(s: UnitarySet, cfg: OptimizerConfig, trials: int = SIMULATION_TRIALS):
    """Witness search, POVM completion and, if completion succeeds, simulation.

    witness_search stops at its first witness.  For an untagged set, while
    completion fails, the harvest grows to d, 2d, 4d, ... restarts (capped
    at cfg.restarts) and completion is retried, because NNLS completion pools
    the harvest.  Tagged completion (label basis or orbit) never reads the
    harvest, so a tagged set whose completion fails ends after the search.
    Returns (witness, restarts used, POVM or None, success rate or None).
    """
    witness, harvest = witness_search(s, cfg, collect=True)
    povm = G = None
    while witness.residual < cfg.success_tol:
        povm = povm_completion(s, witness, harvest, success_tol=cfg.success_tol)
        if povm is not None or s.tag is not None or len(harvest) >= cfg.restarts:
            break
        G = _pair_stacks(s) if G is None else G
        size = min(s.d << (len(harvest) // s.d).bit_length(), cfg.restarts)  # next d * 2^j
        harvest += _restarts(G, s.d, cfg, len(harvest), size)
    rate = None if povm is None else simulate_protocol(s, povm, trials, cfg.seed)
    return witness, len(harvest), povm, rate


def decide_direction(s: UnitarySet, cfg: OptimizerConfig | None = None) -> Verdict:
    """Decide one direction (measuring party = the side the set is written for).

    Pipeline: certify_direction, then run_protocol.  Distinguishable is
    declared only with a witness below success_tol AND a completed POVM (a
    lone witness is necessary but not sufficient in general), in which case
    the protocol is simulated for the report.
    """
    cfg = cfg or OptimizerConfig()
    cert = certify_direction(s)
    if cert is not None:
        return Verdict("indistinguishable", certificate=cert)

    witness, used, povm, rate = run_protocol(s, cfg)
    if povm is not None:
        return Verdict(
            "distinguishable",
            witness=witness,
            povm_size=len(povm),
            simulated_success=rate,
            best_residual=witness.residual,
            restarts_used=used,
        )
    near = cfg.success_tol <= witness.residual <= cfg.failure_floor
    return Verdict(
        "unknown",
        witness=witness if witness.residual <= cfg.failure_floor else None,
        best_residual=witness.residual,
        restarts_used=used,
        near_witness=near,
    )


def decide(s: UnitarySet, cfg: OptimizerConfig | None = None) -> Decision:
    """Decide both directions; B->A is A->B on the transposed set."""
    cfg = cfg or OptimizerConfig()
    return Decision(
        a_to_b=decide_direction(s, cfg),
        b_to_a=decide_direction(transpose_set(s), cfg),
        config=cfg,
    )


def verdict_to_dict(v: Verdict, direction: str, cfg: OptimizerConfig) -> dict:
    return {
        "direction": direction,
        "verdict": v.kind,
        "witness": None if v.witness is None else v.witness.to_dict(),
        "povm_size": v.povm_size,
        "simulated_success": v.simulated_success,
        "certificate": None if v.certificate is None else certificate_to_dict(v.certificate),
        "best_residual": v.best_residual,
        "restarts_used": v.restarts_used,
        "near_witness": v.near_witness,
        "config": cfg.to_dict(),
    }


def decision_to_dict(dec: Decision, input_sha256: str | None = None) -> dict:
    return {
        "tool_version": __version__,
        "input_sha256": input_sha256,
        "one_way_indistinguishable": dec.one_way_indistinguishable,
        "reports": [
            verdict_to_dict(dec.a_to_b, "A_to_B", dec.config),
            verdict_to_dict(dec.b_to_a, "B_to_A", dec.config),
        ],
    }
