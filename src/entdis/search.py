"""Numerical side of the decision procedure.

Witness search: a set of maximally entangled states defined by unitaries
{U_i} is one-way distinguishable (measuring party first) when some unit
vector alpha has pairwise-orthogonal images {U_i alpha}.  The search
minimizes the squared violation f(alpha) = sum_{i<j} |<alpha|U_i^dag
U_j|alpha>|^2 on the unit sphere: each random restart runs one damped
Gauss-Newton (Levenberg-Marquardt) solve of the residual system
<alpha|U_i^dag U_j|alpha> = 0, renormalizing after every step.  The damped
normal system is positive definite and solved by Cholesky; each trial step
is evaluated once, and an accepted one carries its value, gradient and
products into the next iteration.  A restart that has passed 1e-20 and
only crawls on is ended there, far below any success tolerance.  Each
block of d consecutive restarts starts from one random orthonormal basis,
so the starts pooled for NNLS completion resolve the identity; the witnesses
found near them then do so far more often than those of independent
starts.  Restarts run one after another, and each is a pure function of
(seed, restart index), so results are reproducible.  Every set follows one
stopping rule: the search ends at its first witness, and run_protocol adds
restarts, doubling the whole blocks, only while POVM completion fails.

Decision: certify_direction runs the exact provers of entdis.certify (the
forced-block residuals come from a projection onto the row space of the
constraint matrix); run_protocol runs search, POVM completion and the
protocol simulation.  The orbit overlaps of completion and the simulation's
products over all POVM outcomes are einsum calls, not @: a threaded BLAS
call on arrays this small only adds spinning threads.  decide_direction
chains the two.  scipy is imported on first use: LAPACK
dposv by the first damped solve, nnls by untagged completion, so a
direction that a prover certifies runs on numpy alone.

Conventions: the stored witness alpha lives on the receiving (Bob) side;
the measuring party's POVM vectors are the conjugates phi = conj(alpha),
because projecting Alice's half of (I (x) U)|psi0> onto <phi| leaves Bob in
U|conj(phi)> up to normalization.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import _kernels as K
from .certify import (
    certificate_to_dict,
    constraints_from_set,
    fourier_cover_prover,
    hermitian_coords,
    hermitian_feasible_subspace,
    pair_operators,
    scan_blocks,
    verify_certificate,
)
from .gpauli import all_indices, to_matrix
from .serialize import complex_to_pair
from .states import UnitarySet, transpose_set
from .version import __version__

IDENTITY_TOL = 1e-8
ELEMENT_ORTHO_TOL = 1e-6
SIMULATION_TRIALS = 10_000
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
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not self.success_tol < self.failure_floor:
            raise ValueError("success_tol must be smaller than failure_floor")

    def to_dict(self) -> dict:
        return {
            "restarts": self.restarts,
            "max_iterations": self.max_iterations,
            "success_tol": self.success_tol,
            "failure_floor": self.failure_floor,
            "seed": self.seed,
        }


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

    weights is the (K,) array of m_k, vectors the (K, d) array whose row k
    is the unit vector phi_k.
    """

    weights: np.ndarray
    vectors: np.ndarray

    def __len__(self):
        return len(self.weights)


def penalty(alpha: np.ndarray, s: UnitarySet):
    """Penalty value and Riemannian gradient at a unit vector.

    The Euclidean gradient over real/imaginary parts is projected onto the
    tangent space of the sphere: rg = g - Re(<alpha, g>) alpha.
    """
    alpha = np.asarray(alpha, dtype=np.complex128).reshape(-1)
    if alpha.shape != (s.d,):
        raise ValueError(f"expected a vector of length {s.d}, got {alpha.shape}")
    if not abs(np.linalg.norm(alpha) - 1.0) <= 1e-10:
        raise ValueError("penalty requires a unit vector")
    f, grad, _, _ = K.penalty_value_grad(*_pair_stacks(s), alpha)
    rgrad = grad - np.real(np.vdot(alpha, grad)) * alpha
    return float(f), rgrad


def _pair_stacks(s: UnitarySet):
    """The pair operators W_p = U_i^dag U_j and their adjoints, as the kernels take them."""
    W = pair_operators(s)
    return W, np.ascontiguousarray(np.conj(np.swapaxes(W, 1, 2)))


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


def _levenberg(W, Wd, alpha, max_iterations):
    """Levenberg-Marquardt on the residual system g_p(alpha) = 0, renormalizing.

    The right-hand side J^T r is half the kernel gradient, and J is built
    from the products W a and W^dag a the kernel returns.  The normal matrix
    J^T J gets a penalty on the radial and global-phase directions, scaled to
    its mean diagonal: f is homogeneous of degree 4, so an undamped step would
    shrink alpha and the renormalization would undo it.  That scale is
    positive whenever f is, so with the damping lam * scale * I (lam >= 1e-9)
    the system is positive definite and _spd_solve solves it by Cholesky.
    Each trial is evaluated once by K.penalty_value_grad; an accepted trial's
    value, gradient and products serve the next iteration unchanged.  A trial
    that lowers f is taken and the damping drops 4x (not below 1e-9);
    otherwise it grows 4x, up to 30 times.  Stops below 1e-28, on a relative
    plateau over 5 iterations (coarse while f > 1e-2), on a crawl below 1e-20
    (f fell by less than a third over 5 iterations), or when no damping
    lowers f.
    """
    d = alpha.shape[0]
    a = alpha
    lam = 1e-3
    eye = np.eye(2 * d)
    f, grad, wa, wda = K.penalty_value_grad(W, Wd, a)
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
        jac = np.concatenate([wa + wda, -1j * (wa - wda)]).view(np.float64)
        normal = jac.T @ jac
        scale = normal.trace() / (2 * d)
        uv = np.array([a, 1j * a]).view(np.float64)  # radial and phase directions
        normal += scale * (uv.T @ uv)
        rhs = -0.5 * grad.view(np.float64)
        for _ in range(30):
            trial = a + _spd_solve(normal + lam * scale * eye, rhs).view(np.complex128)
            trial /= np.linalg.norm(trial)
            ft, gt, wat, wdat = K.penalty_value_grad(W, Wd, trial)
            if ft < f:
                lam = max(lam / 4.0, 1e-9)
                break
            lam *= 4.0
        else:  # no damping lowers f: stationary to machine precision
            break
        a, f, grad, wa, wda = trial, ft, gt, wat, wdat
    return a, float(f)


def _restart_start(d, seed, index):
    """Start of restart `index`: vector index % d of one random orthonormal basis.

    Restarts m*d .. m*d + d - 1 share the basis Gram-Schmidted from complex
    Gaussian draws seeded by seed ^ (m << 32), so every full block of d
    starts resolves the identity and each seed below 2^32 has its own
    blocks.  Each start is still a pure function of (seed, index).
    """
    m, j = divmod(index, d)
    rng = np.random.default_rng((seed ^ (m << 32)) & _SEED_MASK)
    z = rng.standard_normal((j + 1, 2, d))
    q, r = np.linalg.qr((z[:, 0] + 1j * z[:, 1]).T)
    return q[:, j] * (r[j, j] / abs(r[j, j]))


def _run_restart(W, Wd, d, cfg, index):
    """One restart: the seeded unit start of _restart_start, then _levenberg;
    returns (f, alpha)."""
    a0 = _restart_start(d, cfg.seed, index)
    alpha, f = _levenberg(W, Wd, a0, cfg.max_iterations)
    return f, alpha


def witness_search(s: UnitarySet, cfg: OptimizerConfig | None = None, *, collect: bool = False):
    """Witness from up to cfg.restarts seeded restarts, run in order until one is below success_tol.

    Each restart is one Levenberg-Marquardt solve of at most
    cfg.max_iterations iterations from the unit vector _restart_start
    picks (blocks of d restarts start from one orthonormal basis).
    Selection: the lowest residual (ties to the lower index), so the
    success the search stopped at, if any.

    With collect=True also returns the per-restart (residual, alpha) list
    actually evaluated, for POVM harvesting.
    """
    cfg = cfg or OptimizerConfig()
    W, Wd = _pair_stacks(s)
    harvest = []
    for r in range(cfg.restarts):
        harvest.append(_run_restart(W, Wd, s.d, cfg, r))
        if harvest[-1][0] < cfg.success_tol:
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
    Tr(rho) I); stored elements are the Alice-side conjugates.  U_r alpha and
    U_s alpha are equal up to phase exactly when U_{s-r} (a phase times
    U_r^dag U_s) fixes alpha up to phase, so the equal elements are the cosets
    of alpha's stabilizer S = {t : |<alpha|U_t alpha>| > 1 - _MERGE_TOL}.
    Each coset keeps its lowest label, with weight |S|/d.
    """
    alpha = np.asarray(alpha, dtype=np.complex128).reshape(-1)
    if not abs(np.linalg.norm(alpha) - 1.0) <= 1e-10:
        raise ValueError("orbit_povm requires a unit vector")
    V = np.conj([to_matrix(d, p) @ alpha for p in all_indices(d)])  # row m*d + n: label (m, n)
    stab = np.flatnonzero(np.abs(np.einsum("kd,d->k", V, alpha)) > 1.0 - _MERGE_TOL)
    m, n = np.divmod(np.arange(d * d)[:, None], d)
    reps = np.unique(((m + stab // d) % d * d + (n + stab % d) % d).min(axis=1))  # lowest label of each coset
    return Povm(np.full(len(reps), len(stab) / d), V[reps])


def povm_identity_residual(p: Povm, d: int) -> float:
    """Max-entry deviation of sum_k m_k |phi_k><phi_k| from the identity."""
    V = p.vectors
    acc = np.einsum("k,kd,ke->de", p.weights, V, np.conj(V)) - np.eye(d)
    return float(np.max(np.abs(acc)))


def povm_orthogonality_residual(p: Povm, s: UnitarySet) -> float:
    """Largest |<conj(phi_k)| U_i^dag U_j |conj(phi_k)>| over elements and pairs."""
    B = np.conj(p.vectors)
    g = np.einsum("pde,ke,kd->pk", pair_operators(s), B, np.conj(B))  # (pairs, K)
    return float(np.max(np.abs(g)))


def povm_completion(s: UnitarySet, w: Witness, extra_witnesses=(), success_tol: float = 1e-12):
    """Complete a witness into a full POVM, or None if that fails.

    Pauli-tagged sets use the orbit construction (every orbit point is again
    a witness because conjugation preserves index differences up to phase).
    Otherwise all supplied witnesses below success_tol are pooled, the first
    of each phase class (|<a|b>| > 1 - _MERGE_TOL in one overlap einsum;
    rounding keeps twin columns apart, so NNLS could pick either), and
    nonnegative least squares looks for weights resolving the identity.
    """
    if w.residual >= success_tol:
        raise ValueError(
            f"witness residual {w.residual:.3e} is not below success tolerance {success_tol:.1e}"
        )
    if s.tag is not None:
        povm = orbit_povm(s.d, w.alpha)
    else:
        pool = np.array([w.alpha] + [alpha for res, alpha in extra_witnesses if res < success_tol])
        twins = np.abs(np.einsum("id,jd->ij", np.conj(pool), pool)) > 1.0 - _MERGE_TOL
        phis = np.conj(pool[np.argmax(twins, axis=0) == np.arange(len(pool))])  # first of each phase class
        cols = hermitian_coords(phis[:, :, None] * np.conj(phis)[:, None, :]).T
        from scipy.optimize import nnls  # only untagged completion needs scipy.optimize
        weights, _ = nnls(cols, hermitian_coords(np.eye(s.d, dtype=np.complex128)))
        keep = weights > 1e-12
        if not keep.any():
            return None
        povm = Povm(weights[keep], phis[keep])
    if not povm_identity_residual(povm, s.d) < IDENTITY_TOL:
        return None
    if not povm_orthogonality_residual(povm, s) < ELEMENT_ORTHO_TOL:
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
    b = np.conj(povm.vectors)  # (K, d)
    cand = np.einsum("ide,ke->kid", np.array(s.members), b)  # (K, n, d): U_i b_k
    basis = np.zeros_like(cand)
    leftover = np.full(len(b), -1)
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


def simulate_protocol(s: UnitarySet, povm: Povm, trials: int = SIMULATION_TRIALS, seed: int = 0) -> float:
    """Monte-Carlo success rate of the one-way protocol under the POVM.

    The state index is uniform; the measuring party's outcome k occurs with
    probability m_k/d (her reduced state is I/d); the receiver projects his
    conditional state U_i conj(phi_k) onto the per-outcome basis and answers
    the label he lands on.  The POVM must resolve the identity; per-outcome
    orthogonality is exactly what the simulation measures, so it is not a
    precondition.  Completion directions carry only the leftover mass.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    weights = povm.weights
    if weights.size == 0 or not np.all(weights > 0):
        raise ValueError("POVM weights must be positive")
    bad = np.flatnonzero(~(np.abs(np.linalg.norm(povm.vectors, axis=1) - 1.0) <= 1e-10))
    if bad.size:
        raise ValueError(f"POVM vector {bad[0]} is not unit length")
    res = povm_identity_residual(povm, s.d)
    if not res < IDENTITY_TOL:
        raise ValueError(f"POVM does not resolve the identity (residual {res:.3e})")

    conf, leftover = _answer_table(s, povm)
    rng = np.random.default_rng(seed)
    i_draw = rng.integers(0, len(s), size=trials)
    k_cum = np.cumsum(weights / s.d)
    k_cum[-1] = 1.0
    k_draw = np.searchsorted(k_cum, rng.random(trials), side="right")
    u = rng.random(trials)
    rows = np.cumsum(conf[k_draw, i_draw], axis=1)
    r_draw = (u[:, None] < rows).argmax(axis=1)
    answers = np.where(r_draw < len(s), r_draw, leftover[k_draw])
    return float(np.mean(answers == i_draw))


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
    a certificate counts only once verify_certificate re-derives it.
    """
    if s.tag is not None:
        cert = fourier_cover_prover(constraints_from_set(s.tag, s.d))
        if cert is not None and verify_certificate(cert, s):
            return cert
    cert = scan_blocks(hermitian_feasible_subspace(s))
    if cert is not None and verify_certificate(cert, s):
        return cert
    return None


def run_protocol(s: UnitarySet, cfg: OptimizerConfig, trials: int = SIMULATION_TRIALS):
    """Witness search, POVM completion and, if completion succeeds, simulation.

    One rule for every set: witness_search stops at its first witness; while
    completion fails, the harvest grows to d, 2d, 4d, ... restarts (capped
    at cfg.restarts) and completion is retried.  Orbit completion (tagged
    sets) needs only the witness, NNLS completion pools the harvest.
    Returns (witness, restarts used, POVM or None, success rate or None).
    """
    witness, harvest = witness_search(s, cfg, collect=True)
    povm = stacks = None
    while witness.residual < cfg.success_tol:
        povm = povm_completion(s, witness, harvest, success_tol=cfg.success_tol)
        if povm is not None or len(harvest) >= cfg.restarts:
            break
        stacks = stacks or _pair_stacks(s)
        size = min(s.d << (len(harvest) // s.d).bit_length(), cfg.restarts)  # next d * 2^j
        harvest += [_run_restart(*stacks, s.d, cfg, r) for r in range(len(harvest), size)]
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
