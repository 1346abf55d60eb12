"""Numerical side of the decision procedure.

Witness search: a set of maximally entangled states defined by unitaries
{U_i} is one-way distinguishable (measuring party first) when some unit
vector alpha has pairwise-orthogonal images {U_i alpha}.  The search
minimizes the squared violation f(alpha) = sum_{i<j} |<alpha|U_i^dag
U_j|alpha>|^2 on the unit sphere by random-restart projected gradient
descent with backtracking line search, plus a Gauss-Newton polish of
near-zeros.  Restarts run one after another, and each is a pure function
of (seed, restart index), so results are reproducible.

Decision: certify_direction runs the exact provers of entdis.certify (the
forced-block residuals come from a projection onto the row space of the
constraint matrix); run_protocol runs search, POVM completion and the
protocol simulation; decide_direction chains the two.

Conventions: the stored witness alpha lives on the receiving (Bob) side;
the measuring party's POVM vectors are the conjugates phi = conj(alpha),
because projecting Alice's half of (I (x) U)|psi0> onto <phi| leaves Bob in
U|conj(phi)> up to normalization.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import nnls

from . import _kernels as K
from .certify import (
    certificate_to_dict,
    constraints_from_set,
    fourier_cover_prover,
    hermitian_coords,
    hermitian_feasible_subspace,
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

    stop_at_success skips remaining restarts once one reaches success_tol;
    the lowest-index success is returned.
    """

    restarts: int = 64
    max_iterations: int = 2000
    success_tol: float = 1e-12
    failure_floor: float = 1e-6
    seed: int = 0
    stop_at_success: bool = True

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
    """Weighted rank-one elements (weight, unit vector) on the measuring side."""

    elements: tuple

    def __len__(self):
        return len(self.elements)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.elements])

    @property
    def vectors(self) -> list:
        return [v for _, v in self.elements]


def pair_operators(s: UnitarySet) -> np.ndarray:
    """Stacked W_p = U_i^dag U_j for i < j, contiguous for the kernels."""
    n = len(s)
    if n < 2:
        raise ValueError("distinguishability needs at least two states")
    ops = [s.members[i].conj().T @ s.members[j] for i in range(n) for j in range(i + 1, n)]
    return np.ascontiguousarray(np.stack(ops))


def penalty(alpha: np.ndarray, s: UnitarySet):
    """Penalty value and Riemannian gradient at a unit vector.

    The Euclidean gradient over real/imaginary parts is projected onto the
    tangent space of the sphere: rg = g - Re(<alpha, g>) alpha.
    """
    alpha = np.asarray(alpha, dtype=np.complex128).reshape(-1)
    if alpha.shape != (s.d,):
        raise ValueError(f"expected a vector of length {s.d}, got {alpha.shape}")
    if abs(np.linalg.norm(alpha) - 1.0) > 1e-10:
        raise ValueError("penalty requires a unit vector")
    W = pair_operators(s)
    Wd = np.ascontiguousarray(np.conj(np.swapaxes(W, 1, 2)))
    f, grad = K.penalty_value_grad(W, Wd, alpha)
    rgrad = grad - np.real(np.vdot(alpha, grad)) * alpha
    return float(f), rgrad


def _descend(W, Wd, alpha, max_iterations, success_tol):
    """Projected gradient descent with doubling/backtracking line search.

    Stops at success_tol, at a numerically stationary point, or on a
    relative plateau; plateaus well above zero (f > 1e-2) bail out coarsely
    since the subsequent Gauss-Newton polish rescues anything actually near
    a zero of the residual system.
    """
    f, grad = K.penalty_value_grad(W, Wd, alpha)
    step = 1.0
    window_f, window_at = f, 0
    for it in range(max_iterations):
        rg = grad - np.real(np.vdot(alpha, grad)) * alpha
        gn2 = float(np.real(np.vdot(rg, rg)))
        if f < success_tol or gn2 < 1e-24:
            break
        if it - window_at >= 30:
            prog = (window_f - f) / f
            if prog < 1e-9 or (f > 1e-2 and prog < 1e-3):
                break
            window_f, window_at = f, it
        step = min(step * 2.0, 1e6)
        cand = None
        while step >= 1e-18:
            trial = alpha - step * rg
            trial /= np.linalg.norm(trial)
            fc = K.penalty_value(W, trial)
            if fc <= f - 1e-4 * step * gn2:
                cand = trial
                break
            step *= 0.5
        if cand is None:  # line search exhausted: stationary to machine precision
            break
        alpha = cand
        f, grad = K.penalty_value_grad(W, Wd, alpha)
    return alpha, float(f)


def _polish(W, Wd, alpha, max_iterations=30):
    """Gauss-Newton on the residual system g_p(alpha) = 0, renormalizing.

    The real Jacobian is singular along the global-phase and radial
    directions, so small singular values are cut off (relative 1e-8) before
    solving; steps that fail to decrease are halved a few times.
    """
    d = alpha.shape[0]
    best_a, best_f = alpha, K.penalty_value(W, alpha)
    a = alpha
    for _ in range(max_iterations):
        wa = W @ a
        wda = Wd @ a
        g = wa @ np.conj(a)
        jx = wa + np.conj(wda)
        jy = 1j * (np.conj(wda) - wa)
        jac = np.block([[jx.real, jy.real], [jx.imag, jy.imag]])
        rhs = -np.concatenate([g.real, g.imag])
        delta, *_ = np.linalg.lstsq(jac, rhs, rcond=1e-8)
        improved = False
        for _damp in range(8):
            trial = a + delta[:d] + 1j * delta[d:]
            nrm = np.linalg.norm(trial)
            if nrm > 1e-12:
                trial /= nrm
                f = K.penalty_value(W, trial)
                if f < best_f:
                    best_a, best_f = trial, f
                    a = trial
                    improved = True
                    break
            delta = delta / 2.0
        if not improved or best_f < 1e-28:
            break
    return best_a, float(best_f)


def _run_restart(W, Wd, d, cfg, index):
    rng = np.random.default_rng((cfg.seed ^ index) & _SEED_MASK)
    a0 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    a0 /= np.linalg.norm(a0)
    alpha, f = _descend(W, Wd, a0, cfg.max_iterations, cfg.success_tol)
    alpha, f = _polish(W, Wd, alpha)
    return f, alpha


def witness_search(s: UnitarySet, cfg: OptimizerConfig | None = None, *, collect: bool = False):
    """Best witness over cfg.restarts independent seeded descents, run in order.

    Selection: the lowest-index restart reaching success_tol wins when
    stop_at_success is set (remaining restarts are skipped); otherwise the
    lowest residual, ties broken by restart index.

    With collect=True also returns the per-restart (residual, alpha) list
    actually evaluated, for POVM harvesting.
    """
    cfg = cfg or OptimizerConfig()
    W = pair_operators(s)
    Wd = np.ascontiguousarray(np.conj(np.swapaxes(W, 1, 2)))

    results = []
    best_f, best_a = np.inf, None
    for r in range(cfg.restarts):
        f, alpha = _run_restart(W, Wd, s.d, cfg, r)
        results.append((f, alpha))
        if f < best_f:
            best_f, best_a = f, alpha
        if cfg.stop_at_success and f < cfg.success_tol:
            break

    best_a = np.array(best_a)
    best_a.setflags(write=False)
    witness = Witness(s.d, best_a, float(best_f))
    if collect:
        return witness, results
    return witness


# ---------------------------------------------------------------------------
# POVM completion
# ---------------------------------------------------------------------------


def _merge_up_to_phase(vectors, weights):
    """Collapse vectors equal up to a global phase, accumulating weights."""
    reps, acc = [], []
    for v, w in zip(vectors, weights):
        for k, u in enumerate(reps):
            if abs(np.vdot(u, v)) > 1.0 - _MERGE_TOL:
                acc[k] += w
                break
        else:
            reps.append(v)
            acc.append(w)
    return reps, acc


def orbit_povm(d: int, alpha: np.ndarray) -> Povm:
    """POVM from the full Pauli orbit of a Bob-side vector.

    The d^2 vectors U_{mn} alpha with weights 1/d resolve the identity
    (averaging a rank-one projector over all Pauli conjugations yields
    Tr(rho) I); stored elements are the Alice-side conjugates, with
    phase-equal duplicates merged.
    """
    alpha = np.asarray(alpha, dtype=np.complex128).reshape(-1)
    vecs = [np.conj(to_matrix(d, p) @ alpha) for p in all_indices(d)]
    reps, acc = _merge_up_to_phase(vecs, [1.0 / d] * (d * d))
    return Povm(tuple((float(w), v) for w, v in zip(acc, reps)))


def povm_identity_residual(p: Povm, d: int) -> float:
    """Max-entry deviation of sum_k m_k |phi_k><phi_k| from the identity."""
    acc = -np.eye(d, dtype=np.complex128)
    for w, v in p.elements:
        acc += w * np.outer(v, np.conj(v))
    return float(np.max(np.abs(acc)))


def povm_orthogonality_residual(p: Povm, s: UnitarySet) -> float:
    """Largest |<conj(phi_k)| U_i^dag U_j |conj(phi_k)>| over elements and pairs."""
    W = pair_operators(s)
    worst = 0.0
    for _, v in p.elements:
        b = np.conj(v)
        g = (W @ b) @ np.conj(b)
        worst = max(worst, float(np.max(np.abs(g))))
    return worst


def povm_completion(
    s: UnitarySet,
    w: Witness,
    extra_witnesses=(),
    success_tol: float = 1e-12,
    identity_tol: float = IDENTITY_TOL,
):
    """Complete a witness into a full POVM, or None if that fails.

    Pauli-tagged sets use the orbit construction (every orbit point is again
    a witness because conjugation preserves index differences up to phase).
    Otherwise all supplied witnesses below success_tol are pooled and
    nonnegative least squares looks for weights resolving the identity.
    """
    if w.residual >= success_tol:
        raise ValueError(
            f"witness residual {w.residual:.3e} is not below success tolerance {success_tol:.1e}"
        )
    if s.tag is not None:
        povm = orbit_povm(s.d, w.alpha)
    else:
        pool = [np.asarray(w.alpha)]
        for res, alpha in extra_witnesses:
            if res < success_tol:
                pool.append(np.asarray(alpha))
        vecs, _ = _merge_up_to_phase(pool, [0.0] * len(pool))
        phis = [np.conj(v) for v in vecs]
        cols = np.column_stack([hermitian_coords(np.outer(v, np.conj(v))) for v in phis])
        target = hermitian_coords(np.eye(s.d, dtype=np.complex128))
        weights, _ = nnls(cols, target)
        elements = tuple((float(wt), v) for wt, v in zip(weights, phis) if wt > 1e-12)
        if not elements:
            return None
        povm = Povm(elements)
    if povm_identity_residual(povm, s.d) >= identity_tol:
        return None
    if povm_orthogonality_residual(povm, s) >= ELEMENT_ORTHO_TOL:
        return None
    return povm


# ---------------------------------------------------------------------------
# one-way protocol simulation
# ---------------------------------------------------------------------------


def _receiver_basis(s: UnitarySet, phi: np.ndarray):
    """Orthonormal receiver basis for one outcome, plus direction labels.

    Candidates U_j conj(phi) are Gram-Schmidted in state order; candidates
    already spanned by earlier ones get a fresh completion direction instead
    (the receiver can still answer j, just not reliably).  Leftover
    completion directions carry no label (-1: always a wrong answer).
    """
    d = s.d
    b = np.conj(phi)
    accepted: list[np.ndarray] = []
    labels: list[int] = []
    pending: list[int] = []

    def residual(v):
        u = v.astype(np.complex128).copy()
        for _ in range(2):  # re-orthogonalize for near-parallel candidates
            for w in accepted:
                u -= np.vdot(w, u) * w
        return u

    for j, U in enumerate(s.members):
        u = residual(U @ b)
        nrm = np.linalg.norm(u)
        if nrm > 1e-8:
            accepted.append(u / nrm)
            labels.append(j)
        else:
            pending.append(j)
    for e in range(d):
        if len(accepted) == d:
            break
        u = residual(np.eye(d, dtype=np.complex128)[e])
        nrm = np.linalg.norm(u)
        if nrm > 1e-8:
            accepted.append(u / nrm)
            labels.append(pending.pop(0) if pending else -1)
    if len(accepted) < d:
        raise RuntimeError("failed to complete the receiver basis")
    return np.array(accepted), np.array(labels)


def simulate_protocol(s: UnitarySet, povm: Povm, trials: int = SIMULATION_TRIALS, seed: int = 0) -> float:
    """Monte-Carlo success rate of the one-way protocol under the POVM.

    The state index is uniform; the measuring party's outcome k occurs with
    probability m_k/d (her reduced state is I/d); the receiver projects his
    conditional state U_i conj(phi_k) onto the per-outcome basis and answers
    the label he lands on.  The POVM must resolve the identity; per-outcome
    orthogonality is exactly what the simulation measures, so it is not a
    precondition.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    weights = povm.weights
    if weights.size == 0 or np.any(weights <= 0):
        raise ValueError("POVM weights must be positive")
    for k, v in enumerate(povm.vectors):
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise ValueError(f"POVM vector {k} is not unit length")
    res = povm_identity_residual(povm, s.d)
    if res >= IDENTITY_TOL:
        raise ValueError(f"POVM does not resolve the identity (residual {res:.3e})")

    d, n = s.d, len(s)
    n_out = len(povm)
    conf = np.empty((n_out, n, d))
    labels = np.empty((n_out, d), dtype=np.int64)
    for k, phi in enumerate(povm.vectors):
        basis, lab = _receiver_basis(s, phi)
        labels[k] = lab
        b = np.conj(phi)
        for i, U in enumerate(s.members):
            amps = basis.conj() @ (U @ b)
            probs = np.abs(amps) ** 2
            conf[k, i] = probs / probs.sum()

    rng = np.random.default_rng(seed)
    i_draw = rng.integers(0, n, size=trials)
    k_cum = np.cumsum(weights / s.d)
    k_cum[-1] = 1.0
    k_draw = np.searchsorted(k_cum, rng.random(trials), side="right")
    u = rng.random(trials)
    rows = np.cumsum(conf[k_draw, i_draw], axis=1)
    r_draw = (u[:, None] < rows).argmax(axis=1)
    answers = labels[k_draw, r_draw]
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

    Returns (witness, restarts used, POVM or None, simulated success rate or
    None).  Untagged sets run every restart: NNLS completion pools the whole
    harvest.
    """
    search_cfg = cfg if s.tag is not None else replace(cfg, stop_at_success=False)
    witness, harvest = witness_search(s, search_cfg, collect=True)
    povm = rate = None
    if witness.residual < cfg.success_tol:
        povm = povm_completion(s, witness, harvest, success_tol=cfg.success_tol)
        if povm is not None:
            rate = simulate_protocol(s, povm, trials, cfg.seed)
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
