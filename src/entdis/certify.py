"""Exact one-way-indistinguishability provers and certificate verification.

Two sound (not complete) provers:

* fourier_cover_prover, for generalized-Bell sets.  A one-way witness alpha
  must satisfy sum_j w^{mj} alpha_j conj(alpha_{j+n}) = 0 at every index
  difference (shift n, frequency m) of the set.  If the shift-0 frequencies
  cover all of {1..d-1}, the moduli |alpha_j|^2 have a vanishing DFT at every
  nonzero frequency and are therefore uniformly 1/d; if additionally some
  shift n != 0 carries every frequency {0..d-1}, the whole shift-n
  autocorrelation vanishes, contradicting the nonzero moduli.  Both cover
  checks are pure integer arithmetic.

* block_identity_prover, for arbitrary sets.  Any one-way protocol reduces
  to rank-one measurement elements M = |phi><phi| satisfying the real-linear
  constraints Tr(U_i M U_j^dag) = 0 for i != j.  If the three traceless
  directions of some principal 2 x 2 block lie in the real span of those
  constraint functionals, every feasible Hermitian M has a scalar block
  there; a scalar block of a rank-one PSD matrix is zero, so no family of
  rank-one elements can sum to the identity.  Larger blocks add nothing: a
  forced k-row block forces each of its 2-row sub-blocks, whose traceless
  directions lie in its span.  Membership residuals are distances from the
  row space of the constraint matrix, read off one thin SVD by projection,
  after a screen that rejects a block when a functional h, which touches
  four coordinates, loses ||h||^2 - ||Qh||^2 > 1e-6.

pair_operators stacks every W_p = U_i^dag U_j (i < j); the constraint rows
are hermitian_coords of the Hermitian and anti-Hermitian parts of W_p^dag.

verify_certificate re-derives everything from the set by least squares (one
solve per block), so certificates are independently checkable artifacts; it
refuses a stated tolerance above BLOCK_TOL.  A block certificate names its
set by unitaries_hash, a SHA-256 of the member bytes, which the verifier
recomputes.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .gpauli import check_dimension, check_index
from .serialize import boolean, integer, number
from .states import UnitarySet
from .version import __version__

RANK_RTOL = 1e-8
BLOCK_TOL = 1e-8
_SCREEN_TOL = 1e-6
_SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# autocorrelation constraint systems and the Fourier-cover prover
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationConstraintSystem:
    """(shift, frequency) pairs at which a witness autocorrelation must vanish.

    Closed under (shift, freq) -> (-shift, -freq) mod d because the ordered
    pair (j, i) contributes the conjugate of (i, j).
    """

    d: int
    constraints: frozenset
    source_indices: tuple | None = None


def constraints_from_set(indices, d) -> CorrelationConstraintSystem:
    """All pairwise index differences of a generalized-Bell set.

    The ordered pair (i, j) contributes (shift, freq) =
    ((n_i - n_j) mod d, (m_i - m_j) mod d); Lemma-style phase factors are
    dropped since they do not affect whether the inner product vanishes.
    """
    d = check_dimension(d)
    idx = [check_index(d, p) for p in indices]
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate Pauli indices in {idx}")
    cons = set()
    for a, b in combinations(idx, 2):
        cons.add(((a.n - b.n) % d, (a.m - b.m) % d))
        cons.add(((b.n - a.n) % d, (b.m - a.m) % d))
    return CorrelationConstraintSystem(d, frozenset(cons), tuple(idx))


@dataclass(frozen=True)
class CoverCertificate:
    """Integer-arithmetic proof of one-way indistinguishability.

    shift0_frequencies covering {1..d-1} forces uniform moduli
    |alpha_j|^2 = 1/d; full frequency cover at witness_shift then forces the
    contradictory alpha_j conj(alpha_{j+shift}) = 0 for all j.
    """

    d: int
    shift0_frequencies: frozenset
    witness_shift: int
    shiftN_frequencies: frozenset
    uniform_modulus: Fraction
    indices: tuple | None = None
    tool_version: str = __version__


def _frequencies_by_shift(cons) -> dict:
    by_shift: dict[int, set] = {}
    for shift, freq in cons:
        by_shift.setdefault(shift, set()).add(freq)
    return by_shift


def fourier_cover_prover(c: CorrelationConstraintSystem):
    """CoverCertificate if both cover conditions hold, else None (inconclusive).

    Sound but not complete: None never means "distinguishable".
    """
    d = c.d
    by_shift = _frequencies_by_shift(c.constraints)
    shift0 = by_shift.get(0, set())
    if not set(range(1, d)).issubset(shift0):
        return None
    full = set(range(d))
    for n in range(1, d):
        if by_shift.get(n, set()) == full:
            return CoverCertificate(
                d=d,
                shift0_frequencies=frozenset(shift0),
                witness_shift=n,
                shiftN_frequencies=frozenset(full),
                uniform_modulus=Fraction(1, d),
                indices=c.source_indices,
            )
    return None


# ---------------------------------------------------------------------------
# pair operators, Hermitian coordinates and the feasible subspace
# ---------------------------------------------------------------------------
#
# Real coordinates on the d^2-dimensional space of Hermitian matrices use the
# orthonormal basis (w.r.t. <A, B> = Tr(AB)):
#   B_t       = E_tt                      t = 0..d-1
#   B_sym(pq) = (E_pq + E_qp)/sqrt(2)     p < q, lexicographic
#   B_skw(pq) = i(E_pq - E_qp)/sqrt(2)
# ordered [diagonals..., sym(0,1), skw(0,1), sym(0,2), skw(0,2), ...].
# hermitian_coords maps matrices into them (the constraint rows and the NNLS
# columns of entdis.search); block_functionals writes a block's three
# functionals in them directly.


def pair_operators(s: UnitarySet) -> np.ndarray:
    """Stacked W_p = U_i^dag U_j over pairs i < j in np.triu_indices order."""
    if len(s) < 2:
        raise ValueError("distinguishability needs at least two states")
    U = np.array(s.members)
    i, j = np.triu_indices(len(s), k=1)
    return np.conj(np.swapaxes(U, 1, 2))[i] @ U[j]


def hermitian_coords(M: np.ndarray) -> np.ndarray:
    """Coordinates Tr(B_k M) of Hermitian matrices, (..., d, d) -> (..., d^2)."""
    d = M.shape[-1]
    iu, ju = np.triu_indices(d, k=1)
    upper = M[..., iu, ju]
    x = np.empty(M.shape[:-2] + (d * d,))
    x[..., :d] = np.real(np.diagonal(M, axis1=-2, axis2=-1))
    x[..., d::2] = _SQRT2 * np.real(upper)
    x[..., d + 1 :: 2] = _SQRT2 * np.imag(upper)
    return x


def constraint_matrix(s: UnitarySet) -> np.ndarray:
    """Real constraint rows (Re and Im of M -> Tr(U_i M U_j^dag), i < j), interleaved.

    Tr(U_i M U_j^dag) = Tr(W^dag M) with W = U_i^dag U_j; on Hermitian M its
    real and imaginary parts are Tr(H M) and Tr(K M) for the Hermitian parts
    H = (W^dag + W)/2 and K = (W^dag - W)/2i.  The (j, i) functionals are
    conjugates on Hermitian arguments and are dropped.
    """
    W = pair_operators(s)
    Wd = np.conj(np.swapaxes(W, 1, 2))
    parts = np.stack([(Wd + W) / 2, (Wd - W) / 2j], axis=1)  # (P, 2, d, d)
    return hermitian_coords(parts).reshape(-1, s.d * s.d)


@dataclass(frozen=True)
class FeasibleSubspace:
    """S = {M Hermitian : Tr(U_i M U_j^dag) = 0, i != j}, held by its complement.

    row_basis has orthonormal rows spanning the row space of the constraint
    matrix; S is their orthogonal complement in Hermitian coordinates, so a
    functional is forced on S exactly when it lies in that row space.
    """

    d: int
    unitaries: UnitarySet
    row_basis: np.ndarray
    constraint_rank: int

    def dim(self) -> int:
        return self.d * self.d - self.constraint_rank


def hermitian_feasible_subspace(s: UnitarySet) -> FeasibleSubspace:
    """Row space of the pairwise trace constraints, from one thin SVD.

    Rank uses a singular-value cutoff RANK_RTOL relative to the largest
    singular value; dim(S) = d^2 - rank by construction.  Needs two or more
    unitaries (pair_operators raises otherwise).
    """
    _, sv, vt = np.linalg.svd(constraint_matrix(s), full_matrices=False)
    rank = int(np.sum(sv > RANK_RTOL * sv[0]))
    return FeasibleSubspace(s.d, s, vt[:rank], rank)


# ---------------------------------------------------------------------------
# forced-scalar-block prover
# ---------------------------------------------------------------------------


def _check_block_rows(d: int, block_rows) -> tuple:
    rows = tuple(integer(r) for r in block_rows)
    if len(rows) != 2 or rows[0] == rows[1] or not all(0 <= r < d for r in rows):
        raise ValueError(f"block rows {rows} are not two distinct rows of dimension {d}")
    return tuple(sorted(rows))


def _block_columns(d: int, p: int, q: int) -> list:
    """Hermitian coordinates sym(p,q), skw(p,q), E_pp and E_qq of rows p < q."""
    k = d + 2 * (p * d - p * (p + 1) // 2 + q - p - 1)
    return [k, k + 1, p, q]


# the block functionals sym(p,q), skw(p,q) and (E_pp - E_qq)/sqrt(2) on _block_columns
_BLOCK_COEFFS = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1 / _SQRT2, -1 / _SQRT2]])


def block_functionals(d: int, block_rows) -> np.ndarray:
    """(3, d^2) Hermitian coordinates of the traceless directions of a 2-row block.

    Rows sym(p,q), skw(p,q) and (E_pp - E_qq)/sqrt(2) for the sorted rows
    p < q: an orthonormal basis of the block's X-, Y- and Z-like directions.
    """
    p, q = _check_block_rows(d, block_rows)
    h = np.zeros((3, d * d))
    h[:, _block_columns(d, p, q)] = _BLOCK_COEFFS
    return h


@dataclass(frozen=True)
class BlockCertificate:
    """Proof that a principal 2 x 2 block is forced scalar.

    forced_functional_residuals[k] is the distance of the k-th block
    functional (row k of block_functionals) from the real span of the
    constraint functionals; the verifier recomputes it by least squares.
    unitaries_sha256 binds the certificate to its set (unitaries_hash).
    Soundness additionally rests on the rank-one measurement reduction,
    recorded here explicitly.
    """

    d: int
    block_rows: tuple
    forced_functional_residuals: tuple
    tolerance: float
    unitaries_sha256: str
    rank_one_reduction: bool = True
    tool_version: str = __version__


def unitaries_hash(s: UnitarySet) -> str:
    """SHA-256 of the ASCII header "d N\n", then the members as little-endian
    complex128 in row-major order."""
    header = f"{s.d} {len(s)}\n".encode("ascii")
    return hashlib.sha256(header + np.asarray(s.members, dtype="<c16").tobytes()).hexdigest()


def _membership_residuals(A: np.ndarray, d: int, rows) -> list:
    """Least-squares distance of each block functional from the span of A's rows."""
    h = block_functionals(d, rows).T
    x, *_ = np.linalg.lstsq(A.T, h, rcond=None)
    return np.linalg.norm(A.T @ x - h, axis=0).tolist()


def _projection_residuals(S: FeasibleSubspace, rows) -> list:
    """Distance ||h - Q^T Q h|| of each block functional h from the row space Q."""
    Q = S.row_basis
    h = block_functionals(S.d, rows)
    return np.linalg.norm(h.T - Q.T @ (Q @ h.T), axis=0).tolist()


def _screen_losses(S: FeasibleSubspace, p: int, q: int) -> np.ndarray:
    """||h||^2 - ||Qh||^2 (the squared residual) of each block functional h,
    read from the four columns of Q that h touches."""
    G = S.row_basis[:, _block_columns(S.d, p, q)] @ _BLOCK_COEFFS.T
    return 1.0 - np.sum(G * G, axis=0)


def block_identity_prover(S: FeasibleSubspace, block_rows):
    """BlockCertificate if every traceless functional of the 2-row block is forced, else None."""
    rows = _check_block_rows(S.d, block_rows)
    if not np.all(_screen_losses(S, *rows) <= _SCREEN_TOL):  # a certifiable block loses at most 1e-16 plus rounding
        return None
    residuals = _projection_residuals(S, rows)
    if not max(residuals) < BLOCK_TOL:
        return None
    return BlockCertificate(
        d=S.d,
        block_rows=rows,
        forced_functional_residuals=tuple(residuals),
        tolerance=BLOCK_TOL,
        unitaries_sha256=unitaries_hash(S.unitaries),
    )


def scan_blocks(S: FeasibleSubspace):
    """First certified 2-row block in deterministic lexicographic order, or None."""
    for rows in combinations(range(S.d), 2):
        cert = block_identity_prover(S, rows)
        if cert is not None:
            return cert
    return None


# ---------------------------------------------------------------------------
# certificate serialization and independent verification
# ---------------------------------------------------------------------------


def certificate_to_dict(cert) -> dict:
    if isinstance(cert, CoverCertificate):
        return {
            "kind": "fourier_cover",
            "tool_version": cert.tool_version,
            "d": cert.d,
            "indices": None if cert.indices is None else [[p[0], p[1]] for p in cert.indices],
            "shift0_frequencies": sorted(cert.shift0_frequencies),
            "witness_shift": cert.witness_shift,
            "shiftN_frequencies": sorted(cert.shiftN_frequencies),
            "uniform_modulus": [cert.uniform_modulus.numerator, cert.uniform_modulus.denominator],
        }
    if isinstance(cert, BlockCertificate):
        return {
            "kind": "forced_block",
            "tool_version": cert.tool_version,
            "d": cert.d,
            "unitaries_sha256": cert.unitaries_sha256,
            "block_rows": list(cert.block_rows),
            "forced_functional_residuals": list(cert.forced_functional_residuals),
            "tolerance": cert.tolerance,
            "rank_one_reduction": cert.rank_one_reduction,
        }
    raise ValueError(f"not a certificate: {cert!r}")


def certificate_from_dict(doc) -> CoverCertificate | BlockCertificate:
    if not isinstance(doc, dict):
        raise ValueError("certificate must be a JSON object")
    kind = doc.get("kind")
    try:
        if kind == "fourier_cover":
            num, den = doc["uniform_modulus"]
            indices = doc.get("indices")
            return CoverCertificate(
                d=integer(doc["d"]),
                shift0_frequencies=frozenset(integer(f) for f in doc["shift0_frequencies"]),
                witness_shift=integer(doc["witness_shift"]),
                shiftN_frequencies=frozenset(integer(f) for f in doc["shiftN_frequencies"]),
                uniform_modulus=Fraction(integer(num), integer(den)),
                indices=None if indices is None else tuple((integer(p[0]), integer(p[1])) for p in indices),
                tool_version=str(doc.get("tool_version", "")),
            )
        if kind == "forced_block":
            return BlockCertificate(
                d=integer(doc["d"]),
                block_rows=tuple(integer(r) for r in doc["block_rows"]),
                forced_functional_residuals=tuple(number(r) for r in doc["forced_functional_residuals"]),
                tolerance=number(doc["tolerance"]),
                unitaries_sha256=str(doc["unitaries_sha256"]),
                rank_one_reduction=boolean(doc.get("rank_one_reduction", True)),
                tool_version=str(doc.get("tool_version", "")),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed certificate: {exc}") from exc
    raise ValueError(f"unknown certificate kind {kind!r}")


def _verify_cover(cert: CoverCertificate, s: UnitarySet):
    if cert.d != s.d:
        return False, f"dimension mismatch: certificate d={cert.d}, set d={s.d}"
    if s.tag is None:
        return False, "set carries no generalized-Bell tag"
    if cert.indices is not None and sorted(cert.indices) != sorted((p.m, p.n) for p in s.tag):
        return False, "certificate indices do not match the set"
    cons = constraints_from_set(s.tag, s.d)
    by_shift = _frequencies_by_shift(cons.constraints)
    shift0 = by_shift.get(0, set())
    if set(cert.shift0_frequencies) != shift0:
        return False, "stored shift-0 frequencies disagree with recomputation"
    if not set(range(1, s.d)).issubset(shift0):
        return False, "shift-0 frequencies do not cover {1..d-1}"
    n = cert.witness_shift
    if not 1 <= n < s.d:
        return False, f"witness shift {n} out of range"
    at_n = by_shift.get(n, set())
    if set(cert.shiftN_frequencies) != at_n:
        return False, "stored witness-shift frequencies disagree with recomputation"
    if at_n != set(range(s.d)):
        return False, f"shift {n} does not carry every frequency"
    if cert.uniform_modulus != Fraction(1, s.d):
        return False, "uniform modulus is not 1/d"
    return True, "ok"


def _verify_block(cert: BlockCertificate, s: UnitarySet):
    if cert.d != s.d:
        return False, f"dimension mismatch: certificate d={cert.d}, set d={s.d}"
    if unitaries_hash(s) != cert.unitaries_sha256:
        return False, "unitaries hash mismatch: certificate was issued for a different set"
    if not cert.rank_one_reduction:
        return False, "certificate does not record the rank-one measurement reduction"
    if not cert.tolerance <= BLOCK_TOL:
        return False, f"tolerance {cert.tolerance:.3e} is above {BLOCK_TOL:.1e}"
    try:
        rows = _check_block_rows(s.d, cert.block_rows)
    except ValueError as exc:
        return False, str(exc)
    residuals = _membership_residuals(constraint_matrix(s), s.d, rows)
    if len(residuals) != len(cert.forced_functional_residuals):
        return False, "residual count mismatch"
    for k, (rec, stored) in enumerate(zip(residuals, cert.forced_functional_residuals)):
        if not rec < cert.tolerance:
            return False, f"functional {k} recomputes to residual {rec:.3e} >= tolerance"
        if not abs(rec - stored) <= 1e-10:
            return False, f"functional {k} stored residual {stored:.3e} != recomputed {rec:.3e}"
    return True, "ok"


def verify_certificate_detailed(cert, s: UnitarySet):
    """(ok, reason).  Re-derives every check from the set itself."""
    if isinstance(cert, dict):
        try:
            cert = certificate_from_dict(cert)
        except ValueError as exc:
            return False, str(exc)
    if isinstance(cert, CoverCertificate):
        return _verify_cover(cert, s)
    if isinstance(cert, BlockCertificate):
        return _verify_block(cert, s)
    return False, f"unknown certificate type {type(cert).__name__}"


def verify_certificate(cert, s: UnitarySet) -> bool:
    """True iff the certificate independently re-verifies against the set."""
    ok, _ = verify_certificate_detailed(cert, s)
    return ok
