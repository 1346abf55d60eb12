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
  constraints Tr(U_i M U_j^dag) = 0 for i != j.  If every traceless direction
  of some principal k x k block (k >= 2) lies in the real span of those
  constraint functionals, every feasible Hermitian M has a scalar block
  there; a scalar block of a rank-one PSD matrix is zero, so no family of
  rank-one elements can sum to the identity.  Membership residuals are
  distances from the row space of the constraint matrix, read off one thin
  SVD by projection, after a screen that rejects a block when a functional
  h, sparse in these coordinates, loses ||h||^2 - ||Qh||^2 > 1e-6.

verify_certificate re-derives everything from the set by least squares, so
certificates are independently checkable artifacts.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .gpauli import check_dimension, check_index
from .serialize import sha256_hex
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
# Hermitian coordinates and the feasible subspace
# ---------------------------------------------------------------------------
#
# Real coordinates on the d^2-dimensional space of Hermitian matrices use the
# orthonormal basis (w.r.t. <A, B> = Tr(AB)):
#   B_t       = E_tt                      t = 0..d-1
#   B_sym(pq) = (E_pq + E_qp)/sqrt(2)     p < q, lexicographic
#   B_skw(pq) = i(E_pq - E_qp)/sqrt(2)
# ordered [diagonals..., sym(0,1), skw(0,1), sym(0,2), skw(0,2), ...].


def hermitian_coords(M: np.ndarray) -> np.ndarray:
    d = M.shape[0]
    iu, ju = np.triu_indices(d, k=1)
    x = np.empty(d * d)
    x[:d] = np.real(np.diag(M))
    x[d::2] = _SQRT2 * np.real(M[iu, ju])
    x[d + 1 :: 2] = _SQRT2 * np.imag(M[iu, ju])
    return x


def _functional_coords(G: np.ndarray) -> np.ndarray:
    """Coordinates of the functional M -> Tr(G M): entry k is Tr(G B_k)."""
    d = G.shape[0]
    iu, ju = np.triu_indices(d, k=1)
    c = np.empty(d * d, dtype=np.complex128)
    c[:d] = np.diag(G)
    c[d::2] = (G[ju, iu] + G[iu, ju]) / _SQRT2
    c[d + 1 :: 2] = 1j * (G[ju, iu] - G[iu, ju]) / _SQRT2
    return c


def constraint_matrix(s: UnitarySet) -> np.ndarray:
    """Real constraint rows (Re and Im of M -> Tr(U_i M U_j^dag), i < j).

    The (j, i) functionals are conjugates on Hermitian arguments and are
    dropped.
    """
    rows = []
    for i, j in combinations(range(len(s)), 2):
        G = s.members[j].conj().T @ s.members[i]  # Tr(U_i M U_j^dag) = Tr(G M)
        c = _functional_coords(G)
        rows.append(c.real)
        rows.append(c.imag)
    return np.array(rows)


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
    singular value; dim(S) = d^2 - rank by construction.
    """
    if len(s) < 2:
        raise ValueError("feasible subspace needs at least two unitaries")
    _, sv, vt = np.linalg.svd(constraint_matrix(s), full_matrices=False)
    rank = int(np.sum(sv > RANK_RTOL * sv[0]))
    return FeasibleSubspace(s.d, s, vt[:rank], rank)


# ---------------------------------------------------------------------------
# forced-scalar-block prover
# ---------------------------------------------------------------------------


def _check_block_rows(d: int, block_rows) -> tuple:
    rows = tuple(int(r) for r in block_rows)
    if len(rows) < 2:
        raise ValueError("block needs at least two rows")
    if len(set(rows)) != len(rows):
        raise ValueError(f"duplicate block rows in {rows}")
    if any(not 0 <= r < d for r in rows):
        raise ValueError(f"block rows {rows} out of range for dimension {d}")
    return tuple(sorted(rows))


def traceless_block_functionals(d: int, block_rows) -> list:
    """Orthonormal Hermitian matrices spanning the traceless directions of a block.

    Order: for each row pair p < q the symmetric then antisymmetric element,
    followed by the k-1 traceless diagonal combinations.  For a 2-row block
    this is (up to normalization) the X-, Y- and Z-like direction.
    """
    rows = _check_block_rows(d, block_rows)
    out = []
    for a, b in combinations(rows, 2):
        H = np.zeros((d, d), dtype=np.complex128)
        H[a, b] = H[b, a] = 1.0 / _SQRT2
        out.append(H)
        H = np.zeros((d, d), dtype=np.complex128)
        H[a, b] = 1j / _SQRT2
        H[b, a] = -1j / _SQRT2
        out.append(H)
    for t in range(1, len(rows)):
        H = np.zeros((d, d), dtype=np.complex128)
        for a in range(t):
            H[rows[a], rows[a]] = 1.0
        H[rows[t], rows[t]] = -t
        out.append(H / np.sqrt(t * (t + 1)))
    return out


@dataclass(frozen=True)
class BlockCertificate:
    """Proof that a principal block is forced scalar.

    forced_functional_residuals[k] is the distance of the k-th traceless
    block functional from the real span of the constraint functionals
    (ordering per traceless_block_functionals); the verifier recomputes it
    by least squares.  Soundness additionally rests
    on the rank-one measurement reduction, recorded here explicitly.
    """

    d: int
    block_rows: tuple
    forced_functional_residuals: tuple
    tolerance: float
    unitaries_sha256: str
    rank_one_reduction: bool = True
    tool_version: str = __version__


def unitaries_hash(s: UnitarySet) -> str:
    """sha256_hex(canonical_json({"d": d, "unitaries": [matrix_to_json(U), ...]})), written directly."""

    def block(items, level):
        pad = "\n" + "  " * level
        return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"

    row = block([block(["%r", "%r"], 5)] * s.d, 4)  # members are complex128
    floats = [np.ascontiguousarray(U).view(np.float64).tolist() for U in s.members]
    mats = [block([row % tuple(r) for r in entries], 3) for entries in floats]
    return sha256_hex('{\n  "d": %d,\n  "unitaries": %s\n}\n' % (s.d, block(mats, 2)))


def _membership_residuals(A: np.ndarray, d: int, rows) -> list:
    """Least-squares distance of each block functional from the span of A's rows."""
    At = A.T
    residuals = []
    for H in traceless_block_functionals(d, rows):
        h = _functional_coords(H).real
        x, *_ = np.linalg.lstsq(At, h, rcond=None)
        residuals.append(float(np.linalg.norm(At @ x - h)))
    return residuals


def _projection_residuals(S: FeasibleSubspace, rows) -> list:
    """Distance ||h - Q^T Q h|| of each block functional h from the row space Q."""
    Q = S.row_basis
    residuals = []
    for H in traceless_block_functionals(S.d, rows):
        h = _functional_coords(H).real
        residuals.append(float(np.linalg.norm(h - Q.T @ (Q @ h))))
    return residuals


def _block_coordinates(d: int, rows) -> list:
    """(indices, coefficients) of each traceless block functional in Hermitian coordinates."""
    pairs = [d + 2 * (p * d - p * (p + 1) // 2 + q - p - 1) for p, q in combinations(rows, 2)]
    out = [([k + part], np.ones(1)) for k in pairs for part in (0, 1)]
    diag = [np.append(np.ones(t), -t) / np.sqrt(t * (t + 1)) for t in range(1, len(rows))]
    return out + [(list(rows[: len(c)]), c) for c in diag]


def _screen_rejects(S: FeasibleSubspace, rows) -> bool:
    """True when some block functional h has ||h||^2 - ||Qh||^2 (its squared
    residual) above _SCREEN_TOL; the sparse h reads only a few columns of Q."""
    Q = S.row_basis
    coords = _block_coordinates(S.d, rows)
    return any(c @ c - np.sum((Q[:, i] @ c) ** 2) > _SCREEN_TOL for i, c in coords)


def block_identity_prover(S: FeasibleSubspace, block_rows):
    """BlockCertificate if every traceless block functional is forced, else None."""
    rows = _check_block_rows(S.d, block_rows)
    if _screen_rejects(S, rows):  # a certifiable block loses at most 1e-16 plus rounding
        return None
    residuals = _projection_residuals(S, rows)
    if max(residuals) >= BLOCK_TOL:
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
                d=int(doc["d"]),
                shift0_frequencies=frozenset(int(f) for f in doc["shift0_frequencies"]),
                witness_shift=int(doc["witness_shift"]),
                shiftN_frequencies=frozenset(int(f) for f in doc["shiftN_frequencies"]),
                uniform_modulus=Fraction(int(num), int(den)),
                indices=None if indices is None else tuple((int(p[0]), int(p[1])) for p in indices),
                tool_version=str(doc.get("tool_version", "")),
            )
        if kind == "forced_block":
            return BlockCertificate(
                d=int(doc["d"]),
                block_rows=tuple(int(r) for r in doc["block_rows"]),
                forced_functional_residuals=tuple(float(r) for r in doc["forced_functional_residuals"]),
                tolerance=float(doc["tolerance"]),
                unitaries_sha256=str(doc["unitaries_sha256"]),
                rank_one_reduction=bool(doc.get("rank_one_reduction", True)),
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
    try:
        rows = _check_block_rows(s.d, cert.block_rows)
    except ValueError as exc:
        return False, str(exc)
    residuals = _membership_residuals(constraint_matrix(s), s.d, rows)
    if len(residuals) != len(cert.forced_functional_residuals):
        return False, "residual count mismatch"
    for k, (rec, stored) in enumerate(zip(residuals, cert.forced_functional_residuals)):
        if rec >= cert.tolerance:
            return False, f"functional {k} recomputes to residual {rec:.3e} >= tolerance"
        if abs(rec - stored) > 1e-10:
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
