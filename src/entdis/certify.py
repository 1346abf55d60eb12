"""Exact one-way-indistinguishability provers and certificate verification.

Two sound (not complete) provers:

* fourier_cover_prover, for generalized-Bell sets.  A one-way witness alpha
  must satisfy sum_j w^{mj} alpha_j conj(alpha_{j+n}) = 0 at every label
  difference (m, n) = t_i - t_j of the set.  constraints_from_set returns
  those differences as a d x d boolean table indexed [shift n, frequency m]
  (gpauli.difference_table).  If row 0 covers all of {1..d-1}, the moduli
  |alpha_j|^2 have a vanishing DFT at every nonzero frequency and are
  therefore uniformly 1/d; if additionally some row n != 0 is full, the whole
  shift-n autocorrelation vanishes, contradicting the nonzero moduli.  Both
  cover checks are table lookups on integer labels.

* block_identity_prover, for arbitrary sets.  Any one-way protocol reduces
  to rank-one measurement elements M = |phi><phi| satisfying the real-linear
  constraints Tr(U_i M U_j^dag) = 0 for i != j.  If the three traceless
  directions of some principal 2 x 2 block lie in the real span of those
  constraint functionals, every feasible Hermitian M has a scalar block
  there; a scalar block of a rank-one PSD matrix is zero, so no family of
  rank-one elements can sum to the identity.  Larger blocks add nothing: a
  forced k-row block forces each of its 2-row sub-blocks, whose traceless
  directions lie in its span.  Membership residuals are distances from the
  row space of the constraint matrix, read off one thin SVD of its nonzero
  columns by projection, after a screen that rejects a block when a
  functional h, which touches four coordinates, loses ||h||^2 - ||Qh||^2 > 1e-6.

pair_operators stacks every W_p = U_i^dag U_j (i < j), in row blocks small
enough for BLAS to stay on the calling thread; the constraint rows are
hermitian_coords of hermitian_parts, which the witness search's stack holds too.
A monomial set (every column of every member holds one nonzero entry, as in
generalized-Bell and theorem2 sets) of d >= _MONOMIAL_MIN_D skips the dense
products: W_p[a, b] = conj(v_i[a]) v_j[b] at a = rows_i^-1(rows_j(b)), and
the same arithmetic writes the O(N^2 d) nonzero coordinates directly.

verify_certificate runs every check against the set, block residuals by
least squares (one solve per block, on the nonzero constraint columns and the
block's four).  decide and certify hand it the table or matrix their prover
just built; entdis verify builds its own from the set, so certificates stay
independently checkable artifacts.  It refuses a stated tolerance above
BLOCK_TOL.  A block certificate names its set by unitaries_hash, a SHA-256 of
the member bytes, which the verifier recomputes.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .gpauli import check_dimension, check_index, difference_table, is_integer
from .serialize import boolean, integer, number
from .states import UnitarySet
from .version import __version__

RANK_RTOL = 1e-8
BLOCK_TOL = 1e-8
_SCREEN_TOL = 1e-6
_SQRT2 = np.sqrt(2.0)
# rows * d^2 of one pair_operators product: OpenBLAS 0.3.31 keeps a complex gemm with
# m*n*k < 2^16 on the calling thread and wakes a helper that spins on for ~0.13 s from 2^16
_PAIR_BLOCK_ELEMENTS = (1 << 16) - 1
# d from which constraint_matrix writes a monomial set's rows by index arithmetic, whose ~30
# numpy calls cost ~40 us at any small d.  Dense -> direct, detection included (best of
# 25 x 200, one BLAS thread, 2-core Xeon): qutrit triple 24 -> 42 us, theorem2 d=13 44 -> 48,
# d=15 52 -> 50, d=25 94 -> 52, d=61 1142 -> 79.
_MONOMIAL_MIN_D = 15


# ---------------------------------------------------------------------------
# label-difference tables and the Fourier-cover prover
# ---------------------------------------------------------------------------


def constraints_from_set(indices, d) -> np.ndarray:
    """Label-difference table of a generalized-Bell set, indexed [shift, frequency].

    table[n, m] is True when (m, n) = t_i - t_j for two members i != j; the
    witness autocorrelation must vanish at shift n and frequency m there.
    Lemma-style phase factors are dropped since they do not affect whether
    the inner product vanishes.  Refuses labels out of range or repeated.
    """
    d = check_dimension(d)
    idx = [check_index(d, p) for p in indices]
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate Pauli indices in {idx}")
    return difference_table(d, idx)


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


def _frequencies(table: np.ndarray, shift: int) -> set:
    return set(np.flatnonzero(table[shift]).tolist())


def fourier_cover_prover(table: np.ndarray, indices):
    """CoverCertificate for the labels indices if both cover conditions hold
    on their difference table (constraints_from_set), else None (inconclusive).

    Reads row 0 and the first full row.  Sound but not complete: None never
    means "distinguishable".
    """
    d = len(table)
    full = np.flatnonzero(table[1:].all(axis=1))
    if not (table[0, 1:].all() and len(full)):
        return None
    return CoverCertificate(
        d=d,
        shift0_frequencies=frozenset(_frequencies(table, 0)),
        witness_shift=int(full[0]) + 1,
        shiftN_frequencies=frozenset(range(d)),
        uniform_modulus=Fraction(1, d),
        indices=tuple(indices),
    )


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


@lru_cache(maxsize=16)
def triu_pairs(n: int) -> tuple:
    """np.triu_indices(n, k=1) as read-only arrays, computed once per n."""
    i, j = np.triu_indices(n, k=1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def pair_operators(s: UnitarySet) -> np.ndarray:
    """Stacked W_p = U_i^dag U_j over pairs i < j in np.triu_indices order, in blocks of < 2^16 / d^2 rows."""
    if len(s) < 2:
        raise ValueError("distinguishability needs at least two states")
    i, j = triu_pairs(len(s))
    left, right = np.conj(np.swapaxes(s.members, 1, 2))[i], s.members[j]
    W, step = np.empty_like(right), max(1, _PAIR_BLOCK_ELEMENTS // s.d**2)
    for r in range(0, s.d, step):
        np.matmul(left[:, r : r + step], right, out=W[:, r : r + step])
    return W


def hermitian_coords(M: np.ndarray) -> np.ndarray:
    """Coordinates Tr(B_k M) of Hermitian matrices, (..., d, d) -> (..., d^2)."""
    d = M.shape[-1]
    iu, ju = triu_pairs(d)
    upper = M[..., iu, ju]
    x = np.empty(M.shape[:-2] + (d * d,))
    x[..., :d] = np.real(np.diagonal(M, axis1=-2, axis2=-1))
    x[..., d::2] = _SQRT2 * np.real(upper)
    x[..., d + 1 :: 2] = _SQRT2 * np.imag(upper)
    return x


def _hermitian_halves(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """[(conj(X) + W)/2, (conj(X) - W)/2i] for X the entries of W's transpose: the one
    arithmetic of hermitian_parts and _monomial_rows, so their values agree bitwise."""
    G = np.empty((2,) + W.shape, dtype=np.complex128)
    H, K = G  # contiguous halves: a ufunc on a strided view allocates iterator buffers
    H[...] = X
    np.divide(np.subtract(np.conj(H, out=H), W, out=K), 2j, out=K)
    np.divide(np.add(H, W, out=H), 2, out=H)
    return G


def hermitian_parts(W: np.ndarray) -> np.ndarray:
    """(2P, d, d) stack of H_p = (W_p^dag + W_p)/2 for p < P, then K_p = (W_p^dag - W_p)/2i."""
    return _hermitian_halves(np.swapaxes(W, 1, 2), W).reshape((-1,) + W.shape[1:])


def _monomial_form(M: np.ndarray):
    """(rows, inverse rows, values), each (N, d), if every column of every member holds
    one nonzero entry, else None: column b of member k holds values[k, b] at rows[k, b].

    Exact, no tolerance: an entry is zero or it is not.  A validated member's
    columns have unit norm and are orthogonal, so N d nonzero entries in all put
    one in each column and one in each row, and each rows[k] is a permutation.
    """
    N, d, _ = M.shape
    # an entry is nonzero when either of its two float64 flags is: read each flag pair as one uint16
    nonzero = (M.view(np.float64) != 0).view(np.uint16).astype(bool)
    if np.count_nonzero(nonzero) != N * d:
        return None
    flat = np.flatnonzero(nonzero)  # member k's entry of row r sits at position k d + r
    inverse = (flat % d).reshape(N, d)
    rows, values, k = np.empty_like(inverse), np.empty((N, d), dtype=np.complex128), np.arange(N)[:, None]
    rows[k, inverse] = np.arange(d)
    values[k, inverse] = M.reshape(-1)[flat].reshape(N, d)
    return rows, inverse, values


@lru_cache(maxsize=16)
def _coordinate_table(d: int) -> np.ndarray:
    """(d, d) read-only table of the Hermitian coordinate of entries (x, y) and (y, x):
    x on the diagonal, sym(x, y) off it (skw(x, y) is the next coordinate)."""
    iu, ju = triu_pairs(d)
    T = np.empty((d, d), dtype=np.intp)
    T[iu, ju] = T[ju, iu] = d + 2 * np.arange(len(iu))
    T[np.diag_indices(d)] = np.arange(d)
    T.flags.writeable = False
    return T


def _monomial_rows(rows: np.ndarray, inverse: np.ndarray, values: np.ndarray) -> np.ndarray:
    """constraint_matrix of a monomial set from its _monomial_form, in O(N^2 d).

    Column b of W_p = U_i^dag U_j holds w = conj(v_i[a]) v_j[b] at row
    a = rows_i^-1(rows_j(b)).  Each coordinate it touches gets the dense
    path's _hermitian_halves at (W_yx, W_xy), x <= y, 0j for a missing partner,
    then the real part on the diagonal and sqrt(2) times both parts off it.
    """
    N, d = rows.shape
    i, j = triu_pairs(N)
    p, b = np.arange(len(i))[:, None], np.arange(d)
    a = inverse[i[:, None], rows[j]]
    w = np.conj(values[i[:, None], a]) * values[j]
    back = np.where(a[p, a] == b, w[p, a], 0j)  # W_p[b, a]: nonzero when the permutation swaps a and b
    upper = a <= b
    G = _hermitian_halves(np.where(upper, back, w), np.where(upper, w, back))  # at W_yx and W_xy
    diagonal = a == b
    re = np.where(diagonal, 1.0, _SQRT2) * G.real
    im = np.where(diagonal, re, _SQRT2 * G.imag)  # a diagonal entry writes its real part twice
    col = _coordinate_table(d)[a, b]
    A = np.zeros((len(i), 2, d * d))
    h = np.arange(2)[:, None, None]
    A[p, h, col] = re
    A[p, h, col + ~diagonal] = im
    return A.reshape(-1, d * d)


def constraint_matrix(s: UnitarySet) -> np.ndarray:
    """Real constraint rows (Re and Im of M -> Tr(U_i M U_j^dag), i < j), interleaved.

    Tr(U_i M U_j^dag) = Tr(W^dag M) with W = U_i^dag U_j; on Hermitian M its
    real and imaginary parts are Tr(H M) and Tr(K M) for W's hermitian_parts.
    The (j, i) functionals are conjugates on Hermitian arguments and are dropped.
    A monomial set of d >= _MONOMIAL_MIN_D gets its rows from _monomial_rows,
    with no dense product: the same values wherever a product of member
    entries is exact, and within a few ulps elsewhere (BLAS and numpy may
    round a complex product differently).
    """
    form = _monomial_form(s.members) if s.d >= _MONOMIAL_MIN_D and len(s) > 1 else None
    if form is not None:
        return _monomial_rows(*form)
    x = hermitian_coords(hermitian_parts(pair_operators(s)))
    return x.reshape(2, -1, s.d * s.d).swapaxes(0, 1).reshape(-1, s.d * s.d)


@dataclass(frozen=True)
class FeasibleSubspace:
    """S = {M Hermitian : Tr(U_i M U_j^dag) = 0, i != j}, held by its complement.

    row_basis has orthonormal rows spanning the row space of the constraint
    matrix; S is their orthogonal complement in Hermitian coordinates, so a
    functional is forced on S exactly when it lies in that row space.
    constraints is that matrix (read-only), which certify_direction hands to
    verify_certificate.
    """

    d: int
    unitaries: UnitarySet
    row_basis: np.ndarray
    constraint_rank: int
    constraints: np.ndarray

    def dim(self) -> int:
        return self.d * self.d - self.constraint_rank


def hermitian_feasible_subspace(s: UnitarySet) -> FeasibleSubspace:
    """Row space of the pairwise trace constraints, from one thin SVD.

    The SVD runs on the nonzero columns only: zero columns change neither
    the singular values nor the row space.  Rank uses a singular-value
    cutoff RANK_RTOL relative to the largest singular value; dim(S) = d^2 -
    rank by construction.  Needs two or more unitaries (pair_operators
    raises otherwise).
    """
    A = constraint_matrix(s)
    A.setflags(write=False)
    support = np.flatnonzero(np.any(A, axis=0))
    _, sv, vt = np.linalg.svd(A[:, support], full_matrices=False)
    rank = int(np.sum(sv > RANK_RTOL * sv[0]))
    row_basis = np.zeros((rank, s.d * s.d))
    row_basis[:, support] = vt[:rank]
    return FeasibleSubspace(s.d, s, row_basis, rank, A)


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
    h = hashlib.sha256(f"{s.d} {len(s)}\n".encode("ascii"))
    h.update(np.ascontiguousarray(s.members, dtype="<c16"))  # the stack's own buffer on little-endian hosts
    return h.hexdigest()


def _membership_residuals(A: np.ndarray, d: int, rows) -> list:
    """Least-squares distance of each block functional from the span of A's rows,
    solved on the columns where A or h is nonzero (elsewhere both A^T x and h vanish)."""
    h = block_functionals(d, rows)
    cols = np.any(A, axis=0) | np.any(h, axis=0)
    At, ht = A[:, cols].T, h[:, cols].T
    x, *_ = np.linalg.lstsq(At, ht, rcond=None)
    return np.linalg.norm(At @ x - ht, axis=0).tolist()


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
                indices=None if indices is None else tuple((integer(m), integer(n)) for m, n in indices),
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
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed certificate: {exc}") from exc
    raise ValueError(f"unknown certificate kind {kind!r}")


def _verify_cover(cert: CoverCertificate, s: UnitarySet, table: np.ndarray | None):
    if cert.d != s.d:
        return False, f"dimension mismatch: certificate d={cert.d}, set d={s.d}"
    if s.tag is None:
        return False, "set carries no generalized-Bell tag"
    if cert.indices is not None and sorted(cert.indices) != sorted((p.m, p.n) for p in s.tag):
        return False, "certificate indices do not match the set"
    if table is None:
        table = constraints_from_set(s.tag, s.d)
    if set(cert.shift0_frequencies) != _frequencies(table, 0):
        return False, "stored shift-0 frequencies disagree with recomputation"
    if not table[0, 1:].all():
        return False, "shift-0 frequencies do not cover {1..d-1}"
    n = cert.witness_shift
    if not (is_integer(n) and 1 <= n < s.d):
        return False, f"witness shift {n} out of range"
    if set(cert.shiftN_frequencies) != _frequencies(table, n):
        return False, "stored witness-shift frequencies disagree with recomputation"
    if not table[n].all():
        return False, f"shift {n} does not carry every frequency"
    if cert.uniform_modulus != Fraction(1, s.d):
        return False, "uniform modulus is not 1/d"
    return True, "ok"


def _verify_block(cert: BlockCertificate, s: UnitarySet, A: np.ndarray | None):
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
    residuals = _membership_residuals(constraint_matrix(s) if A is None else A, s.d, rows)
    if len(residuals) != len(cert.forced_functional_residuals):
        return False, "residual count mismatch"
    for k, (rec, stored) in enumerate(zip(residuals, cert.forced_functional_residuals)):
        if not rec < cert.tolerance:
            return False, f"functional {k} recomputes to residual {rec:.3e} >= tolerance"
        if not abs(rec - stored) <= 1e-10:
            return False, f"functional {k} stored residual {stored:.3e} != recomputed {rec:.3e}"
    return True, "ok"


def _fitting(constraints, shape: tuple, dtype, kind: str):
    """None, or constraints as an array of this shape and dtype; raises ValueError on any other array."""
    if constraints is None:
        return None
    a = np.asarray(constraints)
    if a.shape != shape or a.dtype != dtype:
        want = f"{np.dtype(dtype)} array of shape {shape}"
        raise ValueError(f"a {kind} certificate reads a {want}, got {a.dtype} {a.shape}")
    return a


def verify_certificate_detailed(cert, s: UnitarySet, *, constraints: np.ndarray | None = None):
    """(ok, reason) of every check of the certificate against the set.

    constraints is the array the checks read, the prover's in
    certify_direction: a cover's (d, d) bool constraints_from_set table, a
    block's (N(N-1), d^2) float64 constraint_matrix.  Without it the verifier
    builds its own from s; one of the wrong shape or dtype raises ValueError.
    """
    if isinstance(cert, dict):
        try:
            cert = certificate_from_dict(cert)
        except ValueError as exc:
            return False, str(exc)
    if isinstance(cert, CoverCertificate):
        return _verify_cover(cert, s, _fitting(constraints, (s.d, s.d), np.bool_, "fourier_cover"))
    if isinstance(cert, BlockCertificate):
        shape = (len(s) * (len(s) - 1), s.d * s.d)
        return _verify_block(cert, s, _fitting(constraints, shape, np.float64, "forced_block"))
    return False, f"unknown certificate type {type(cert).__name__}"


def verify_certificate(cert, s: UnitarySet, *, constraints: np.ndarray | None = None) -> bool:
    """True iff the certificate passes every check against the set (verify_certificate_detailed)."""
    ok, _ = verify_certificate_detailed(cert, s, constraints=constraints)
    return ok
