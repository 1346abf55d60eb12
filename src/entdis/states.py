"""Construction and validation of maximally entangled state sets.

A set of maximally entangled states in C^d (x) C^d is represented by its
defining unitaries: each member U defines the state (I (x) U)|psi0> with
|psi0> = (1/sqrt(d)) sum_j |jj>.  Pairwise orthogonality of the states is
equivalent to trace-orthogonality Tr(U_i^dag U_j) = 0 of the unitaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gpauli import (
    PauliIndex,
    check_dimension,
    check_index,
    phase_table,
    to_matrix,
    transpose_index,
)
from .serialize import matrix_from_json, matrix_to_json, pair_to_complex

UNITARY_TOL = 1e-10
ORTHO_TOL = 1e-10
_CHECK_BYTES = 1 << 20

# single-qubit Pauli matrices, used by the four-state block construction
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

DEFAULT_GAMMA = complex(np.exp(1j * np.pi / 4))


@dataclass(frozen=True)
class UnitarySet:
    """An ordered set of d x d defining unitaries, optionally Pauli-tagged.

    members are read-only views into one (N, d, d) complex array.  Validation
    rejects non-finite entries and names the lowest-index member that is not
    unitary, then the first pair (i, j), i < j, with Tr(U_i^dag U_j) != 0.
    tag, when present, lists the (m, n) label of each member, and each
    tagged member must be c U_{mn} for a unit c: its entries at
    ((j + n) mod d, j) are c w^{mj}.  The phases c are irrelevant to every
    consumer (only index differences enter the distinguishability machinery).
    """

    d: int
    members: tuple
    tag: tuple | None = None

    def __post_init__(self):
        d = check_dimension(self.d)
        if len(self.members) < 1:
            raise ValueError("a unitary set needs at least one member")
        for k, U in enumerate(self.members):
            if np.shape(U) != (d, d):
                raise ValueError(f"member {k} has shape {np.shape(U)}, expected {(d, d)}")
        M = np.array(self.members, dtype=np.complex128)
        M.setflags(write=False)
        gram = np.empty((len(M), len(M)))  # |Tr(U_i^dag U_j)|, filled one block of rows at a time
        step = max(1, _CHECK_BYTES // M[0].nbytes)  # temporaries of U^dag U - I stay near _CHECK_BYTES
        for lo in range(0, len(M), step):
            B = M[lo : lo + step]
            with np.errstate(invalid="ignore"):  # inf entries give nan deviations, rejected below
                err = np.max(np.abs(np.conj(np.swapaxes(B, 1, 2)) @ B - np.eye(d)), axis=(1, 2))
                gram[lo : lo + step] = np.abs(np.einsum("iab,jab->ij", np.conj(B), M))
            bad = np.flatnonzero(~(err <= UNITARY_TOL))
            if bad.size:
                raise ValueError(f"member {lo + bad[0]} is not unitary (deviation {err[bad[0]]:.2e})")
        gram[np.tril_indices(len(M))] = 0.0
        bad = np.argwhere(~(gram <= ORTHO_TOL))
        if bad.size:
            i, j = bad[0]
            raise ValueError(
                f"members {i} and {j} are not trace-orthogonal (|Tr| = {gram[i, j]:.2e}); "
                "the defined states are not mutually orthogonal"
            )
        tag = self.tag
        if tag is not None:
            tag = tuple(check_index(d, p) for p in tag)
            if len(tag) != len(M):
                raise ValueError("tag length does not match member count")
            # c[k, j] = U_k[(j + n) mod d, j] w^{-mj} is one unit c iff U_k = c U_mn (U_k is unitary)
            m, n = np.array(tag).T[:, :, None]
            j = np.arange(d)
            c = M[np.arange(len(M))[:, None], (j + n) % d, j] * phase_table(d)[(-m * j) % d]
            err = np.max(np.abs(c - c[:, :1]), axis=1) + np.abs(np.abs(c[:, 0]) - 1.0)
            bad = np.flatnonzero(~(err <= UNITARY_TOL))
            if bad.size:
                k = bad[0]
                raise ValueError(
                    f"member {k} is not a unit multiple of U_{tuple(tag[k])} (deviation {err[k]:.2e})"
                )
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "members", tuple(M))
        object.__setattr__(self, "tag", tag)

    def __len__(self):
        return len(self.members)


def bell_set(d, indices) -> UnitarySet:
    """Generalized-Bell set from distinct (m, n) labels."""
    d = check_dimension(d)
    idx = [check_index(d, p) for p in indices]
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate Pauli indices in {idx}")
    members = tuple(to_matrix(d, p) for p in idx)
    return UnitarySet(d, members, tag=tuple(idx))


def theorem1_indices(d) -> tuple:
    """Index list of the 3*ceil(sqrt(d))-1 flat/shift-1 family.

    With s = ceil(sqrt(d)), the shift-0 group takes m in
    {0..s-1} u {k*s-1 : k = 2..s-1} u {d-1} and the shift-1 group takes
    m in {k*s-1 : k = 1..s-1} u {d-1}, all mod d with duplicates removed.
    For (s-1)^2 < d < s(s-1) the raw list self-collides mod d; one extra
    shift-0 index (smallest unused m) restores the 3s-1 count, which keeps
    the certificate intact because the constraint set only grows.  For
    d = s(s-1) the two listed collisions are removed and the deduplicated
    size 3s-3 is kept as-is.
    """
    d = check_dimension(d)
    if d < 4:
        raise ValueError(f"family needs dimension >= 4, got {d}")
    s = math.isqrt(d - 1) + 1  # ceil(sqrt(d))
    a_group: list[int] = []
    for m in [*range(s), *[k * s - 1 for k in range(2, s)], d - 1]:
        m %= d
        if m not in a_group:
            a_group.append(m)
    b_group: list[int] = []
    for m in [*[k * s - 1 for k in range(1, s)], d - 1]:
        m %= d
        if m not in b_group:
            b_group.append(m)
    indices = [PauliIndex(m, 0) for m in a_group] + [PauliIndex(m, 1) for m in b_group]
    if d != s * (s - 1):
        pad = 0
        while len(indices) < 3 * s - 1:
            if pad not in a_group:
                a_group.append(pad)
                indices.append(PauliIndex(pad, 0))
            pad += 1
    return tuple(indices)


def theorem1_set(d) -> UnitarySet:
    """Generalized-Bell set of the 3*ceil(sqrt(d))-1 family (d >= 4)."""
    return bell_set(d, theorem1_indices(d))


@dataclass(frozen=True)
class Theorem2Spec:
    """Parameters of the four-state block construction in odd d = r + 2 >= 7.

    omega, gamma, sigma are unit-modulus phases; gamma must stay away from
    the two degenerate values where conj(gamma) = +-i*conj(omega)^2 (there
    the forced-block argument collapses).  sigma is unconstrained, so every
    concrete instance is re-certified rather than trusted wholesale.
    """

    d: int
    omega: complex = 1.0 + 0j
    gamma: complex = DEFAULT_GAMMA
    sigma: complex = 1.0 + 0j

    PHASE_TOL = 1e-12
    GAMMA_MARGIN = 1e-9

    def __post_init__(self):
        d = check_dimension(self.d)
        if d < 7 or d % 2 == 0:
            raise ValueError(f"block construction needs odd d >= 7, got {d}")
        for name in ("omega", "gamma", "sigma"):
            z = complex(getattr(self, name))
            if not abs(abs(z) - 1.0) <= self.PHASE_TOL:
                raise ValueError(f"{name} must be a unit-modulus phase, got {z}")
            object.__setattr__(self, name, z)
        gbar = np.conj(self.gamma)
        wbar2 = np.conj(self.omega) ** 2
        margin = min(abs(gbar - 1j * wbar2), abs(gbar + 1j * wbar2))
        if not margin > self.GAMMA_MARGIN:
            raise ValueError(
                f"gamma violates the phase condition conj(gamma) != +-i*conj(omega)^2 "
                f"(distance {margin:.2e})"
            )
        object.__setattr__(self, "d", d)

    @property
    def r(self) -> int:
        return self.d - 2


def cyclic_permutation(r: int) -> np.ndarray:
    """The r x r cyclic shift P with P|j> = |j+1 mod r>."""
    P = np.zeros((r, r))
    for j in range(r):
        P[(j + 1) % r, j] = 1.0
    return P


def _block_diag(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    d = top.shape[0] + bottom.shape[0]
    out = np.zeros((d, d), dtype=np.complex128)
    out[: top.shape[0], : top.shape[0]] = top
    out[top.shape[0] :, top.shape[0] :] = bottom
    return out


def theorem2_set(spec: Theorem2Spec) -> UnitarySet:
    """Four mutually orthogonal maximally entangled states in odd d >= 7.

    Members: I_d, diag(omega*X, P), diag(gamma*Z, P^2),
    diag(sigma*Y, P^((r+1)/2)) with P the (d-2)-cycle.
    """
    r = spec.r
    P = cyclic_permutation(r)
    members = (
        np.eye(spec.d, dtype=np.complex128),
        _block_diag(spec.omega * PAULI_X, P),
        _block_diag(spec.gamma * PAULI_Z, np.linalg.matrix_power(P, 2)),
        _block_diag(spec.sigma * PAULI_Y, np.linalg.matrix_power(P, (r + 1) // 2)),
    )
    return UnitarySet(spec.d, members)


def transpose_set(s: UnitarySet) -> UnitarySet:
    """Replace each member by its transpose.

    Deciding the A->B direction on the transposed set decides B->A on the
    original.  Pauli tags map (m, n) -> (m, -n mod d); the accompanying
    w^{-mn} member phases are kept in the matrices and are irrelevant to all
    downstream consumers.
    """
    members = tuple(U.T for U in s.members)  # views: UnitarySet copies them once
    tag = None
    if s.tag is not None:
        tag = tuple(transpose_index(s.d, p).index for p in s.tag)
    return UnitarySet(s.d, members, tag=tag)


def entangled_vector(U: np.ndarray) -> np.ndarray:
    """State vector (I (x) U)|psi0> of the state defined by U."""
    U = np.asarray(U, dtype=np.complex128)
    d = U.shape[0]
    return (U.T / np.sqrt(d)).reshape(-1)


def check_maximally_entangled(d, vec) -> bool:
    """True iff the unit vector in C^(d^2) has a flat Schmidt spectrum.

    All d singular values of the reshaped d x d coefficient matrix must
    equal 1/sqrt(d) to within 1e-8.
    """
    d = check_dimension(d)
    vec = np.asarray(vec, dtype=np.complex128).reshape(-1)
    if vec.shape != (d * d,):
        raise ValueError(f"expected a vector of length {d * d}, got {vec.shape}")
    nrm = np.linalg.norm(vec)
    if not abs(nrm - 1.0) <= 1e-10:
        raise ValueError(f"state vector must have unit norm, got {nrm}")
    sv = np.linalg.svd(vec.reshape(d, d), compute_uv=False)
    return bool(np.max(np.abs(sv - 1.0 / np.sqrt(d))) < 1e-8)


# ---------------------------------------------------------------------------
# set files
#
#   {"d": d, "type": "generalized_bell", "indices": [[m, n], ...]}
#   {"d": d, "type": "explicit", "unitaries": [[[ [re, im], ... ], ...], ...]}
#   {"d": d, "type": "theorem1"}
#   {"d": d, "type": "theorem2", "omega": [re, im], "gamma": [re, im],
#    "sigma": [re, im]}   (generated files also embed "unitaries")
# ---------------------------------------------------------------------------


def set_from_dict(doc) -> UnitarySet:
    """Build a UnitarySet from a parsed set-file document."""
    if not isinstance(doc, dict):
        raise ValueError("set file must contain a JSON object")
    try:
        d = doc["d"]
        kind = doc["type"]
    except (KeyError, TypeError) as exc:
        raise ValueError("set file needs 'd' and 'type' keys") from exc
    d = check_dimension(d)
    if kind == "generalized_bell":
        indices = doc.get("indices")
        if not indices:
            raise ValueError("generalized_bell set file needs 'indices'")
        return bell_set(d, [tuple(p) for p in indices])
    if kind == "theorem1":
        return theorem1_set(d)
    if kind == "theorem2":
        kwargs = {}
        for name in ("omega", "gamma", "sigma"):
            if name in doc:
                kwargs[name] = pair_to_complex(doc[name])
        return theorem2_set(Theorem2Spec(d, **kwargs))
    if kind == "explicit":
        rows = doc.get("unitaries")
        if not rows:
            raise ValueError("explicit set file needs 'unitaries'")
        members = tuple(matrix_from_json(u, d) for u in rows)
        return UnitarySet(d, members)
    raise ValueError(f"unknown set type {kind!r}")


def set_to_dict(s: UnitarySet) -> dict:
    """Canonical document for a set: Pauli-tagged sets keep their indices."""
    if s.tag is not None:
        return {
            "d": s.d,
            "type": "generalized_bell",
            "indices": [[p.m, p.n] for p in s.tag],
        }
    return {
        "d": s.d,
        "type": "explicit",
        "unitaries": [matrix_to_json(U) for U in s.members],
    }
