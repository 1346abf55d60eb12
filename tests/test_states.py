import math
import tracemalloc

import numpy as np
import pytest

import entdis.states
from entdis.gpauli import PauliIndex, PhasedPauli, phase_table, to_matrix
from entdis.states import (
    Theorem2Spec,
    UnitarySet,
    bell_set,
    check_maximally_entangled,
    cyclic_permutation,
    entangled_vector,
    set_from_dict,
    set_to_dict,
    theorem1_indices,
    theorem1_set,
    theorem2_set,
    transpose_set,
)
from test_gpauli import oracle_matrix


def pairwise_trace_max(s):
    return max(
        abs(np.trace(s.members[i].conj().T @ s.members[j]))
        for i in range(len(s))
        for j in range(i + 1, len(s))
    )


def test_bell_set_qubit_pair():
    s = bell_set(2, [(0, 0), (0, 1)])
    assert np.allclose(s.members[0], np.eye(2))
    assert np.allclose(s.members[1], [[0, 1], [1, 0]])
    assert s.tag == (PauliIndex(0, 0), PauliIndex(0, 1))


def test_bell_set_diagonal_qutrits():
    s = bell_set(3, [(0, 0), (1, 0), (2, 0)])
    for U in s.members:
        assert np.count_nonzero(np.abs(U - np.diag(np.diag(U))) > 1e-15) == 0
    assert pairwise_trace_max(s) < 1e-10


def test_bell_set_rejects_duplicates():
    with pytest.raises(ValueError):
        bell_set(4, [(1, 1), (1, 1)])


def test_bell_set_refuses_what_the_dense_constructor_refused():
    with pytest.raises(ValueError, match="^a unitary set needs at least one member$"):
        bell_set(3, [])
    with pytest.raises(ValueError, match="duplicate Pauli indices"):
        bell_set(3, [(0, 1), (2, 2), (0, 1)])
    for p in ((3, 0), (0, -1)):
        with pytest.raises(ValueError, match="out of range"):
            bell_set(3, [(0, 0), p])
    for p in ((0.5, 0), (True, 1), (1, np.float64(2))):
        with pytest.raises(ValueError, match="pair of integers"):
            bell_set(3, [(0, 0), p])
    with pytest.raises(ValueError, match="dimension"):
        bell_set(1, [(0, 0)])


@pytest.mark.parametrize("d", range(2, 8))
def test_bell_orthogonality_is_index_distinctness(d):
    # Tr(U_a^dag U_b) reduces to the trace of a phased Pauli, which vanishes
    # exactly unless the index difference is (0, 0)
    from entdis.gpauli import adjoint_product, all_indices

    for a in all_indices(d):
        for b in all_indices(d):
            pp = adjoint_product(d, a, b)
            tr = np.trace(to_matrix(d, pp))
            if a == b:
                assert abs(tr - d) < 1e-12
            else:
                assert abs(tr) < 1e-12


def test_theorem1_frozen_small_cases():
    assert set(theorem1_indices(4)) == {(0, 0), (1, 0), (3, 0), (1, 1), (3, 1)}
    assert set(theorem1_indices(9)) == {
        (0, 0), (1, 0), (2, 0), (5, 0), (8, 0), (2, 1), (5, 1), (8, 1),
    }
    # d = 6 is the s(s-1) boundary: the listed family self-collides twice
    assert set(theorem1_indices(6)) == {(0, 0), (1, 0), (2, 0), (5, 0), (2, 1), (5, 1)}
    assert len(theorem1_indices(6)) == 6


@pytest.mark.parametrize("d", range(4, 101))
def test_theorem1_sizes(d):
    s = math.isqrt(d - 1) + 1
    want = 3 * s - 3 if d == s * (s - 1) else 3 * s - 1
    assert len(theorem1_indices(d)) == want


@pytest.mark.parametrize("d", range(4, 21))
def test_theorem1_members_orthogonal(d):
    assert pairwise_trace_max(theorem1_set(d)) < 1e-10


def test_theorem1_rejects_small_d():
    with pytest.raises(ValueError):
        theorem1_set(3)


def test_theorem2_defaults_orthogonal_and_unitary():
    s = theorem2_set(Theorem2Spec(7))
    assert len(s) == 4
    for U in s.members:
        assert np.max(np.abs(U.conj().T @ U - np.eye(7))) < 1e-12
    assert pairwise_trace_max(s) < 1e-12


def test_theorem2_members_define_maximally_entangled_states():
    s = theorem2_set(Theorem2Spec(9))
    for U in s.members:
        assert check_maximally_entangled(9, entangled_vector(U))


def test_theorem2_upper_blocks():
    spec = Theorem2Spec(9)
    s = theorem2_set(spec)
    P = cyclic_permutation(7)
    # (r+1)/2 = 4 at r = 7
    assert np.allclose(s.members[3][2:, 2:], np.linalg.matrix_power(P, 4))
    assert np.allclose(s.members[1][2:, 2:], P)
    assert np.allclose(s.members[2][:2, :2], spec.gamma * np.diag([1, -1]))


def test_theorem2_phase_condition_gate():
    with pytest.raises(ValueError):
        Theorem2Spec(7, omega=1, gamma=1j)
    with pytest.raises(ValueError):
        Theorem2Spec(7, omega=1, gamma=-1j)
    # the same values rotated by omega are fine
    Theorem2Spec(7, omega=np.exp(0.3j), gamma=1j)


def test_theorem2_rejects_bad_dimensions():
    for d in (5, 6, 8, 10):
        with pytest.raises(ValueError):
            Theorem2Spec(d)


def test_theorem2_rejects_nonunit_phase():
    with pytest.raises(ValueError):
        Theorem2Spec(7, gamma=0.5)


def test_sets_compare_and_hash_by_identity():
    s = bell_set(3, [(0, 0), (1, 0)])
    t = transpose_set(s)
    assert s == s and s != t and s != bell_set(3, [(0, 0), (1, 0)])
    assert {s: "s", t: "t"}[s] == "s" and hash(s) == hash(s)


def test_transpose_set_symmetric_pair_unchanged():
    s = bell_set(2, [(0, 0), (0, 1)])
    t = transpose_set(s)
    for U, V in zip(s.members, t.members):
        assert np.allclose(U, V)


def test_transpose_set_tags_and_phases():
    s = bell_set(4, [(0, 0), (1, 1)])
    t = transpose_set(s)
    assert t.tag == (PauliIndex(0, 0), PauliIndex(1, 3))
    assert np.max(np.abs(t.members[1] - to_matrix(4, PhasedPauli(3, PauliIndex(1, 3))))) < 1e-14


def test_transpose_set_involution():
    s = theorem2_set(Theorem2Spec(7))
    tt = transpose_set(transpose_set(s))
    for U, V in zip(s.members, tt.members):
        assert np.array_equal(U, V)


def test_transpose_set_takes_the_validated_stack_as_is(monkeypatch):
    sets = [bell_set(5, [(0, 0), (1, 2), (3, 4)]), theorem2_set(Theorem2Spec(7)), theorem1_set(9)]

    def no_checks(self):
        raise AssertionError("transpose_set re-ran validation")

    monkeypatch.setattr(UnitarySet, "__post_init__", no_checks)
    for s in sets:
        t = transpose_set(s)
        assert len(t) == len(s) and t.d == s.d
        for U, V in zip(s.members, t.members):
            assert np.array_equal(V, U.T) and V.flags.c_contiguous and not V.flags.writeable
        if s.tag is None:
            assert t.tag is None
        else:
            assert t.tag == tuple(PauliIndex(m, -n % s.d) for m, n in s.tag)
        tt = transpose_set(t)
        assert tt.tag == s.tag
        assert all(np.array_equal(U, V) for U, V in zip(s.members, tt.members))
    monkeypatch.undo()
    for s in sets:  # the transposes pass the checks they skipped
        t = transpose_set(s)
        UnitarySet(t.d, t.members)
        for U, p in zip(t.members, t.tag or ()):  # a unit multiple of the Pauli of the mapped label
            P = to_matrix(t.d, p)
            c = np.vdot(P, U) / t.d
            assert abs(abs(c) - 1.0) < 1e-12 and np.max(np.abs(U - c * P)) < 1e-12


def test_check_maximally_entangled_cases():
    psi0 = np.zeros(9, dtype=complex)
    psi0[[0, 4, 8]] = 1 / np.sqrt(3)
    assert check_maximally_entangled(3, psi0)

    product = np.zeros(4, dtype=complex)
    product[0] = 1.0
    assert not check_maximally_entangled(2, product)

    vec = entangled_vector(to_matrix(4, PauliIndex(1, 2)))
    assert check_maximally_entangled(4, vec)

    with pytest.raises(ValueError):
        check_maximally_entangled(2, np.array([1.0, 0, 0, 1.0]))


def test_unitary_set_validation():
    with pytest.raises(ValueError):
        UnitarySet(2, (np.array([[1, 0], [0, 0.5]], dtype=complex),))
    with pytest.raises(ValueError):
        UnitarySet(2, (np.eye(2), np.eye(2)))  # identical states, Tr = d
    with pytest.raises(ValueError):
        UnitarySet(2, (np.eye(3),))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_unitary_set_rejects_non_finite_members(bad):
    for where in ((0, 0), (0, 1)):
        U = np.eye(2, dtype=complex)
        U[where] = bad
        with pytest.raises(ValueError, match="member 1 is not unitary"):
            UnitarySet(2, (np.eye(2), U))
        with pytest.raises(ValueError, match="member 0 is not unitary"):
            UnitarySet(2, (U,))


def test_theorem2_rejects_non_finite_phases():
    for kwargs in ({"omega": np.nan}, {"gamma": complex(np.nan, 0.0)}, {"sigma": np.inf}, {"omega": complex(1.0, np.nan)}):
        with pytest.raises(ValueError, match="unit-modulus"):
            Theorem2Spec(7, **kwargs)


def reference_validation_error(d, members):
    """What the old per-member and per-pair loops named first, or None."""
    members = [np.asarray(U, dtype=np.complex128) for U in members]
    for k, U in enumerate(members):
        if np.max(np.abs(U.conj().T @ U - np.eye(d))) > 1e-10:
            return f"member {k} is not unitary"
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if abs(np.trace(members[i].conj().T @ members[j])) > 1e-10:
                return f"members {i} and {j} are not trace-orthogonal"
    return None


def test_validation_names_the_same_member_or_pair_as_the_loops():
    rng = np.random.default_rng(43)
    V, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    P = [V @ to_matrix(5, PauliIndex(m, n)) for m, n in ((0, 0), (1, 0), (2, 3), (4, 1))]
    nonunitary = [P[0], P[1], 1.001 * P[2], 0.5 * P[3], P[1]]
    nonorthogonal = [P[0], P[1], P[2], np.exp(0.7j) * P[1], P[2]]
    for members, want in ((nonunitary, "member 2 is not unitary"), (nonorthogonal, "members 1 and 3 are not trace-orthogonal")):
        assert reference_validation_error(5, members) == want
        with pytest.raises(ValueError) as exc:
            UnitarySet(5, tuple(members))
        assert str(exc.value).startswith(want + " (")
    assert reference_validation_error(5, P) is None
    assert len(UnitarySet(5, tuple(P))) == 4


@pytest.mark.parametrize("bad", [2.0, np.nan, np.inf])
def test_unitarity_check_names_the_lowest_bad_member_across_blocks(bad):
    d = 64
    P = [to_matrix(d, PauliIndex(0, n)) for n in range(d)]
    per_block = entdis.states._CHECK_BYTES // P[0].nbytes
    assert 1 < per_block < d // 2
    assert len(UnitarySet(d, tuple(P))) == d  # four blocks, all valid
    for first in (per_block, per_block + 2):
        members = list(P)
        for k in (first, 2 * per_block + 1):
            members[k] = members[k].copy()
            if bad == 2.0:
                members[k] *= bad
            else:
                members[k][1, 0] = bad
        with np.errstate(invalid="ignore"):
            dev = np.max(np.abs(members[first].conj().T @ members[first] - np.eye(d)))
        with pytest.raises(ValueError) as exc:
            UnitarySet(d, tuple(members))
        assert str(exc.value) == f"member {first} is not unitary (deviation {dev:.2e})"


def test_orthogonality_check_names_a_pair_across_blocks():
    d = 64
    P = [to_matrix(d, PauliIndex(0, n)) for n in range(d)]
    per_block = entdis.states._CHECK_BYTES // P[0].nbytes
    P[per_block + 1] = np.exp(0.3j) * P[1]
    with pytest.raises(ValueError) as exc:
        UnitarySet(d, tuple(P))
    assert str(exc.value).startswith(f"members 1 and {per_block + 1} are not trace-orthogonal (|Tr| = 6.40e+01)")


def test_validation_holds_the_member_stack_once():
    members = theorem1_set(128).members
    stack = np.array(members).nbytes
    tracemalloc.start()
    try:
        UnitarySet(128, members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * stack, (peak, stack)


def test_tag_must_describe_its_members():
    # the tag is derived from the labels the members are built from: a caller
    # cannot pass one, which the cover prover and its verifier would trust
    diagonal = bell_set(5, [(m, 0) for m in range(5)])
    with pytest.raises(TypeError, match="tag"):
        UnitarySet(5, diagonal.members, tag=[(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)])
    assert UnitarySet(5, diagonal.members).tag is None
    for d in range(2, 8):
        s = bell_set(d, [(m, n) for m in range(d) for n in range(d)])
        for U, (m, n) in zip(s.members, s.tag):
            assert np.max(np.abs(U - oracle_matrix(d, m, n))) < 1e-12


def test_bell_members_pass_the_dense_checks():
    # bell_set skips UnitarySet's unitarity and orthogonality checks; they hold on a seeded slice of label sets
    rng = np.random.default_rng(27)
    for _ in range(40):
        d = int(rng.integers(2, 12))
        picks = rng.choice(d * d, size=int(rng.integers(1, min(12, d * d) + 1)), replace=False)
        s = bell_set(d, [divmod(int(k), d) for k in picks])
        M = np.array(s.members)
        assert M.shape == (len(picks), d, d) and not any(U.flags.writeable for U in s.members)
        assert np.max(np.abs(np.conj(np.swapaxes(M, 1, 2)) @ M - np.eye(d))) < 1e-12
        gram = np.abs(np.einsum("iab,jab->ij", np.conj(M), M))
        assert np.max(gram - d * np.eye(len(M))) < 1e-12 * d
        assert UnitarySet(d, s.members).members[0].tobytes() == s.members[0].tobytes()


@pytest.mark.parametrize("d", [*range(2, 10), 20, 64])
def test_bell_members_are_bitwise_the_former_scatter(d):
    # the former to_matrix, inlined as the reference: zeros, then w^{mj} scattered at ((j + n) mod d, j)
    def reference(d, m, n):
        j = np.arange(d)
        mat = np.zeros((d, d), dtype=np.complex128)
        mat[(j + n) % d, j] = phase_table(d)[(m * j) % d]
        return mat

    rng = np.random.default_rng(d)
    picks = rng.choice(d * d, size=min(d * d, 40), replace=False)
    s = bell_set(d, [divmod(int(k), d) for k in picks])
    ref = np.array([reference(d, m, n) for m, n in s.tag])
    assert np.array_equal(np.array(s.members).view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("d", [*range(4, 21), 64])
def test_tagged_families_and_their_transposes_build(d):
    s = theorem1_set(d)
    t = transpose_set(s)
    assert t.tag == tuple(PauliIndex(m, (-n) % d) for m, n in s.tag)
    assert transpose_set(t).tag == s.tag


def test_every_bell_label_is_its_own_tag():
    for d in (2, 3, 6):
        s = bell_set(d, [(m, n) for m in range(d) for n in range(d)])
        assert len(transpose_set(s)) == d * d


def test_set_from_dict_rejects_non_integer_labels():
    for indices in ([[0.9, 0], [1.5, 0]], [[True, 0], [0, 1]], [[0, 0], [1, 2.0]]):
        with pytest.raises(ValueError, match="pair of integers"):
            set_from_dict({"d": 4, "type": "generalized_bell", "indices": indices})
    assert set_from_dict({"d": 4, "type": "generalized_bell", "indices": [[0, 0], [1, 0]]}).tag == ((0, 0), (1, 0))


def test_set_from_dict_rejects_strings_and_booleans_as_numbers():
    X = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    for entry, bad in ((["1", 0], "'1'"), ([True, 0], "True"), ([1, False], "False")):
        member = [[entry, [0, 0]], [[0, 0], [1, 0]]]
        with pytest.raises(ValueError, match=f"^{bad} is not a number$"):
            set_from_dict({"d": 2, "type": "explicit", "unitaries": [member, X]})
    with pytest.raises(ValueError, match="^'1' is not a number$"):
        set_from_dict({"d": 7, "type": "theorem2", "omega": ["1", False]})
    s = set_from_dict({"d": 2, "type": "explicit", "unitaries": [[[[1, 0], [0, 0]], [[0, 0], [1.0, 0.0]]], X]})
    assert np.array_equal(s.members[1], [[0, 1], [1, 0]])


def test_set_dict_round_trips():
    s = bell_set(3, [(0, 0), (1, 2)])
    doc = set_to_dict(s)
    assert doc["type"] == "generalized_bell"
    s2 = set_from_dict(doc)
    for U, V in zip(s.members, s2.members):
        assert np.array_equal(U, V)

    e = theorem2_set(Theorem2Spec(7))
    doc = set_to_dict(e)
    assert doc["type"] == "explicit"
    e2 = set_from_dict(doc)
    for U, V in zip(e.members, e2.members):
        assert np.max(np.abs(U - V)) < 1e-15


def _stack_constructors():
    pair = bell_set(4, [(0, 0), (1, 0), (0, 1)])
    arr = np.array(pair.members)
    yield "tuple", UnitarySet(4, tuple(arr))
    yield "list", UnitarySet(4, list(arr))
    yield "ndarray", UnitarySet(4, arr)
    yield "bell_set", pair
    yield "theorem1_set", theorem1_set(9)
    yield "theorem2_set", theorem2_set(Theorem2Spec(7))
    yield "transpose_set tagged", transpose_set(pair)
    yield "transpose_set untagged", transpose_set(theorem2_set(Theorem2Spec(7)))
    for doc in (
        {"d": 4, "type": "generalized_bell", "indices": [[0, 0], [1, 2]]},
        {"d": 5, "type": "theorem1"},
        {"d": 7, "type": "theorem2"},
        set_to_dict(theorem2_set(Theorem2Spec(9))),
    ):
        yield "set_from_dict " + doc["type"], set_from_dict(doc)


def test_every_constructor_stores_one_read_only_stack():
    seen = set()
    for name, s in _stack_constructors():
        M = s.members
        assert type(M) is np.ndarray and M.shape == (len(s), s.d, s.d), name
        assert M.dtype == np.complex128 and M.flags.c_contiguous and not M.flags.writeable, name
        with pytest.raises(ValueError):
            M[0, 0, 0] = 0
        seen.add(name)
    assert len(seen) == 12


def test_a_set_keeps_its_members_when_the_callers_array_changes():
    arr = np.array(bell_set(3, [(0, 0), (1, 0)]).members)
    s = UnitarySet(3, arr)
    want = s.members.copy()
    arr[0] = 7.0
    assert np.array_equal(s.members, want) and not np.shares_memory(s.members, arr)


def test_set_from_dict_named_types():
    s = set_from_dict({"d": 9, "type": "theorem1"})
    assert s.tag == theorem1_set(9).tag
    t = set_from_dict({"d": 7, "type": "theorem2", "gamma": [0.0, 1.0], "omega": [0.6, 0.8]})
    assert len(t) == 4


def test_set_from_dict_malformed():
    with pytest.raises(ValueError):
        set_from_dict([])
    with pytest.raises(ValueError):
        set_from_dict({"d": 4})
    with pytest.raises(ValueError):
        set_from_dict({"d": 4, "type": "nope"})
    with pytest.raises(ValueError):
        set_from_dict({"d": 4, "type": "generalized_bell"})
    with pytest.raises(ValueError):
        set_from_dict({"d": 8, "type": "theorem2"})
