import tracemalloc

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from choi_sqpt import basis, tomo
from choi_sqpt import (
    HermitianBasis,
    PureStateExpansion,
    apply_channel,
    apply_chi,
    basis_state,
    chi_choi_to_pauli,
    chi_oracle,
    chi_pauli_to_choi,
    choi_basis,
    choi_op,
    expand_choi_four,
    pauli_basis,
    pauli_choi_unitary,
    plan_element,
    preset_channel,
    random_density_matrix,
    sud_generators,
    superposition_states,
)

SQ2 = np.sqrt(2) / 2
PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def test_choi_op_explicit():
    np.testing.assert_array_equal(choi_op(0, 1, 2), [[0, 1], [0, 0]])


def test_choi_op_diagonal_is_projector():
    for d in (2, 4):
        for a in range(d):
            m = choi_op(a, a, d)
            np.testing.assert_allclose(m, m.conj().T)
            np.testing.assert_allclose(m @ m, m)


def test_choi_basis_orthonormal_d3():
    ops = choi_basis(3)
    for i, x in enumerate(ops):
        for j, y in enumerate(ops):
            overlap = np.trace(x.conj().T @ y)
            assert overlap == pytest.approx(1.0 if i == j else 0.0)


def test_choi_op_range_check():
    with pytest.raises(ValueError):
        choi_op(2, 0, 2)


def test_superposition_states_qubit():
    plus, minus = superposition_states(0, 1, 2)
    np.testing.assert_allclose(plus, [SQ2, SQ2], atol=1e-15)
    np.testing.assert_allclose(minus, [SQ2, 1j * SQ2], atol=1e-15)


def test_superposition_states_skip_level():
    plus, minus = superposition_states(0, 2, 3)
    np.testing.assert_allclose(plus, [SQ2, 0, SQ2], atol=1e-15)
    np.testing.assert_allclose(minus, [SQ2, 0, 1j * SQ2], atol=1e-15)


def test_superposition_states_unit_norm_d4():
    for a in range(4):
        for b in range(a + 1, 4):
            for vec in superposition_states(a, b, 4):
                assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_superposition_states_requires_order():
    with pytest.raises(ValueError):
        superposition_states(1, 0, 2)
    with pytest.raises(ValueError):
        superposition_states(1, 1, 3)


def test_expand_choi_four_off_diagonal_weights():
    exp = expand_choi_four(0, 1, 2)
    assert exp.weights == (1.0, 1.0j, -(1 + 1j) / 2, -(1 + 1j) / 2)
    np.testing.assert_allclose(exp.reconstruct(), [[0, 1], [0, 0]], atol=1e-14)


def test_expand_choi_four_diagonal():
    exp = expand_choi_four(1, 1, 3)
    assert exp.weights == (1.0,)
    np.testing.assert_allclose(exp.states[0], basis_state(1, 3))


def test_expand_choi_four_dagger_case():
    exp = expand_choi_four(1, 0, 2)
    assert exp.weights == (1.0, -1.0j, -(1 - 1j) / 2, -(1 - 1j) / 2)
    np.testing.assert_allclose(exp.reconstruct(), [[0, 0], [1, 0]], atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_expand_choi_four_reconstructs_everywhere(dim):
    for a in range(dim):
        for b in range(dim):
            exp = expand_choi_four(a, b, dim)
            assert np.max(np.abs(exp.reconstruct() - choi_op(a, b, dim))) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_expand_choi_four_conjugate_pairs(dim):
    for a in range(dim):
        for b in range(a + 1, dim):
            fwd = expand_choi_four(a, b, dim)
            rev = expand_choi_four(b, a, dim)
            assert rev.weights == tuple(np.conj(fwd.weights))
            for x, y in zip(fwd.states, rev.states):
                np.testing.assert_allclose(x, y, atol=1e-15)


def test_expand_choi_four_returns_one_read_only_unit_per_key():
    unit = expand_choi_four(0, 1, 3)
    assert expand_choi_four(0, 1, 3) is unit
    assert expand_choi_four(np.int64(0), np.int32(1), np.int64(3)) is unit
    assert unit.target == (0, 1)
    for arr in unit.states:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5
    assert basis._choi_four_unit.cache_info().maxsize == basis._UNIT_CACHE_SIZE == 1024


def test_expand_choi_four_caches_units_above_d_32():
    # a unit holds its levels and at most four kets, so every dimension is cached
    unit = expand_choi_four(0, 1, 33)
    assert expand_choi_four(0, 1, 33) is unit
    assert unit.target == (0, 1)
    assert np.max(np.abs(unit.reconstruct() - choi_op(0, 1, 33))) <= 1e-12


def test_plan_element_holds_no_dense_matrix():
    # the two units of a D = 512 element, cold: one D x D complex matrix is 4 MiB
    basis._choi_four_unit.cache_clear()
    tracemalloc.start()
    try:
        plan = plan_element(0, 1, 2, 3, 512)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.settings_count == 16
    assert held < 256 * 1024 and peak < 256 * 1024


def test_expand_choi_four_checks_its_arguments_before_the_cache():
    # (1, 0, 2) is cached first: True and 1.0 hash like 1, yet are refused
    expand_choi_four(1, 0, 2)
    for a, b, dim, name in [(True, 0, 2, "a"), (1.0, 0, 2, "a"), (1, False, 2, "b"),
                            (1, 0, 2.0, "dim")]:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            expand_choi_four(a, b, dim)
    for a, b, dim in [(2, 0, 2), (0, -1, 2), (0, 0, 0)]:
        with pytest.raises(ValueError, match="out of range"):
            expand_choi_four(a, b, dim)


def test_expansions_refuse_non_finite_values():
    # NaN fails every tolerance comparison, so it needs a check of its own;
    # a target level is an index into the states
    ket = basis_state(0, 2)
    cases = [
        ((1.0,), (np.array([np.nan, 0]),), (0, 0), "states must be finite"),
        ((np.nan,), (ket,), (0, 0), "reproduce"),
        ((1.0,), (ket,), (0.0, 0), "target level must be an integer"),
        ((1.0,), (ket,), (0, True), "target level must be an integer"),
        ((1.0,), (ket,), (0, 2), "target level 2 out of range"),
        ((1.0,), (ket,), (-1, 0), "target level -1 out of range"),
        ((1.0, 0.0), (ket,), (0, 0), "weights and states must pair up"),
        ((), (), (0, 0), "expansion states must be one or more vectors of one length"),
        ((1.0,), (np.eye(2) / np.sqrt(2),), (0, 0), "must be one or more vectors"),
        ((1.0, 0.0), (ket, basis_state(0, 3)), (0, 0), "vectors of one length"),
    ]
    for weights, states, target, message in cases:
        with pytest.raises(ValueError, match=message):
            PureStateExpansion(weights, states, target)


def test_pure_state_expansion_validates_reconstruction():
    with pytest.raises(ValueError, match="reproduce"):
        PureStateExpansion((0.5,), (basis_state(0, 2),), (0, 0))
    # a level outside the states' support: |0><0| does not expand |1><1|
    with pytest.raises(ValueError, match="reproduce"):
        PureStateExpansion((1.0,), (basis_state(0, 3),), (1, 1))
    plus, minus = superposition_states(0, 2, 3)
    weights = (1.0, 1.0j, -(1 + 1j) / 2, -(1 + 1j) / 2)
    states = (plus, minus, basis_state(0, 3), basis_state(2, 3))
    assert PureStateExpansion(weights, states, (0, 2)).target == (0, 2)
    for target in [(2, 0), (0, 1), (1, 2)]:
        with pytest.raises(ValueError, match="reproduce"):
            PureStateExpansion(weights, states, target)


@pytest.mark.parametrize("local_dim, n_sites", [(2, 1), (3, 1), (2, 2), (6, 1), (2, 3)])
def test_design_r_expands_each_unit_over_the_state_projectors(local_dim, n_sites):
    # column a*D+b of R holds the weights of |a><b| over the product-state
    # projectors; with the designs the benchmark builds (one site of 6 levels,
    # 3 qubit sites), this and the span of S check the plain solves
    table, r_mat, _ = tomo._product_hermitian_design(local_dim, n_sites)
    dim = local_dim**n_sites
    projectors = np.stack([np.outer(s, s.conj()) for s in table.rows.kets[..., 0]])
    for (a, b), column in zip(np.ndindex(dim, dim), r_mat.T):
        got = np.tensordot(column, projectors, axes=1)
        assert np.max(np.abs(got - choi_op(a, b, dim))) < 1e-12


def test_design_r_recovers_the_four_state_weights():
    # at D = 2 the states are |0>, |1>, |+>, |+i>: the solve finds expand_choi_four's weights
    r_mat = tomo._product_hermitian_design(2, 1)[1]
    np.testing.assert_allclose(r_mat[:, 0], [1, 0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(
        r_mat[:, 1], [-(1 + 1j) / 2, -(1 + 1j) / 2, 1, 1j], atol=1e-12
    )


def _generator_weights(target: np.ndarray, local_dim: int) -> np.ndarray:
    # column c*D+d of S expands the adjoint unit |d><c|, so target[d, c] weighs it
    s_mat = tomo._product_hermitian_design(local_dim, 1)[2]
    return s_mat @ target.T.reshape(-1)


def test_expand_identity_in_pauli_basis():
    np.testing.assert_allclose(_generator_weights(np.eye(2), 2), [1, 0, 0, 0], atol=1e-12)


def test_expand_lowering_unit_in_pauli_basis():
    # |1><0| = (sx - i sy) / 2
    weights = _generator_weights(choi_op(1, 0, 2), 2)
    np.testing.assert_allclose(weights, [0, 0.5, -0.5j, 0], atol=1e-12)
    got = np.tensordot(weights, np.stack(sud_generators(2).operators), axes=1)
    np.testing.assert_allclose(got, [[0, 0], [1, 0]], atol=1e-12)


def test_hermitian_target_gives_real_weights():
    rng = np.random.default_rng(42)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    weights = _generator_weights(g + g.conj().T, 3)
    assert np.max(np.abs(np.imag(weights))) < 1e-12


def test_hermitian_basis_rejects_non_hermitian():
    ops = list(sud_generators(2).operators)
    ops[1] = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        HermitianBasis(2, tuple(ops))
    # a NaN entry used to pass the Hermitian check and fail in the Gram SVD
    ops[1] = np.diag([np.nan, 1.0])
    with pytest.raises(ValueError, match="basis operators must be finite"):
        HermitianBasis(2, tuple(ops))


def test_hermitian_basis_rejects_a_wrong_count_or_shape():
    ops = list(sud_generators(2).operators)
    with pytest.raises(ValueError, match="at dimension 2 needs 4 operators, got 3"):
        HermitianBasis(2, tuple(ops[:3]))
    ops[1] = np.eye(3)
    with pytest.raises(ValueError, match="basis operators must be D x D"):
        HermitianBasis(2, tuple(ops))


def test_hermitian_basis_rejects_dependent_set():
    ops = list(sud_generators(2).operators)
    ops[3] = ops[2]
    with pytest.raises(LinAlgError):
        HermitianBasis(2, tuple(ops))


def test_sud_generators_d2_are_paulis():
    ops = sud_generators(2).operators
    for got, want in zip(ops, PAULIS):
        np.testing.assert_allclose(got, want, atol=1e-15)


def test_sud_generators_d3_orthogonality():
    ops = sud_generators(3).operators
    assert len(ops) == 9
    for i in range(1, 9):
        for j in range(1, 9):
            overlap = np.trace(ops[i] @ ops[j]).real
            assert overlap == pytest.approx(2.0 if i == j else 0.0, abs=1e-12)


def test_sud_generators_d5_hermitian():
    for op in sud_generators(5).operators:
        assert np.max(np.abs(op - op.conj().T)) < 1e-15


@pytest.mark.parametrize("d", [2, 3, 6])
def test_sud_generators_span(d):
    # column c*D+d of S expands the adjoint unit |d><c| over the generator
    # products, on one site and on more
    for n_sites in {2: (1, 2, 3), 3: (1, 2), 6: (1,)}[d]:
        table, _, s_mat = tomo._product_hermitian_design(d, n_sites)
        dim = d**n_sites
        ops = table.cols.ops
        for (c, e), column in zip(np.ndindex(dim, dim), s_mat.T):
            got = np.tensordot(column, ops, axes=1)
            assert np.max(np.abs(got - choi_op(e, c, dim))) < 1e-12


def test_pauli_choi_unitary_single_qubit_entries():
    expected = np.array(
        [
            [SQ2, 0, 0, SQ2],
            [0, SQ2, SQ2, 0],
            [0, -1j * SQ2, 1j * SQ2, 0],
            [SQ2, 0, 0, -SQ2],
        ]
    )
    np.testing.assert_allclose(pauli_choi_unitary(1), expected, atol=1e-15)


def test_pauli_choi_unitary_maps_scaled_units_to_paulis():
    u = pauli_choi_unitary(1)
    scaled_units = [np.sqrt(2) * op for op in choi_basis(2)]
    for row, pauli in enumerate(PAULIS):
        combo = sum(u[row, k] * scaled_units[k] for k in range(4))
        np.testing.assert_allclose(combo, pauli, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_choi_unitary_is_unitary(n):
    u = pauli_choi_unitary(n)
    side = 4**n
    assert u.shape == (side, side)
    assert np.max(np.abs(u @ u.conj().T - np.eye(side))) < 1e-12


def test_chi_conversion_identity_channel():
    chi_p = chi_choi_to_pauli(chi_oracle(preset_channel("identity", dim=2)), 1)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(chi_p, expected, atol=1e-12)


def test_chi_conversion_bit_flip_diagonal():
    p = 0.25
    chi_p = chi_choi_to_pauli(chi_oracle(preset_channel("bit-flip", [p])), 1)
    np.testing.assert_allclose(chi_p, np.diag([1 - p, p, 0, 0]), atol=1e-12)


def test_chi_conversion_round_trip():
    ch = preset_channel("random-cptp", [31, 3], 4)
    chi_c = chi_oracle(ch)
    back = chi_pauli_to_choi(chi_choi_to_pauli(chi_c, 2), 2)
    assert np.max(np.abs(back - chi_c)) < 1e-12


@pytest.mark.parametrize("n,seed", [(1, 0), (1, 1), (2, 2), (2, 3)])
def test_chi_conversion_preserves_channel_action(n, seed):
    dim = 2**n
    ch = preset_channel("random-cptp", [seed, 3], dim)
    chi_c = chi_oracle(ch)
    chi_p = chi_choi_to_pauli(chi_c, n)
    rng = np.random.default_rng(seed + 100)
    for _ in range(5):
        rho = random_density_matrix(dim, rng)
        reference = apply_channel(ch, rho)
        via_choi = apply_chi(chi_c, choi_basis(dim), rho)
        via_pauli = apply_chi(chi_p, pauli_basis(n), rho)
        assert np.max(np.abs(via_choi - reference)) < 1e-10
        assert np.max(np.abs(via_pauli - reference)) < 1e-10


def test_chi_conversion_three_qubits():
    # exercises the site-major reindexing three levels deep
    ch = preset_channel("random-cptp", [77, 2], 8)
    chi_c = chi_oracle(ch)
    chi_p = chi_choi_to_pauli(chi_c, 3)
    np.testing.assert_allclose(chi_pauli_to_choi(chi_p, 3), chi_c, atol=1e-12)
    rng = np.random.default_rng(77)
    rho = random_density_matrix(8, rng)
    via_pauli = apply_chi(chi_p, pauli_basis(3), rho)
    assert np.max(np.abs(via_pauli - apply_channel(ch, rho))) < 1e-10


def test_chi_conversion_shape_check():
    with pytest.raises(ValueError, match="16 x 16"):
        chi_choi_to_pauli(np.eye(4), 2)
