from statistics import NormalDist

import numpy as np
import pytest

from choi_sqpt import (
    BackendConfig,
    PhysicalityError,
    QuantumChannel,
    QuditIndexMap,
    apply_channel,
    beta_entry,
    beta_permutation,
    chi_from_json,
    chi_from_lambda,
    chi_index,
    chi_oracle,
    chi_to_json,
    choi_op,
    expand_choi_four,
    full_sqpt,
    ghz_profile,
    lambda_from_chi,
    lambda_index,
    lambda_oracle,
    plan_element,
    preset_channel,
    reconstruct_element,
)
from choi_sqpt import basis, measure, tomo

EXACT = BackendConfig()


def _all_targets(dim):
    return [
        (e, f, g, h)
        for e in range(dim)
        for f in range(dim)
        for g in range(dim)
        for h in range(dim)
    ]


# --- beta machinery -----------------------------------------------------------


def test_beta_entry_example():
    assert beta_entry((0, 0), (1, 1), (0, 1), (0, 1)) == 1


def test_beta_entry_zero_when_f_differs_from_a():
    assert beta_entry((0, 1), (0, 0), (0, 0), (0, 0)) == 0


@pytest.mark.parametrize("dim", [2, 3])
def test_beta_dense_matches_scalar_definition(dim):
    dense = beta_permutation(dim).dense()
    pairs = [(x, y) for x in range(dim) for y in range(dim)]
    n = len(pairs)
    for ai, ab in enumerate(pairs):
        for ci, cd in enumerate(pairs):
            for ei, ef in enumerate(pairs):
                for gi, gh in enumerate(pairs):
                    row = ai * n + ci
                    col = ei * n + gi
                    assert dense[row, col] == beta_entry(ef, gh, ab, cd)
    assert np.array_equal(dense.sum(axis=0), np.ones(n * n))
    assert np.array_equal(dense.sum(axis=1), np.ones(n * n))


# The index relabeling is a 4-cycle of coordinate slots, so its sign is
# (-1)**(3 * D**3 * (D-1) / 2): -1 exactly when D = 3 (mod 4).  Inverse =
# transpose holds regardless, which is all the reconstruction relies on.
@pytest.mark.parametrize("dim,sign", [(2, 1), (3, -1)])
def test_beta_dense_is_orthogonal_with_known_sign(dim, sign):
    perm = beta_permutation(dim)
    dense = perm.dense()
    n = dense.shape[0]
    assert np.array_equal(dense.T @ dense, np.eye(n))
    assert np.linalg.det(dense) == pytest.approx(sign, abs=1e-12)
    assert perm.parity() == sign


@pytest.mark.parametrize("dim,sign", [(4, 1), (5, 1), (6, 1), (7, -1)])
def test_beta_parity_mod_four_pattern(dim, sign):
    assert beta_permutation(dim).parity() == sign


def test_beta_dense_guard():
    with pytest.raises(ValueError, match="dim <= 3"):
        beta_permutation(4).dense()


def test_beta_forward_then_transpose_is_identity_d4():
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    np.testing.assert_array_equal(lambda_from_chi(chi_from_lambda(mat)), mat)
    np.testing.assert_array_equal(chi_from_lambda(lambda_from_chi(mat)), mat)


def test_beta_apply_matches_dense():
    dense = beta_permutation(2).dense()
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(4, 4))
    np.testing.assert_array_equal(dense @ mat.ravel(), lambda_from_chi(mat).ravel())
    np.testing.assert_array_equal(dense.T @ mat.ravel(), chi_from_lambda(mat).ravel())


# --- lambda oracle and the chi mapping ------------------------------------------


def test_lambda_oracle_identity():
    lam = lambda_oracle(preset_channel("identity", dim=2))
    np.testing.assert_allclose(lam, np.eye(4), atol=1e-15)


def test_lambda_diagonal_blocks_are_transition_probabilities():
    dim = 3
    ch = preset_channel("random-cptp", [40, 3], dim)
    lam = lambda_oracle(ch)
    for a in range(dim):
        for b in range(dim):
            rho = np.zeros((dim, dim), dtype=complex)
            rho[b, b] = 1.0
            direct = apply_channel(ch, rho)[a, a].real
            assert lam[b * dim + b, a * dim + a].real == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_lambda_chi_index_mapping(dim):
    for seed in range(5):
        ch = preset_channel("random-cptp", [seed, 2], dim)
        lam = lambda_oracle(ch)
        chi = chi_oracle(ch)
        for a in range(dim):
            for b in range(dim):
                for c in range(dim):
                    for d in range(dim):
                        assert lam[a * dim + b, c * dim + d] == pytest.approx(
                            chi[c * dim + a, d * dim + b], abs=1e-12
                        )


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_chi_from_lambda_equals_oracle(dim):
    ch = preset_channel("random-cptp", [80 + dim, 3], dim)
    np.testing.assert_allclose(
        chi_from_lambda(lambda_oracle(ch)), chi_oracle(ch), atol=1e-12
    )


def test_chi_from_lambda_matches_beta_transpose_path():
    rng = np.random.default_rng(3)
    lam = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    forward = beta_permutation(2).forward
    np.testing.assert_array_equal(chi_from_lambda(lam).ravel(), lam.ravel()[forward])


@pytest.mark.parametrize("dim", [2, 3])
def test_slot_map_is_the_one_relabeling(dim):
    # lambda_index / chi_index against the written-out delta product of
    # beta_entry, and against the matrix units plan_element expands
    for target in _all_targets(dim):
        e, f, g, h = target
        a, b, c, d = lambda_index(target)
        assert chi_index((a, b, c, d)) == target
        for ab in np.ndindex(dim, dim):
            for cd in np.ndindex(dim, dim):
                expected = int((ab + cd) == (a, b, c, d))
                assert beta_entry((e, f), (g, h), ab, cd) == expected
        plan = plan_element(*target, dim)
        np.testing.assert_array_equal(plan.inputs.target, choi_op(a, b, dim))
        np.testing.assert_array_equal(plan.observables.target, choi_op(d, c, dim))


def test_lambda_from_chi_round_trip():
    rng = np.random.default_rng(4)
    chi = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    np.testing.assert_allclose(lambda_from_chi(chi_from_lambda(lambda_from_chi(chi))),
                               lambda_from_chi(chi), atol=1e-14)


# --- planning -------------------------------------------------------------------


def test_plan_diagonal_single_setting():
    plan = plan_element(0, 0, 0, 0, 2)
    assert plan.settings_count == 1
    (psi,), (phi,) = plan.inputs.states, plan.observables.states
    setting = measure.MeasurementSetting(psi, phi)
    np.testing.assert_allclose(setting.input_state, [1, 0], atol=1e-15)
    assert setting.is_projector
    np.testing.assert_allclose(setting.observable, [1, 0], atol=1e-15)


def test_plan_generic_sixteen_settings():
    plan = plan_element(0, 0, 1, 1, 2)
    assert plan.settings_count == 16
    settings = [measure.MeasurementSetting(psi, phi)
                for psi in plan.inputs.states for phi in plan.observables.states]
    inputs = {s.canonical_key().split(b";")[1] for s in settings}
    observables = {s.canonical_key().split(b";")[2] for s in settings}
    assert len(inputs) == 4 and len(observables) == 4


def test_plan_half_diagonal_four_settings():
    plan = plan_element(0, 0, 0, 1, 2)
    assert plan.settings_count == 4


@pytest.mark.parametrize("dim", range(2, 7))
def test_plan_cardinality_case_split(dim):
    for e, f, g, h in _all_targets(dim):
        plan = plan_element(e, f, g, h, dim)
        if e == g and f == h:
            expected = 1
        elif e == g or f == h:
            expected = 4
        else:
            expected = 16
        assert plan.settings_count == expected
        assert len(plan.terms) == expected


def test_plan_index_validation():
    with pytest.raises(ValueError, match="range"):
        plan_element(0, 0, 0, 3, 3)
    # non-integers are refused by name, not indexed (0.5) or read as 1 (True)
    for args, name in [((0.5, 0, 0, 0, 2), "e"), ((True, 0, 1, 0, 2), "e"),
                       ((0, 0, 0, 1.0, 2), "h"), ((0, 0, 0, 0, 2.0), "dim")]:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            plan_element(*args)
    plan = plan_element(np.int64(1), 0, 1, 0, np.int64(2))
    assert plan.target == (1, 0, 1, 0) and plan.dim == 2


# --- single-element reconstruction ----------------------------------------------


def test_reconstruct_identity_off_diagonal():
    plan = plan_element(0, 0, 1, 1, 2)
    est = reconstruct_element(plan, preset_channel("identity", dim=2), EXACT)
    assert est.value == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert est.std_error == 0.0
    assert est.backend == "exact"


def test_reconstruct_amplitude_damping_diagonal():
    plan = plan_element(0, 1, 0, 1, 2)
    est = reconstruct_element(plan, preset_channel("amplitude-damping", [0.3]), EXACT)
    assert est.value == pytest.approx(0.3 + 0.0j, abs=1e-12)
    assert est.settings_used == 1


@pytest.mark.parametrize("dim", [2, 3])
def test_reconstruct_matches_oracle_exhaustively(dim):
    for seed in range(3):
        ch = preset_channel("random-cptp", [seed + 50, 2], dim)
        chi = chi_oracle(ch)
        for e, f, g, h in _all_targets(dim):
            est = reconstruct_element(plan_element(e, f, g, h, dim), ch, EXACT)
            assert abs(est.value - chi[e * dim + f, g * dim + h]) < 1e-12


def test_reconstruct_hermitian_pairs():
    dim = 3
    ch = preset_channel("random-cptp", [61, 3], dim)
    for e, f, g, h in [(0, 1, 2, 0), (1, 2, 0, 0), (0, 0, 2, 1)]:
        fwd = reconstruct_element(plan_element(e, f, g, h, dim), ch, EXACT)
        rev = reconstruct_element(plan_element(g, h, e, f, dim), ch, EXACT)
        assert abs(fwd.value - np.conj(rev.value)) < 1e-12


def test_reconstruct_sampled_concentration():
    ch = preset_channel("bit-flip", [0.25])
    plan = plan_element(0, 0, 1, 1, 2)
    cfg = BackendConfig("sampled", 10**6, 42)
    est = reconstruct_element(plan, ch, cfg)
    assert est.std_error > 0
    assert abs(est.value - 0.75) <= 5 * est.std_error
    assert est.backend == "sampled(shots=1000000,seed=42)"


def test_reconstruct_sampled_deterministic():
    ch = preset_channel("amplitude-damping", [0.2])
    plan = plan_element(0, 1, 1, 0, 2)
    cfg = BackendConfig("sampled", 8192, 3)
    a = reconstruct_element(plan, ch, cfg)
    b = reconstruct_element(plan, ch, cfg)
    assert a.value == b.value and a.std_error == b.std_error


def test_reconstruct_dimension_check():
    plan = plan_element(0, 0, 0, 0, 2)
    with pytest.raises(ValueError, match="dimension"):
        reconstruct_element(plan, preset_channel("identity", dim=3), EXACT)


def test_reconstruct_propagates_backend_failures():
    inflating = QuantumChannel(2, (np.sqrt(2) * np.eye(2, dtype=complex),))
    plan = plan_element(0, 0, 0, 0, 2)
    with pytest.raises(PhysicalityError):
        reconstruct_element(plan, inflating, BackendConfig("sampled", 100, 0))


# --- full reconstruction ---------------------------------------------------------


@pytest.mark.parametrize("strategy", ["choi-four", "product-hermitian"])
def test_full_identity(strategy):
    ch = preset_channel("identity", dim=2)
    result = full_sqpt(ch, EXACT, strategy=strategy)
    assert np.max(np.abs(result.chi - chi_oracle(ch))) < 1e-12
    assert result.strategy == strategy


def test_full_choi_four_random_two_qubit():
    ch = preset_channel("random-cptp", [70, 4], 4)
    result = full_sqpt(ch, EXACT)
    assert np.max(np.abs(result.chi - chi_oracle(ch))) < 1e-10
    assert result.settings_total == 4**4
    assert result.settings_measured == 4**4
    assert result.settings_inferred == 0


@pytest.mark.parametrize("dim", [2, 3])
def test_full_choi_four_setting_count(dim):
    result = full_sqpt(preset_channel("random-cptp", [dim, 2], dim), EXACT)
    assert result.settings_total == dim**4


def test_full_tp_shortcut_counts_and_value():
    ch = preset_channel("amplitude-damping", [0.35])
    plain = full_sqpt(ch, EXACT)
    short = full_sqpt(ch, EXACT, tp_shortcut=True)
    assert short.settings_total == 16
    assert short.settings_measured == 12  # = D^2 (D^2 - 1) at D = 2
    assert short.settings_inferred == 4
    assert np.max(np.abs(plain.chi - short.chi)) < 1e-12


def test_full_tp_shortcut_qutrit_counts():
    ch = preset_channel("depolarizing", [0.4], 3)
    result = full_sqpt(ch, EXACT, tp_shortcut=True)
    assert result.settings_total == 81
    assert result.settings_measured == 72  # = D^2 (D^2 - 1) at D = 3
    assert result.settings_inferred == 9
    assert np.max(np.abs(result.chi - chi_oracle(ch))) < 1e-12


def test_full_tp_shortcut_rejects_non_tp():
    ch = QuantumChannel(2, (0.5 * np.eye(2, dtype=complex),))
    with pytest.raises(PhysicalityError, match="trace-preserving"):
        full_sqpt(ch, EXACT, tp_shortcut=True)


def test_full_tp_shortcut_needs_choi_four():
    ch = preset_channel("identity", dim=2)
    with pytest.raises(ValueError, match="choi-four"):
        full_sqpt(ch, EXACT, strategy="product-hermitian", tp_shortcut=True)


def test_full_unknown_strategy():
    with pytest.raises(ValueError, match="strategy"):
        full_sqpt(preset_channel("identity", dim=2), EXACT, strategy="magic")


def test_full_product_hermitian_qutrit():
    ch = preset_channel("random-cptp", [71, 3], 3)
    result = full_sqpt(ch, EXACT, strategy="product-hermitian")
    assert np.max(np.abs(result.chi - chi_oracle(ch))) < 1e-10
    assert result.settings_total == 81


def test_full_product_hermitian_two_qubits():
    ch = preset_channel("random-cptp", [72, 4], 4)
    result = full_sqpt(ch, EXACT, strategy="product-hermitian", local_dim=2, n_sites=2)
    assert np.max(np.abs(result.chi - chi_oracle(ch))) < 1e-10


def test_full_product_hermitian_sampled():
    ch = preset_channel("random-cptp", [75, 2], 2)
    result = full_sqpt(ch, BackendConfig("sampled", 10**5, 8), "product-hermitian")
    err = np.abs(result.chi - chi_oracle(ch))
    assert np.all(err <= 6 * result.std_errors + 1e-9)
    assert np.max(result.std_errors) > 0


def test_full_product_hermitian_dimension_mismatch():
    ch = preset_channel("identity", dim=4)
    with pytest.raises(ValueError, match="local_dim"):
        full_sqpt(ch, EXACT, strategy="product-hermitian", local_dim=3, n_sites=2)
    with pytest.raises(ValueError, match="together"):
        full_sqpt(ch, EXACT, strategy="product-hermitian", local_dim=2)
    # the product arguments mean nothing to choi-four, so it refuses them too
    with pytest.raises(ValueError, match="only for product-hermitian"):
        full_sqpt(ch, EXACT, strategy="choi-four", local_dim=3, n_sites=2)
    with pytest.raises(ValueError, match="only for product-hermitian"):
        full_sqpt(ch, EXACT, n_sites=1)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_full_sampled_matches_per_element_reconstruction(dim):
    # every table-derived entry is its own plan's estimate: same seed, same
    # streams, same combine rule, so the values agree bit for bit
    ch = preset_channel("random-cptp", [73, 2], dim)
    cfg = BackendConfig("sampled", 4096, 11)
    result = full_sqpt(ch, cfg)
    for e, f, g, h in _all_targets(dim):
        est = reconstruct_element(plan_element(e, f, g, h, dim), ch, cfg)
        assert result.chi[e * dim + f, g * dim + h] == est.value
        assert result.std_errors[e * dim + f, g * dim + h] == est.std_error


def _combine_reference(values, errs, row, col) -> tuple[complex, float]:
    # the per-entry term loop _combine replaced: Python's sum from 0,
    # input-outer, every standard error squared as a float by e * e
    terms = [(np.complex128(r * s), values[i, j], float(errs[i, j]))
             for i, r in zip(*row) for j, s in zip(*col)]
    value = complex(sum(w * v for w, v, _ in terms))
    variance = float(sum(abs(w) ** 2 * (e * e) for w, _, e in terms))
    return value, variance


def test_combine_matches_the_per_term_sum():
    # every (input, observable) pair of D = 3 expansions, with and without
    # the shortcut's substitution, over a sampled-like table whose errors
    # include 10^4-shot values that libm pow and x * x square differently
    dim, shots = 3, 10**4
    rng = np.random.default_rng(5)
    values = rng.integers(0, shots + 1, (9, 9)) / shots
    errs = np.sqrt(values * (1.0 - values) / shots)
    errs[:, :3] = [0.0016439939172636863, 0.0032809253267942567, 0.0033542116808573668]
    units = [expand_choi_four(a, b, dim) for a, b in np.ndindex(dim, dim)]
    rows = [(list(rng.permutation(9)[: len(u.weights)]), u.weights) for u in units]
    cols = rows + [tomo._inferred_substituted(*row, 2, [0, 1]) for row in rows]
    x, y = np.indices((len(rows), len(cols))).reshape(2, -1)
    lam, var = tomo._combine(values, errs, tomo._padded(rows, x), tomo._padded(cols, y))
    for t in range(x.size):
        value, variance = _combine_reference(values, errs, rows[x[t]], cols[y[t]])
        assert lam[t] == value and var[t] == variance, (x[t], y[t])


@pytest.mark.parametrize("config", [EXACT, BackendConfig("sampled", 10**4, 2**32 + 7)],
                         ids=["exact", "sampled"])
@pytest.mark.parametrize("dim", [3, 4])
def test_choi_four_set_matches_lone_elements(monkeypatch, dim, config):
    # one table for a mixed set: each entry is its lone element's estimate,
    # and the table is the union of input kets x the union of observable kets
    targets = [
        (1, 2, 1, 2),  # diagonal
        (0, 1, 2, 1),  # input unit |1><1| diagonal
        (2, 0, 2, 1),  # observable unit |2><2| diagonal
        (0, 1, 2, 0),  # off-diagonal, observable unit shared with (0, 1, 2, 1)
        (0, 1, 2, 0),  # repeated
        (1, 1, 0, 1),  # input unit shared with (0, 1, 2, 1), observable unit
                       # |0><1| the input unit of (2, 0, 2, 1)
        (dim - 1, 0, 1, dim - 1),
    ]
    plans = [plan_element(*t, dim) for t in targets]
    units, index = [], {}

    def unit(expansion):
        key = expansion.target.tobytes()
        if key not in index:
            index[key] = len(units)
            units.append(expansion)
        return index[key]

    inputs = [unit(p.inputs) for p in plans]
    observables = [unit(p.observables) for p in plans]
    tables = []
    read = tomo.measure_table

    def recorded(channel, states, obs, cfg):
        tables.append((len(states), len(obs)))
        return read(channel, states, obs, cfg)

    monkeypatch.setattr(tomo, "measure_table", recorded)
    ch = preset_channel("random-cptp", [17, 3], dim)
    lam, var = tomo._choi_four(ch, config, units, inputs, observables)

    def union(expansions):
        return len({ket.tobytes() for u in expansions for ket in u.states})

    assert tables == [(union(p.inputs for p in plans), union(p.observables for p in plans))]
    assert tables[0][0] * tables[0][1] < dim**4
    for t, plan in enumerate(plans):
        est = reconstruct_element(plan, ch, config)
        assert lam[t] == est.value and float(np.sqrt(var[t])) == est.std_error, targets[t]
    if config.mode == "sampled":
        assert np.all(var > 0)


def _count_calls(monkeypatch, owner, name) -> list[int]:
    calls = [0]
    original = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _count_canonical_keys(monkeypatch) -> tuple[list[int], list[int]]:
    # (setting keys, vector encodings): every key, a table cell's or
    # canonical_key's, is built by measure._setting_key from the
    # measure._canon_complex encodings of its two vectors
    keys = _count_calls(monkeypatch, measure, "_setting_key")
    return keys, _count_calls(monkeypatch, measure, "_canon_complex")


@pytest.mark.parametrize("strategy, tp_shortcut", [
    ("choi-four", False), ("choi-four", True), ("product-hermitian", False),
])
def test_full_canonical_key_budget(monkeypatch, strategy, tp_shortcut):
    # the exact backend builds no key at all and full reconstruction plans
    # no element; the sampled one builds one key per measured cell, for its
    # random stream, from one encoding per input state and per observable
    def no_plans(*args):
        raise AssertionError("full_sqpt must not plan single elements")

    monkeypatch.setattr(tomo, "plan_element", no_plans)
    calls, encodings = _count_canonical_keys(monkeypatch)
    ch = preset_channel("random-cptp", [76, 2], 3)
    full_sqpt(ch, EXACT, strategy, tp_shortcut)
    assert calls[0] == 0 and encodings[0] == 0
    result = full_sqpt(ch, BackendConfig("sampled", 100, 1), strategy, tp_shortcut)
    assert calls[0] == result.settings_measured
    n_observables = 3**2 - 1 if tp_shortcut else 3**2
    assert encodings[0] == 3**2 + n_observables


def test_element_canonical_key_budget(monkeypatch):
    calls, encodings = _count_canonical_keys(monkeypatch)
    for target in _all_targets(3):
        plan_element(*target, 3)
    assert calls[0] == 0
    plan = plan_element(0, 1, 2, 0, 3)
    assert plan.settings_count == 16
    ch = preset_channel("random-cptp", [77, 2], 3)
    reconstruct_element(plan, ch, BackendConfig("sampled", 100, 1))
    assert calls[0] == plan.settings_count
    assert encodings[0] == len(plan.inputs.states) + len(plan.observables.states) == 8


@pytest.mark.parametrize("config, decompositions", [
    (EXACT, 0), (BackendConfig("sampled", 100, 1), 3**2),
], ids=["exact", "sampled"])
def test_full_eigendecomposition_budget(monkeypatch, config, decompositions):
    # the sampled backend eigendecomposes each Hermitian observable once per
    # table, not once per cell; the exact backend never does
    calls = _count_calls(monkeypatch, np.linalg, "eigh")
    full_sqpt(preset_channel("random-cptp", [80, 2], 3), config, "product-hermitian")
    assert calls[0] == decompositions


def _clear_designs():
    basis._choi_four_unit.cache_clear()
    tomo._product_hermitian_design.cache_clear()


def test_design_caches_give_the_same_bytes_cold_and_warm():
    ch = preset_channel("random-cptp", [81, 2], 3)
    sampled = BackendConfig("sampled", 1000, 7)

    def run() -> bytes:
        parts = [full_sqpt(ch, EXACT), full_sqpt(ch, EXACT, "product-hermitian"),
                 full_sqpt(ch, sampled, "product-hermitian")]
        est = reconstruct_element(plan_element(0, 1, 2, 0, 3), ch, sampled)
        return b"".join(r.chi.tobytes() + r.std_errors.tobytes() for r in parts) + \
            repr((est.value, est.std_error)).encode()

    _clear_designs()
    cold = run()
    assert run() == cold
    _clear_designs()
    assert run() == cold


@pytest.mark.parametrize("strategy", ["choi-four", "product-hermitian"])
def test_a_second_run_at_the_same_dimension_rebuilds_no_design(monkeypatch, strategy):
    # the expansions and weight solves depend only on D: a second channel at
    # the same D pays for its table and combine alone
    full_sqpt(preset_channel("random-cptp", [82, 2], 3), EXACT, strategy)
    expansions = _count_calls(monkeypatch, basis, "PureStateExpansion")
    solves = _count_calls(monkeypatch, tomo, "_solve_expansion")
    second = preset_channel("random-cptp", [83, 2], 3)
    result = full_sqpt(second, EXACT, strategy)
    np.testing.assert_allclose(result.chi, chi_oracle(second), atol=1e-12)
    assert expansions[0] == 0 and solves[0] == 0
    _clear_designs()
    full_sqpt(second, EXACT, strategy)
    assert (expansions[0], solves[0]) == ((3**2, 0) if strategy == "choi-four" else (0, 2))


def test_product_hermitian_design_is_read_only_and_bounded():
    states, observables, r_mat, s_mat = tomo._product_hermitian_design(2, 2)
    assert len(states) == len(observables) == 16 and r_mat.shape == s_mat.shape == (16, 16)
    for arr in (*states, *observables, r_mat, s_mat):
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0.5
    assert tomo._product_hermitian_design(2, 2)[2] is r_mat
    assert tomo._product_hermitian_design.cache_info().maxsize == tomo._DESIGN_CACHE_SIZE == 8
    # the site arguments are checked before the cache is looked up
    ch = preset_channel("identity", dim=4)
    for local_dim, n_sites in [(2.0, 2), (2, 2.0), (2, True)]:
        with pytest.raises(ValueError, match="must be an integer"):
            full_sqpt(ch, EXACT, "product-hermitian", local_dim=local_dim, n_sites=n_sites)


def _count_channel_applications(monkeypatch) -> list[int]:
    # measurement applies the channel to an input ket through _output_state
    calls = [0]
    original = measure._output_state

    def counted(channel, psi):
        calls[0] += 1
        return original(channel, psi)

    monkeypatch.setattr(measure, "_output_state", counted)
    return calls


@pytest.mark.parametrize("strategy, tp_shortcut", [
    ("choi-four", False), ("choi-four", True), ("product-hermitian", False),
])
@pytest.mark.parametrize("config", [EXACT, BackendConfig("sampled", 100, 1)],
                         ids=["exact", "sampled"])
def test_full_channel_application_budget(monkeypatch, strategy, tp_shortcut, config):
    # one channel application per input state: D^2, not one per table cell
    calls = _count_channel_applications(monkeypatch)
    full_sqpt(preset_channel("random-cptp", [78, 2], 3), config, strategy, tp_shortcut)
    assert calls[0] == 3**2


@pytest.mark.parametrize("target, settings, applications", [
    ((1, 2, 1, 2), 1, 1),    # diagonal
    ((0, 2, 1, 2), 4, 1),    # input |2><2| diagonal, four observables
    ((1, 0, 1, 2), 4, 4),    # observable |1><1| diagonal, four inputs
    ((0, 1, 2, 0), 16, 4),   # four inputs x four observables
])
@pytest.mark.parametrize("config", [EXACT, BackendConfig("sampled", 100, 1)],
                         ids=["exact", "sampled"])
def test_element_channel_application_budget(monkeypatch, target, settings,
                                            applications, config):
    calls = _count_channel_applications(monkeypatch)
    plan = plan_element(*target, 3)
    est = reconstruct_element(plan, preset_channel("random-cptp", [79, 2], 3), config)
    assert plan.settings_count == est.settings_used == settings
    assert calls[0] == applications


# (strategy, tp_shortcut) cases whose reported std_errors are calibrated
CALIBRATION_CASES = [
    ("choi-four", False), ("choi-four", True), ("product-hermitian", False),
]


def test_full_sampled_std_errors_are_calibrated():
    # Over N seeds the empirical spread of each chi entry is compared with
    # the RMS of its reported std_error.  A sample std from N draws has a
    # relative error of about 1/sqrt(2N); the band is that times the normal
    # quantile for a two-sided 1% family-wise level over every compared
    # entry (Bonferroni).  Trials reporting sigma = 0 stay in the RMS.
    n_trials, shots, dim = 200, 2000, 2
    ch = preset_channel("random-cptp", [3], dim)
    n_compared = len(CALIBRATION_CASES) * dim**4
    z = NormalDist().inv_cdf(1 - 0.01 / (2 * n_compared))
    band = z / np.sqrt(2 * n_trials)
    report = []
    for strategy, tp_shortcut in CALIBRATION_CASES:
        runs = [
            full_sqpt(ch, BackendConfig("sampled", shots, seed), strategy, tp_shortcut)
            for seed in range(n_trials)
        ]
        chis = np.array([r.chi for r in runs])
        errs = np.array([r.std_errors for r in runs])
        empirical = np.sqrt(
            np.sum(np.abs(chis - chis.mean(axis=0)) ** 2, axis=0) / (n_trials - 1)
        )
        ratio = np.sqrt(np.mean(errs**2, axis=0)) / empirical
        sigma_zero = int(np.sum(errs == 0.0))
        report.append((strategy, tp_shortcut, round(float(ratio.min()), 3),
                       round(float(ratio.max()), 3), sigma_zero))
    print(f"calibration band 1 +- {band:.3f}; (strategy, tp_shortcut, "
          f"min ratio, max ratio, sigma=0 count): {report}")
    for strategy, tp_shortcut, low, high, _ in report:
        assert 1 - band <= low and high <= 1 + band, (strategy, tp_shortcut, low, high)


def test_full_sampled_tracks_uncertainty():
    ch = preset_channel("random-cptp", [74, 2], 2)
    cfg = BackendConfig("sampled", 10**5, 21)
    result = full_sqpt(ch, cfg)
    chi = chi_oracle(ch)
    err = np.abs(result.chi - chi)
    assert np.all(err <= 6 * result.std_errors + 1e-9)


# --- qudit index utilities -------------------------------------------------------


def test_compose_two_qubits():
    assert QuditIndexMap(2, 2).compose((1, 0)) == 2


def test_decompose_base_three():
    assert QuditIndexMap(3, 3).decompose(17) == (1, 2, 2)


def test_index_round_trip():
    index_map = QuditIndexMap(3, 2)
    for a in range(8):
        assert index_map.compose(index_map.decompose(a)) == a


def test_index_validation():
    index_map = QuditIndexMap(2, 3)
    with pytest.raises(ValueError, match="range"):
        index_map.decompose(9)
    with pytest.raises(ValueError, match="digit"):
        index_map.compose((3, 0))
    with pytest.raises(ValueError, match="digits"):
        index_map.compose((1,))
    # non-integers are refused, not truncated
    with pytest.raises(ValueError, match="digit must be an integer"):
        QuditIndexMap(2, 2).compose([1.7, 0.2])
    with pytest.raises(ValueError, match="index must be an integer"):
        QuditIndexMap(2, 2).decompose(2.5)
    for n_sites, local_dim in [(2.0, 2), (2, 2.5), (True, 2)]:
        with pytest.raises(ValueError, match="must be an integer"):
            QuditIndexMap(n_sites, local_dim)
    assert index_map.compose(np.array([2, 1])) == 7
    assert index_map.decompose(np.int64(7)) == (2, 1)


def test_ghz_profile_full_entanglement():
    profile = ghz_profile(0, 7, QuditIndexMap(3, 2))
    assert profile.m == 3
    assert profile.differing_sites == (0, 1, 2)
    np.testing.assert_allclose(
        profile.ghz_plus,
        np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2),
        atol=1e-15,
    )
    assert profile.max_residual < 1e-12


def test_ghz_profile_equal_indices():
    profile = ghz_profile(3, 3, QuditIndexMap(3, 2))
    assert profile.m == 0
    assert profile.differing_sites == ()
    assert profile.max_residual == 0.0


def test_ghz_profile_single_site_difference():
    profile = ghz_profile(0, 1, QuditIndexMap(2, 2))
    assert profile.m == 1
    assert profile.differing_sites == (1,)
    np.testing.assert_allclose(profile.ghz_plus, [1, 1] / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(profile.product_part, [1, 0], atol=1e-15)
    assert profile.max_residual < 1e-12


@pytest.mark.parametrize("n,d", [(3, 2), (2, 3)])
def test_ghz_profile_factorization_exhaustive(n, d):
    index_map = QuditIndexMap(n, d)
    for a in range(d**n):
        for b in range(d**n):
            assert ghz_profile(a, b, index_map).max_residual < 1e-12


# --- chi JSON --------------------------------------------------------------------


def test_chi_json_round_trip():
    chi = chi_oracle(preset_channel("random-cptp", [90, 2], 3))
    doc = chi_to_json(chi)
    loaded, convention = chi_from_json(doc)
    assert convention == "choi-row-ef"
    np.testing.assert_allclose(loaded, chi, atol=1e-15)


def test_chi_json_validation():
    with pytest.raises(ValueError, match="convention"):
        chi_from_json({"dim": 2, "convention": "mystery", "entries": [[0, 0]] * 16})
    with pytest.raises(ValueError, match="entries"):
        chi_from_json({"dim": 2, "convention": "choi-row-ef", "entries": [[0, 0]] * 15})
    with pytest.raises(ValueError, match="dim"):
        chi_from_json({"dim": 1.5, "convention": "choi-row-ef", "entries": []})
    for bad in (None, "1.0", True, [1.0], 1j):
        with pytest.raises(ValueError, match="pair"):
            chi_from_json({"dim": 2, "convention": "choi-row-ef",
                           "entries": [[0, 0]] * 15 + [[0.0, bad]]})
