import copy
import gc
import hashlib
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import types
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from choi_sqpt import (
    BackendConfig,
    MeasurementPlan,
    PhysicalityError,
    PureStateExpansion,
    QuantumChannel,
    QuditIndexMap,
    SqptResult,
    apply_channel,
    basis_state,
    beta_entry,
    beta_permutation,
    channel_to_json,
    chi_from_json,
    chi_from_lambda,
    chi_index,
    chi_oracle,
    chi_to_json,
    choi_op,
    expand_choi_four,
    full_sqpt,
    ghz_profile,
    kron_channel,
    lambda_from_chi,
    lambda_index,
    lambda_oracle,
    measure_table,
    plan_element,
    preset_channel,
    reconstruct_element,
    save_channel,
    validate_cptp,
)
from choi_sqpt import basis, channels, measure, tomo

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
        assert (plan.inputs.target, plan.observables.target) == ((a, b), (d, c))
        for unit, (x, y) in [(plan.inputs, (a, b)), (plan.observables, (d, c))]:
            assert np.max(np.abs(unit.reconstruct() - choi_op(x, y, dim))) <= 1e-12


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
    np.testing.assert_allclose(psi, [1, 0], atol=1e-15)
    assert phi.ndim == 1  # a projector
    np.testing.assert_allclose(phi, [1, 0], atol=1e-15)


def test_plan_generic_sixteen_settings():
    plan = plan_element(0, 0, 1, 1, 2)
    assert plan.settings_count == 16
    code = measure._canon_complex
    keys = [measure._setting_key(2, code(psi), True, code(phi))
            for psi in plan.inputs.states for phi in plan.observables.states]
    inputs = {key.split(b";")[1] for key in keys}
    observables = {key.split(b";")[2] for key in keys}
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
    # the dimension is named before any index is checked against it
    for dim in (0, -2):
        with pytest.raises(ValueError, match=f"dim must be positive, got {dim}"):
            plan_element(0, 0, 0, 0, dim)
    assert plan_element(0, 0, 0, 0, 1).settings_count == 1
    # a target that is not four indices is refused by name, not indexed
    for relabel in (lambda_index, chi_index):
        for target in [(0, 1), (0, 1, 2, 3, 4), 5, None, {0: 1}]:
            with pytest.raises(ValueError, match="^target must be four indices"):
                relabel(target)


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


def test_sqpt_result_holds_its_arrays_read_only():
    # read-only arrays that own their data and have the field's dtype are kept, not copied
    chi, err = np.eye(4, dtype=complex), np.zeros((4, 4))
    for x in (chi, err):
        x.setflags(write=False)
    result = SqptResult(chi, err, "choi-four", 16, 16, 0)
    assert result.chi is chi and result.std_errors is err
    # a caller's writable array, a view of a writable base and other dtypes are copied
    base = np.zeros((8, 8), dtype=complex)
    view, ints = base[:4, :4], np.eye(4, dtype=int)
    copied = SqptResult(view, ints, "choi-four", 16, 16, 0)
    assert copied.chi is not view and copied.std_errors.dtype == float
    assert view.flags.writeable and ints.flags.writeable
    base[0, 0] = 5
    assert copied.chi[0, 0] == 0 and copied.std_errors[0, 0] == 1
    assert not copied.chi.flags.writeable and not copied.std_errors.flags.writeable
    full = full_sqpt(preset_channel("random-cptp", [74, 2], 2), EXACT)
    assert full.chi.flags.owndata and full.std_errors.flags.owndata
    with pytest.raises(ValueError, match="read-only"):
        full.chi[0, 0] = 0


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
    # the site arguments' own bounds come before the product rule
    depolarizing = preset_channel("depolarizing", [0.1], 4)
    with pytest.raises(ValueError, match="^local_dim must be at least 2, got -2$"):
        full_sqpt(depolarizing, EXACT, strategy="product-hermitian", local_dim=-2, n_sites=2)
    with pytest.raises(ValueError, match="^n_sites must be positive, got 0$"):
        full_sqpt(preset_channel("identity", dim=1), EXACT, strategy="product-hermitian",
                  local_dim=3, n_sites=0)


@pytest.mark.parametrize("shape", [(0, 0), (3, 3)])
@pytest.mark.parametrize("convert, name", [(chi_from_lambda, "lambda"), (lambda_from_chi, "chi"),
                                           (chi_to_json, "chi")],
                         ids=["chi_from_lambda", "lambda_from_chi", "chi_to_json"])
def test_a_matrix_that_is_not_d2_by_d2_is_refused(convert, name, shape):
    # one rule, D >= 1: a 0 x 0 matrix would write a "dim": 0 chi_from_json refuses
    with pytest.raises(ValueError, match=rf"^{name} must be D\^2 x D\^2 for a D >= 1, got shape"):
        convert(np.zeros(shape))


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


@pytest.mark.parametrize("config", [
    EXACT, BackendConfig("sampled", 100, 2**32 + 9), BackendConfig("sampled", 1, 2**40 + 3),
], ids=["exact", "sampled-100", "sampled-1"])
@pytest.mark.parametrize("name, params, dim", [
    ("identity", [], 2), ("identity", [], 3), ("bit-flip", [0.0], 2),
    ("amplitude-damping", [1.0], 2), ("phase-flip", [0.5], 2), ("depolarizing", [1.0], 3),
])
def test_lone_elements_give_their_full_entries_bytes_on_exact_zeros_and_ones(
    monkeypatch, name, params, dim, config
):
    # cells of exactly 0 or 1 (and at one shot every sampled cell) make terms that
    # cancel to a zero of either sign and errors that are all zero; bytes, not ==,
    # tell -0.0 from 0.0.  A lone element adds its terms without _combine
    ch = preset_channel(name, params, dim)
    combines = _count_calls(monkeypatch, tomo, "_combine")
    result = full_sqpt(ch, config)
    assert combines[0] == 1
    for e, f, g, h in _all_targets(dim):
        est = reconstruct_element(plan_element(e, f, g, h, dim), ch, config)
        at = (e * dim + f, g * dim + h)
        assert np.complex128(est.value).tobytes() == result.chi[at].tobytes(), (e, f, g, h)
        assert np.float64(est.std_error).tobytes() == result.std_errors[at].tobytes()
    assert combines[0] == 1


def _combine_reference(values, errs, row, col) -> tuple[complex, float]:
    # the per-entry term loop _combine replaced: Python's sum from 0,
    # input-outer, every standard error squared as a float by e * e
    terms = [(np.complex128(r * s), values[i, j], float(errs[i, j]))
             for i, r in zip(*row) for j, s in zip(*col)]
    value = complex(sum(w * v for w, v, _ in terms))
    variance = float(sum(abs(w) ** 2 * (e * e) for w, _, e in terms))
    return value, variance


def test_combine_matches_the_per_term_sum(monkeypatch):
    # every (input, observable) pair of D = 3 expansions, with and without
    # the shortcut's substitution, over a sampled-like table whose errors
    # include 10^4-shot values that libm pow and x * x square differently; as
    # one grid, as the grid whose variance is read through the substitution
    # (wider than its values), as every pair's 1 x 1 grid (of 1, 4 or 16 terms,
    # and up to 20 substituted), in one block and in one-unit
    # blocks.  A third table mixes magnitudes near 1e16 and 1, where numpy's
    # pairwise sum (of 8 terms or more along a contiguous axis) and the left to
    # right sum give other bits, for values and for variances alike.  A lone
    # element adds the same terms in floats: each pair's 1 x 1 grid bytes, also
    # over a table of -0.0 cells (an exact read's real part can be one), where
    # only the sum from +0.0 decides the sign
    dim, shots = 3, 10**4
    rng = np.random.default_rng(5)
    values = rng.integers(0, shots + 1, (9, 9)) / shots
    errs = np.sqrt(values * (1.0 - values) / shots)
    errs[:, :3] = [0.0016439939172636863, 0.0032809253267942567, 0.0033542116808573668]
    scales = rng.choice([1.0, 1e16], (2, 9, 9))
    mixed = rng.uniform(-1.5, 1.5, (9, 9)) * scales[0], rng.uniform(0.5, 1.5, (9, 9)) * scales[1]
    units = [expand_choi_four(a, b, dim) for a, b in np.ndindex(dim, dim)]
    rows = [(list(rng.permutation(9)[: len(u.weights)]), u.weights) for u in units]
    substituted = [tomo._inferred_substituted(*row, 2, [0, 1]) for row in rows]
    cols = rows + substituted
    # (input units, observable units, the units the variance is read through)
    grids = [(rows, cols, cols), (rows, rows, substituted)]
    grids += [([row], [col], [col]) for row in rows for col in cols]
    grids += [([row], [col], [var]) for row in rows for col, var in zip(rows, substituted)]
    pairwise_differs = [False, False]
    for table in ((values, errs), (values, np.zeros_like(errs)), mixed):
        for block_entries in (channels._BLOCK_ENTRIES, 1):
            monkeypatch.setattr(channels, "_BLOCK_ENTRIES", block_entries)
            for grid in grids:
                lam, var = tomo._combine(*table, *(tomo._padded(side) for side in grid))
                assert lam.shape == var.shape == (len(grid[0]), len(grid[1]))
                for x, y in np.ndindex(lam.shape):
                    value = _combine_reference(*table, grid[0][x], grid[1][y])[0]
                    variance = _combine_reference(*table, grid[0][x], grid[2][y])[1]
                    assert lam[x, y] == value and var[x, y] == variance, (x, y)
                assert not np.signbit(var).any()
        if table is mixed:  # the same terms summed pairwise, over a contiguous axis
            for (i, r), (j, s) in itertools.product(rows, cols):
                terms = [(r_p * s_q, table[0][i_p, j_q], table[1][i_p, j_q])
                         for i_p, r_p in zip(i, r) for j_q, s_q in zip(j, s)]
                value, variance = _combine_reference(*table, (i, r), (j, s))
                pairwise = [np.add.reduce(np.array([w * v for w, v, _ in terms])),
                            np.add.reduce(np.array([abs(w) ** 2 * (e * e) for w, _, e in terms]))]
                pairwise_differs[0] |= pairwise[0] != value
                pairwise_differs[1] |= pairwise[1] != variance
    assert pairwise_differs == [True, True]
    ch, zeros = preset_channel("identity", dim=dim), np.zeros_like(errs)
    for table in ((values, errs), (values, zeros), mixed, (-zeros, zeros)):
        for (x, row), (y, col) in itertools.product(enumerate(rows), repeat=2):
            read = tuple(t[np.ix_(row[0], col[0])] for t in table)
            monkeypatch.setattr(tomo, "_read_table", lambda *_, keep, read=read: read)
            target = chi_index((*units[x].target, *reversed(units[y].target)))
            est = reconstruct_element(MeasurementPlan(dim, target, units[x], units[y]), ch, EXACT)
            lam, var = tomo._combine(*table, *(tomo._padded([side]) for side in (row, col, col)))
            assert np.complex128(est.value).tobytes() == lam.tobytes(), (x, y)
            assert np.float64(est.std_error).tobytes() == np.sqrt(var).tobytes(), (x, y)


@pytest.mark.parametrize("config", [EXACT, BackendConfig("sampled", 10**4, 2**32 + 7)],
                         ids=["exact", "sampled"])
@pytest.mark.parametrize("dim", [3, 4])
def test_choi_four_set_matches_lone_elements(monkeypatch, dim, config):
    # one table for a mixed set: the grid of its distinct input units x its
    # distinct observable units, each target read out of it is its lone
    # element's estimate, and the table is the union of input kets x the
    # union of observable kets
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
    # expansions are cached, so a unit is one object
    inputs = list(dict.fromkeys(p.inputs for p in plans))
    observables = list(dict.fromkeys(p.observables for p in plans))
    tables = []
    read = tomo._read_table

    def recorded(channel, table, cfg, keep=False):
        tables.append((len(table.rows.kets), len(table.cols.proj) + len(table.cols.herm)))
        return read(channel, table, cfg, keep)

    monkeypatch.setattr(tomo, "_read_table", recorded)
    ch = preset_channel("random-cptp", [17, 3], dim)
    table, sides, _, _ = tomo._design(inputs, observables, False)
    grid = tomo._choi_four(ch, config, table, sides)
    assert grid[0].shape == grid[1].shape == (len(inputs), len(observables))
    # each target's entry: its input unit's row, its observable unit's column
    at = [inputs.index(p.inputs) for p in plans], [observables.index(p.observables) for p in plans]
    lam, var = (x[at] for x in grid)

    def union(expansions):
        return len({ket.tobytes() for u in expansions for ket in u.states})

    assert tables == [(union(p.inputs for p in plans), union(p.observables for p in plans))]
    assert tables[0][0] * tables[0][1] < dim**4
    for t, plan in enumerate(plans):
        est = reconstruct_element(plan, ch, config)
        assert lam[t] == est.value and float(np.sqrt(var[t])) == est.std_error, targets[t]
    if config.mode == "sampled":
        assert np.all(var > 0)


@pytest.mark.parametrize("block_terms", [1, 4 * 9 * 4 * 4], ids=["unit", "uneven"])
@pytest.mark.parametrize("tp_shortcut", [False, True])
@pytest.mark.parametrize("config", [EXACT, BackendConfig("sampled", 1000, 3)],
                         ids=["exact", "sampled"])
def test_combine_blocks_give_the_same_bytes(monkeypatch, config, tp_shortcut, block_terms):
    # D = 3 has 9 input units of 9 x 4 x 4 terms each: blocks of one unit,
    # or of 4, 4 and 1 units, give the one-block bytes in one _combine call
    ch = preset_channel("random-cptp", [91, 2], 3)
    monkeypatch.setattr(channels, "_BLOCK_ENTRIES", 9 * 9 * 4 * 4)
    whole = full_sqpt(ch, config, "choi-four", tp_shortcut)
    combines = _count_calls(monkeypatch, tomo, "_combine")
    monkeypatch.setattr(channels, "_BLOCK_ENTRIES", block_terms)
    blocked = full_sqpt(ch, config, "choi-four", tp_shortcut)
    assert combines[0] == 1
    assert blocked.chi.tobytes() == whole.chi.tobytes()
    assert blocked.std_errors.tobytes() == whole.std_errors.tobytes()


def test_full_choi_four_in_two_blocks_matches_lone_elements(monkeypatch):
    # at D = 8 a block of 32 units' terms holds half of the 64 input units
    # |f><h|; the targets cover both blocks, diagonal and off-diagonal units
    dim = 8
    monkeypatch.setattr(channels, "_BLOCK_ENTRIES", dim**2 // 2 * dim**2 * 4 * 4)
    blocks = _recorded_blocks(monkeypatch)
    ch = preset_channel("random-cptp", [92, 2], dim)
    result = full_sqpt(ch, EXACT)
    assert blocks == [slice(0, 32), slice(32, 64)]
    targets = list(itertools.product((0, 7), (0, 3, 4, 7), (0, 6), (0, 2, 5, 7)))
    assert len(targets) == 64
    for e, f, g, h in targets:
        est = reconstruct_element(plan_element(e, f, g, h, dim), ch, EXACT)
        assert result.chi[e * dim + f, g * dim + h] == est.value, (e, f, g, h)
        assert result.std_errors[e * dim + f, g * dim + h] == est.std_error == 0.0


def _recorded_blocks(monkeypatch) -> list[slice]:
    # every block _combine reads
    blocks = []

    def recorded(n, entries_per_item):
        found = list(channels._blocks(n, entries_per_item))
        blocks.extend(found)
        return found

    monkeypatch.setattr(tomo, "_blocks", recorded)
    return blocks


def _count_calls(monkeypatch, owner, name) -> list[int]:
    calls = [0]
    original = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _count_stream_keys(monkeypatch) -> tuple[list[int], list[int]]:
    # (stream keys hashed, vector encodings): a table's digests hash one key
    # per cell in measure._hash_keys, from the measure._canon_complex encodings
    # of its two vectors (test_cell_streams_draw_as_default_rng checks each
    # cell's digest against its whole measure._setting_key)
    keys = [0]
    original = measure._hash_keys

    def counted(cells):
        cells = list(cells)
        keys[0] += len(cells)
        return original(cells)

    monkeypatch.setattr(measure, "_hash_keys", counted)
    return keys, _count_calls(monkeypatch, measure, "_canon_complex")


@pytest.mark.parametrize("strategy, tp_shortcut", [
    ("choi-four", False), ("choi-four", True), ("product-hermitian", False),
])
def test_full_canonical_key_budget(monkeypatch, strategy, tp_shortcut):
    # full reconstruction plans no element.  Its design encodes each input
    # state and each observable once, and hashes one key per measured cell,
    # for its random stream, on its first sampled run at a dimension; a warm
    # repeat hashes none, and the exact backend none
    def no_plans(*args):
        raise AssertionError("full_sqpt must not plan single elements")

    monkeypatch.setattr(tomo, "plan_element", no_plans)
    _clear_designs()
    calls, encodings = _count_stream_keys(monkeypatch)
    ch = preset_channel("random-cptp", [76, 2], 3)
    sampled = BackendConfig("sampled", 100, 1)
    n_observables = 3**2 - 1 if tp_shortcut else 3**2
    result = full_sqpt(ch, sampled, strategy, tp_shortcut)
    assert calls[0] == result.settings_measured
    assert encodings[0] == 3**2 + n_observables
    full_sqpt(ch, sampled, strategy, tp_shortcut)
    full_sqpt(ch, BackendConfig("sampled", 100, 2), strategy, tp_shortcut)
    full_sqpt(ch, EXACT, strategy, tp_shortcut)
    assert calls[0] == result.settings_measured
    assert encodings[0] == 3**2 + n_observables


def test_element_canonical_key_budget(monkeypatch):
    # planning builds no key.  A lone element's expansion tables encode each
    # ket once, for rows and columns alike, on the first request that reads
    # them; a request whose every cell's stream a lone element derived under
    # its master seed hashes no key, one that misses a cell hashes its table's
    # digests, one key per cell, from its rows' cached prefix states and its
    # columns' cached tails, and a new master seed derives every stream again
    _clear_designs()
    _clear_streams(monkeypatch)
    calls, encodings = _count_stream_keys(monkeypatch)
    for target in _all_targets(3):
        plan_element(*target, 3)
    assert calls[0] == 0
    plan = plan_element(0, 1, 2, 0, 3)
    assert plan.settings_count == 16
    ch = preset_channel("random-cptp", [77, 2], 3)
    sampled = BackendConfig("sampled", 100, 1)
    reconstruct_element(plan, ch, sampled)
    assert calls[0] == plan.settings_count
    assert encodings[0] == len(plan.inputs.states) + len(plan.observables.states) == 8
    reconstruct_element(plan, ch, sampled)
    assert calls[0] == plan.settings_count
    # elements whose every setting (input ket, observable ket) plan read: 4 and 1 settings
    settings = set(itertools.product(*(_ket_bytes(x) for x in (plan.inputs, plan.observables))))
    for target in [(2, 1, 2, 0), (2, 1, 2, 1)]:
        other = plan_element(*target, 3)
        assert {*itertools.product(_ket_bytes(other.inputs), _ket_bytes(other.observables))} < settings
        reconstruct_element(other, ch, sampled)
    assert calls[0] == plan.settings_count
    reconstruct_element(plan, ch, BackendConfig("sampled", 100, 2))
    assert calls[0] == 2 * plan.settings_count
    assert encodings[0] == 8


@pytest.mark.parametrize("config", [EXACT, BackendConfig("sampled", 100, 1)],
                         ids=["exact", "sampled"])
def test_a_warm_element_checks_no_ket(monkeypatch, config):
    # an expansion's kets are checked when its table is built, not per request
    ch = preset_channel("random-cptp", [79, 2], 3)
    plan = plan_element(0, 1, 2, 0, 3)
    reconstruct_element(plan, ch, config)
    checks = [_count_calls(monkeypatch, module, "_unit_vector") for module in (basis, measure)]
    reconstruct_element(plan, ch, config)
    assert [c[0] for c in checks] == [0, 0]


def _phased(expansion, phases):
    # the same projectors, so the same identity, from kets with other phases
    states = [np.exp(1j * p) * s for p, s in zip(phases, expansion.states)]
    return PureStateExpansion(expansion.weights, states, expansion.target)


@pytest.mark.parametrize("config", [EXACT, BackendConfig("sampled", 1000, 5)],
                         ids=["exact", "sampled"])
def test_a_hand_built_plan_reads_its_own_kets(config):
    ch = preset_channel("random-cptp", [86, 2], 3)
    canonical = plan_element(0, 1, 2, 0, 3)
    reconstruct_element(canonical, ch, config)
    inputs = _phased(canonical.inputs, [0.5, 1.0, 1.5, 2.0])
    observables = _phased(canonical.observables, [-0.5, 0.25, 3.0, -1.0])
    plan = MeasurementPlan(3, canonical.target, inputs, observables)
    est = reconstruct_element(plan, ch, config)
    # the reference: the plan's own kets read as one table, its weights added
    # input-outer, left to right
    values, errs = measure_table(ch, inputs.states, observables.states, config)
    value = sum(w * values.flat[idx] for w, idx in plan.terms)
    var = sum(abs(w) ** 2 * errs.flat[idx] ** 2 for w, idx in plan.terms)
    assert est.value == complex(value) and est.std_error == float(np.sqrt(var))
    if config.mode == "sampled":
        assert est.value != reconstruct_element(canonical, ch, config).value


@pytest.mark.parametrize("config", [EXACT, BackendConfig("sampled", 100, 1)],
                         ids=["exact", "sampled"])
def test_a_plan_whose_expansions_differ_in_dimension_is_refused(monkeypatch, config):
    # from each other or from the plan's dim when it is built, and from the
    # channel before the channel is applied; so is a plan whose target is not
    # its expansions' element, which used to read the element (0, 0, 1, 1)
    # under the label (0, 0, 0, 0)
    cases = [
        (3, (0, 1, 2, 0), (1, 0, 3), (2, 0, 4), "^observables kets must have length dim = 3$"),
        (3, (0, 1, 2, 0), (1, 0, 4), (2, 0, 3), "^inputs kets must have length dim = 3$"),
        (3, (0, 1, 2, 0), (1, 0, 4), (2, 0, 4), "^inputs kets must have length dim = 3$"),
        (3, (9, 9, 9, 9), (0, 0, 2), (0, 0, 2), "^inputs kets must have length dim = 3$"),
        (0, (0, 0, 0, 0), (0, 0, 2), (0, 0, 2), "^dim must be positive, got 0$"),
        (2.0, (0, 0, 0, 0), (0, 0, 2), (0, 0, 2), "^dim must be an integer, got 2.0$"),
        (2, (0, 0, 0, 0), (0, 1, 2), (1, 0, 2),
         re.escape("target (0, 0, 0, 0) differs from the expansions' (0, 0, 1, 1)")),
        (3, (0, 1, 2, 0), (1, 0, 3), (0, 2, 3), "differs from the expansions' "),
        (3, (0, 1), (1, 0, 3), (2, 0, 3), "^target must be four indices"),
        # the expansions of plan_element(1, 0, 0, 1, 2), under targets of equal value
        (2, (True, 0, 0, 1.0), (0, 1, 2), (0, 1, 2),
         re.escape("target must be four integers, got (True, 0, 0, 1.0)")),
        (2, (1, 0, 0, 1.0), (0, 1, 2), (0, 1, 2), r"^target must be four integers, got \("),
        (2, ("1", 0, 0, 1), (0, 1, 2), (0, 1, 2), r"^target must be four integers, got \("),
        (2, [1, 0, 0, True], (0, 1, 2), (0, 1, 2), r"^target must be four integers, got \["),
    ]
    for dim, target, inputs, observables, message in cases:
        with pytest.raises(ValueError, match=message):
            MeasurementPlan(dim, target, expand_choi_four(*inputs), expand_choi_four(*observables))
    # a list or numpy integers are kept as a tuple of Python ints
    for target in ([1, 0, 0, 1], np.array([1, 0, 0, 1])):
        plan = MeasurementPlan(2, target, expand_choi_four(0, 1, 2), expand_choi_four(0, 1, 2))
        assert plan.target == (1, 0, 0, 1) and {type(idx) for idx in plan.target} == {int}
    plan = MeasurementPlan(4, (0, 1, 2, 0), expand_choi_four(1, 0, 4), expand_choi_four(2, 0, 4))
    ch = preset_channel("random-cptp", [87, 2], 3)
    applied = _count_calls(monkeypatch, measure, "_output_states")
    with pytest.raises(ValueError, match="^plan dimension 4 does not match channel dimension 3$"):
        reconstruct_element(plan, ch, config)
    assert applied == [0]


def test_a_plan_refuses_an_expansion_that_is_not_verified():
    # a look-alike would reach the tables with unchecked kets
    unit = expand_choi_four(1, 0, 3)
    fake = types.SimpleNamespace(weights=unit.weights, states=(np.ones(3),) * 4, target=(1, 0))
    for inputs, observables, name in [(fake, unit, "inputs"), (unit, fake, "observables")]:
        with pytest.raises(ValueError, match=f"^{name} must be a PureStateExpansion$"):
            MeasurementPlan(3, (0, 1, 2, 0), inputs, observables)


@pytest.mark.parametrize("bad", [None, "bit-flip", 2], ids=["None", "str", "int"])
def test_a_channel_config_or_plan_of_another_type_is_refused_by_name(monkeypatch, tmp_path, bad):
    # each used to end in AttributeError ('NoneType' object has no attribute 'dim'
    # or 'mode'); the refusal comes before any read, so no table is read and
    # save_channel opens no file
    reads = [_count_calls(monkeypatch, owner, "_read_table") for owner in (tomo, measure)]
    ch, plan = preset_channel("bit-flip", [0.25]), plan_element(0, 1, 0, 1, 2)
    calls = [
        ("plan", lambda: reconstruct_element(bad, ch, EXACT)),
        ("channel", lambda: reconstruct_element(plan, bad, EXACT)),
        ("config", lambda: reconstruct_element(plan, ch, bad)),
        ("channel", lambda: full_sqpt(bad, EXACT)),
        ("channel", lambda: full_sqpt(bad, EXACT, tp_shortcut=True)),
        ("config", lambda: full_sqpt(ch, bad)),
        ("config", lambda: full_sqpt(ch, bad, "product-hermitian")),
        ("channel", lambda: measure_table(bad, [np.ones(2) / np.sqrt(2)], [np.eye(2)], EXACT)),
        ("config", lambda: measure_table(ch, [np.ones(2) / np.sqrt(2)], [np.eye(2)], bad)),
        ("channel", lambda: validate_cptp(bad)),
        ("channel", lambda: chi_oracle(bad)),
        ("channel", lambda: lambda_oracle(bad)),
        ("channel", lambda: apply_channel(bad, np.eye(2))),
        ("ch1", lambda: kron_channel(bad, ch)),
        ("ch2", lambda: kron_channel(ch, bad)),
        ("channel", lambda: channel_to_json(bad)),
        ("channel", lambda: save_channel(bad, tmp_path / "channel.json")),
        ("index_map", lambda: ghz_profile(0, 1, bad)),
    ]
    kinds = {"plan": "MeasurementPlan", "channel": "QuantumChannel", "ch1": "QuantumChannel",
             "ch2": "QuantumChannel", "config": "BackendConfig", "index_map": "QuditIndexMap"}
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^{name} must be a {kinds[name]}$"):
            call()
    assert reads == [[0], [0]]
    assert not (tmp_path / "channel.json").exists()


def test_unit_tables_are_read_only_and_bounded():
    # one side per live expansion: the cache holds no expansion alive
    assert isinstance(tomo._UNIT_SIDES, weakref.WeakKeyDictionary)
    unit = expand_choi_four(0, 1, 256)
    tomo._UNIT_SIDES.clear()
    gc.collect()
    tracemalloc.start()
    try:
        side = tomo._unit_side(unit)
        # the bras and the key parts are built by the first read that uses them
        assert not {"bras", "tails", "prefixes"} & vars(side).keys()
        assert side.bras.shape == (4, 1, 256) and len(side.tails) == len(side.prefixes) == 4
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one stacked copy of the four kets, their bras, one key tail and one
    # hashed key prefix per ket
    assert size <= 320 * 256 + 4096
    assert tomo._unit_side(unit) is side and len(tomo._UNIT_SIDES) == 1
    assert side.proj == (0, 1, 2, 3) and side.herm == ()
    assert list(side.tails) == [b"p:" + measure._canon_complex(s).encode() for s in unit.states]
    for prefix, ket in zip(side.prefixes, unit.states):
        key = measure._key_prefix(256, measure._canon_complex(ket))
        assert prefix.digest() == hashlib.sha256(key).digest()
    assert all(np.array_equal(row, ket) for row, ket in zip(side.kets[..., 0], unit.states))
    assert not any(a.flags.writeable for a in (side.kets, side.bras))


def test_a_unit_side_lives_as_long_as_its_expansion():
    # a hand-built expansion's side goes with it, not after 1,024 others
    ch = preset_channel("random-cptp", [88, 2], 3)
    canonical = plan_element(0, 1, 2, 0, 3)
    plan = MeasurementPlan(3, canonical.target, _phased(canonical.inputs, [0.5, 1.0, 1.5, 2.0]),
                           canonical.observables)
    reconstruct_element(plan, ch, EXACT)
    gc.collect()
    before = len(tomo._UNIT_SIDES)
    assert plan.inputs in tomo._UNIT_SIDES
    del plan
    gc.collect()
    assert len(tomo._UNIT_SIDES) == before - 1
    assert canonical.observables in tomo._UNIT_SIDES


@pytest.mark.parametrize("config", [EXACT, BackendConfig("sampled", 100, 1)],
                         ids=["exact", "sampled"])
def test_shortcut_run_combines_once(monkeypatch, config):
    # the inferred column is filled by one tp_complete call over the table,
    # and one _combine call reads the values and the substituted variances
    combines = _count_calls(monkeypatch, tomo, "_combine")
    completions = _count_calls(monkeypatch, tomo, "tp_complete")
    full_sqpt(preset_channel("random-cptp", [81, 2], 3), config, tp_shortcut=True)
    assert combines[0] == completions[0] == 1


@pytest.mark.parametrize("config", [EXACT, BackendConfig("sampled", 100, 1)],
                         ids=["exact", "sampled"])
def test_full_eigendecomposition_budget(monkeypatch, config):
    # the design eigendecomposes each Hermitian observable once, on its first
    # sampled read at a dimension, never on an exact one, per table or per cell
    _clear_designs()
    calls = _count_calls(monkeypatch, np.linalg, "eigh")
    budget = 3**2 if config.mode == "sampled" else 0
    full_sqpt(preset_channel("random-cptp", [80, 2], 3), config, "product-hermitian")
    assert calls[0] == budget
    full_sqpt(preset_channel("random-cptp", [81, 2], 3), config, "product-hermitian")
    assert calls[0] == budget


def _clear_designs():
    basis._choi_four_unit.cache_clear()
    tomo._UNIT_SIDES.clear()
    tomo._choi_four_design.cache_clear()
    tomo._product_hermitian_design.cache_clear()


def _ket_bytes(expansion) -> list[bytes]:
    return [ket.tobytes() for ket in expansion.states]


def _clear_streams(monkeypatch, cells=1 << 14):
    # no store of lone elements' stream states; the next master seed's starts with room for `cells`
    monkeypatch.setattr(measure, "_KEPT_STREAMS", cells)
    monkeypatch.setattr(measure, "_streams", (None, None))


def test_design_caches_give_the_same_bytes_cold_and_warm():
    ch = preset_channel("random-cptp", [81, 2], 3)
    sampled = BackendConfig("sampled", 1000, 7)

    def run(first, second) -> bytes:
        # every design is read on `first` before `second`; the bytes are in backend order
        out = {}
        for config in (first, second):
            parts = [full_sqpt(ch, config, strategy, tp_shortcut)
                     for strategy, tp_shortcut in CALIBRATION_CASES]
            ests = [reconstruct_element(plan_element(*target, 3), ch, config)
                    for target in ((0, 1, 2, 0), (0, 2, 1, 2), (1, 2, 1, 2))]
            out[config.mode] = b"".join(r.chi.tobytes() + r.std_errors.tobytes() for r in parts) \
                + repr([(est.value, est.std_error) for est in ests]).encode()
        return out["exact"] + out["sampled"]

    _clear_designs()
    cold = run(EXACT, sampled)
    assert run(EXACT, sampled) == cold
    _clear_designs()
    assert run(EXACT, sampled) == cold
    # and with every design's first read sampled
    _clear_designs()
    assert run(sampled, EXACT) == cold
    assert run(sampled, EXACT) == cold


@pytest.mark.parametrize("strategy, tp_shortcut, sites", [
    ("choi-four", False, None), ("choi-four", True, None),
    ("product-hermitian", False, None), ("product-hermitian", False, (2, 2)),
], ids=["choi-four", "choi-four-tp", "product-hermitian", "2x2-sites"])
def test_warm_digests_depend_on_neither_channel_nor_seed(strategy, tp_shortcut, sites):
    # a design warmed by one (channel, seed) gives a second (channel, seed)
    # the chi and sigma bytes that design gives it built cold
    dim, kwargs = (4, dict(zip(("local_dim", "n_sites"), sites))) if sites else (3, {})

    def run(channel_seed: int, seed: int) -> bytes:
        ch = preset_channel("random-cptp", [channel_seed, 2], dim)
        result = full_sqpt(ch, BackendConfig("sampled", 1000, seed), strategy, tp_shortcut,
                           **kwargs)
        return result.chi.tobytes() + result.std_errors.tobytes()

    design = tomo._choi_four_design if strategy == "choi-four" else tomo._product_hermitian_design
    key = (dim, tp_shortcut) if strategy == "choi-four" else sites or (dim, 1)
    _clear_designs()
    run(94, 3)
    assert "digests" in vars(design(*key)[0])
    warm = run(95, 2**40 + 7)
    _clear_designs()
    assert run(95, 2**40 + 7) == warm


def test_first_sampled_reads_of_an_exact_warm_design_agree_across_threads():
    # the sampled parts of a design built by exact runs are made by whichever
    # thread reads them first; racing threads get the sequential bytes
    ch = preset_channel("random-cptp", [86, 2], 3)
    sampled = BackendConfig("sampled", 1000, 9)
    _clear_designs()
    for strategy, tp_shortcut in CALIBRATION_CASES:
        full_sqpt(ch, EXACT, strategy, tp_shortcut)
    tables = [tomo._choi_four_design(3, False)[0], tomo._choi_four_design(3, True)[0],
              tomo._product_hermitian_design(3, 1)[0]]
    parts = [vars(part).keys() for table in tables for part in (table, table.rows, table.cols)]
    assert not any({"digests", "tails", "prefixes", "eigs"} & built for built in parts)

    def read(start: threading.Barrier) -> bytes:
        start.wait(timeout=30)
        parts = [full_sqpt(ch, sampled, strategy, tp_shortcut)
                 for strategy, tp_shortcut in CALIBRATION_CASES]
        return b"".join(r.chi.tobytes() + r.std_errors.tobytes() for r in parts)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            start = threading.Barrier(8)
            threaded = [pool.submit(read, start) for _ in range(8)]
            results = [future.result(timeout=60) for future in threaded]
    finally:
        sys.setswitchinterval(interval)
    assert results == [read(threading.Barrier(1))] * 8


@pytest.mark.parametrize("strategy", ["choi-four", "product-hermitian"])
def test_a_second_run_at_the_same_dimension_rebuilds_no_design(monkeypatch, strategy):
    # the expansions and weight solves depend only on D: a second channel at
    # the same D pays for its table and combine alone
    full_sqpt(preset_channel("random-cptp", [82, 2], 3), EXACT, strategy)
    expansions = _count_calls(monkeypatch, basis, "PureStateExpansion")
    solves = _count_calls(monkeypatch, np.linalg, "solve")
    second = preset_channel("random-cptp", [83, 2], 3)
    result = full_sqpt(second, EXACT, strategy)
    np.testing.assert_allclose(result.chi, chi_oracle(second), atol=1e-12)
    assert expansions[0] == 0 and solves[0] == 0
    _clear_designs()
    full_sqpt(second, EXACT, strategy)
    assert (expansions[0], solves[0]) == ((3**2, 0) if strategy == "choi-four" else (0, 2))


def _design_arrays(design) -> list[np.ndarray]:
    # every array a design holds, in its table and sides (the parts built so
    # far) and its other tuples
    found = []
    for part in design:
        if isinstance(part, np.ndarray):
            found.append(part)
        elif isinstance(part, tuple):
            found.extend(_design_arrays(part))
        elif isinstance(part, (measure._Table, measure._Side)):
            found.extend(_design_arrays(tuple(vars(part).values())))
    return found


def test_product_hermitian_design_is_read_only_and_bounded():
    table, r_mat, s_mat = tomo._product_hermitian_design(2, 2)
    rows, cols = table.rows, table.cols
    assert rows.kets.shape == (16, 4, 1) and rows.herm == ()
    assert cols.ops.shape == (16, 4, 4) and cols.proj == ()
    assert r_mat.shape == s_mat.shape == (16, 16)
    full_sqpt(preset_channel("random-cptp", [87, 2], 4), BackendConfig("sampled", 100, 1),
              "product-hermitian", local_dim=2, n_sites=2)
    # after a sampled read: per side its kets and ops, the columns' (empty) bras
    # and eigendecomposition's three arrays; the table's digests; R and S
    arrays = _design_arrays(tomo._product_hermitian_design(2, 2))
    assert len(arrays) == 2 * 2 + 4 + 1 + 2 and not any(arr.flags.writeable for arr in arrays)
    # 16 bytes a cell
    assert table.digests.dtype == np.uint32 and table.digests.shape == (16, 16, 4)
    with pytest.raises(ValueError, match="read-only"):
        cols.ops[0, 0, 0] = 0.5
    assert tomo._product_hermitian_design(2, 2)[1] is r_mat
    assert tomo._product_hermitian_design.cache_info().maxsize == tomo._DESIGN_CACHE_SIZE == 8
    # the site arguments are checked before the cache is looked up
    ch = preset_channel("identity", dim=4)
    for local_dim, n_sites in [(2.0, 2), (2, 2.0), (2, True)]:
        with pytest.raises(ValueError, match="must be an integer"):
            full_sqpt(ch, EXACT, "product-hermitian", local_dim=local_dim, n_sites=n_sites)


@pytest.mark.parametrize("tp_shortcut", [False, True])
@pytest.mark.parametrize("dim", [2, 3, 5])
def test_choi_four_design_is_read_only_and_bounded(dim, tp_shortcut):
    # O(D^2) entries in the sides: D^2 kets of D entries, and a D^2 x 4
    # (slots, weights) pair per side; the shortcut's variance side is
    # D^2 x (D + 1).  A sampled read adds the table's digests, 16 bytes a cell
    # of the D^2 x D^2 (D^2 - 1 columns under the shortcut) table
    design = tomo._choi_four_design(dim, tp_shortcut)
    table, (rows, cols, var_cols), last, partials = design
    row_side, col_side = table.rows, table.cols
    full_sqpt(preset_channel("random-cptp", [88, 2], dim), BackendConfig("sampled", 100, 1),
              tp_shortcut=tp_shortcut)
    n_cols = dim**2 - tp_shortcut
    assert row_side.kets.shape == (dim**2, dim, 1) and col_side.kets.shape == (n_cols, dim, 1)
    assert row_side.herm == col_side.herm == ()
    assert len(row_side.prefixes) == dim**2 and len(col_side.tails) == n_cols
    for side in (rows, cols):
        assert side[0].shape == side[1].shape == (dim**2, 4)
    if tp_shortcut:
        assert var_cols[0].shape == var_cols[1].shape == (dim**2, dim + 1)
        # the column of |D-1> is left out; partials are those of |0> .. |D-2>
        kets = np.insert(col_side.kets[..., 0], last, basis_state(dim - 1, dim), axis=0)
        for level, column in enumerate(partials):
            assert np.array_equal(kets[column], basis_state(level, dim))
    else:
        assert var_cols is cols and last is partials is None
    # after a sampled read: per table side its kets and ops, the columns'
    # bras (no Hermitian column, so no eigendecomposition), the table's
    # digests and the three grid sides' (slots, weights)
    arrays = _design_arrays(design)
    assert len(arrays) == 2 * 2 + 1 + 1 + 6 and not any(a.flags.writeable for a in arrays)
    assert table.digests.dtype == np.uint32 and table.digests.shape == (dim**2, n_cols, 4)
    with pytest.raises(ValueError, match="read-only"):
        rows[1][0, 0] = 0.5
    assert tomo._choi_four_design(dim, tp_shortcut) is design
    assert tomo._choi_four_design.cache_info().maxsize == tomo._DESIGN_CACHE_SIZE == 8


@pytest.mark.parametrize("strategy", ["choi-four", "product-hermitian"])
@pytest.mark.parametrize("config", [EXACT, BackendConfig("sampled", 100, 1)],
                         ids=["exact", "sampled"])
def test_a_warm_run_checks_no_design_vector(monkeypatch, strategy, config):
    # the design's kets and observables are checked when it is built, not per request
    ch = preset_channel("random-cptp", [84, 2], 3)
    full_sqpt(ch, config, strategy)
    checks = [_count_calls(monkeypatch, module, name)
              for module in (basis, measure) for name in ("_unit_vector", "_hermitian")]
    full_sqpt(ch, config, strategy)
    assert [c[0] for c in checks] == [0, 0, 0, 0]


@pytest.mark.parametrize("build, args", [
    ("_choi_four_design", (3, False)), ("_choi_four_design", (3, True)),
    ("_product_hermitian_design", (3, 1)), ("_product_hermitian_design", (2, 2)),
], ids=["choi-four", "choi-four-shortcut", "product-hermitian", "2x2-sites"])
def test_building_a_design_checks_no_vector_again(monkeypatch, build, args):
    # a design's kets and observables were verified by PureStateExpansion, or
    # built by input_state_set and sud_generators: its sides only stack them
    builder = getattr(tomo, build)
    for x, y in np.ndindex(3, 3):
        expand_choi_four(x, y, 3)  # verified once, in the unit cache
    builder.cache_clear()
    checks = [_count_calls(monkeypatch, module, name) for module, name in [
        (measure, "_checked_state"), (measure, "_checked_observable"),
        (measure, "_unit_vector"), (basis, "_unit_vector"),
    ]]
    builder(*args)
    assert builder.cache_info().currsize == 1
    assert [c[0] for c in checks] == [0] * len(checks)


def test_measure_table_still_checks_vectors_after_a_warm_design():
    # a design built for D = 2 does not let a caller's vectors skip their checks
    ch = preset_channel("identity", dim=2)
    full_sqpt(ch, EXACT)
    full_sqpt(ch, EXACT, "product-hermitian")
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    with pytest.raises(ValueError, match="input state must be a unit vector"):
        measure_table(ch, [np.array([1.0, 1.0])], [plus], EXACT)
    with pytest.raises(ValueError, match="observable must be Hermitian"):
        measure_table(ch, [plus], [np.array([[0, 1], [0, 0]], dtype=complex)], EXACT)


def test_importing_the_library_builds_no_design():
    code = (
        "import choi_sqpt\n"
        "from choi_sqpt import basis, tomo\n"
        "caches = (basis._choi_four_unit, tomo._choi_four_design,\n"
        "          tomo._product_hermitian_design)\n"
        "print([c.cache_info().currsize for c in caches] + [len(tomo._UNIT_SIDES)])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(tomo.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[0, 0, 0, 0]"


def test_an_exact_only_process_builds_no_sampled_part():
    # no stream key is encoded or hashed and no observable eigendecomposed
    # without a sampled read: no table holds digests and no side a key tail or
    # prefix; the cached designs hold kets, ops, a column's bras and weights
    code = textwrap.dedent(f"""
        import gc, tracemalloc
        import numpy as np
        from choi_sqpt import (BackendConfig, expand_choi_four, full_sqpt, plan_element,
                               preset_channel, reconstruct_element)
        from choi_sqpt import measure, tomo
        calls = []
        def counted(original):
            return lambda *args: calls.append(original) or original(*args)
        measure._canon_complex = counted(measure._canon_complex)
        measure._hash_keys = counted(measure._hash_keys)
        np.linalg.eigh = counted(np.linalg.eigh)
        exact = BackendConfig()
        for strategy, tp_shortcut in {CALIBRATION_CASES!r}:
            full_sqpt(preset_channel('random-cptp', [89, 2], 3), exact, strategy, tp_shortcut)
        full_sqpt(preset_channel('random-cptp', [89, 2], 4), exact, 'product-hermitian',
                  local_dim=2, n_sites=2)
        reconstruct_element(plan_element(0, 1, 2, 0, 3), preset_channel('random-cptp', [89, 2], 3),
                            exact)
        tables = [tomo._choi_four_design(3, False)[0], tomo._choi_four_design(3, True)[0],
                  tomo._product_hermitian_design(3, 1)[0], tomo._product_hermitian_design(2, 2)[0]]
        sides = [side for t in tables for side in (t.rows, t.cols)]
        sides += list(tomo._UNIT_SIDES.values())
        built = [name for part in tables + sides for name in ('digests', 'tails', 'prefixes')
                 if name in vars(part)]
        calls += built
        channel = preset_channel('random-cptp', [89, 2], 16)
        channel.kraus_stack()
        units = [expand_choi_four(x, y, 16) for x, y in np.ndindex(16, 16)]
        gc.collect()
        tracemalloc.start()
        tomo._choi_four_design(16, False)
        full_sqpt(channel, exact)
        gc.collect()
        choi_four = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        tracemalloc.start()
        tomo._product_hermitian_design(2, 4)
        print(len(calls), choi_four, tracemalloc.get_traced_memory()[0])
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(tomo.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    calls, choi_four, product_hermitian = map(int, out.stdout.split())
    assert calls == 0
    # the design and a D = 16 run's bras; the weight matrices R and S are 2 MB
    assert choi_four <= 0.35e6 and product_hermitian <= 3.5e6, (choi_four, product_hermitian)


def test_a_warm_full_choi_four_at_dimension_16_stays_under_8_mib():
    # the grid is combined in blocks of input units, so no D^4 x 16 array is
    # formed: the table, the grid and the result are O(D^4), about 4.6 MiB
    ch = preset_channel("random-cptp", [93, 4], 16)
    full_sqpt(ch, EXACT)
    gc.collect()
    tracemalloc.start()
    try:
        full_sqpt(ch, EXACT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def _count_channel_applications(monkeypatch) -> list[int]:
    # measurement applies the channel to input kets through _output_states;
    # each ket passed is one application
    calls = [0]
    original = measure._output_states

    def counted(channel, kets):
        calls[0] += len(kets)
        return original(channel, kets)

    monkeypatch.setattr(measure, "_output_states", counted)
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


def _element_bytes(channel, target, config) -> bytes:
    est = reconstruct_element(plan_element(*target, channel.dim), channel, config)
    return np.array([est.value]).tobytes() + np.array([est.std_error]).tobytes()


def _kept_entries(channel) -> int:
    # the complex entries a channel's kept states hold: filled rows of one read-only
    # array that owns its entries and has at most twice as many rows, so a kept
    # state pins no larger block
    store = measure._outputs[channel]
    assert store.rows.base is None and not store.rows.flags.writeable
    assert store.filled == len(store.index) and len(store.rows) <= 2 * store.filled
    return store.rows[: store.filled].size


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("config", [EXACT, BackendConfig("sampled", 100, 1)],
                         ids=["exact", "sampled"])
def test_a_warm_channel_gives_every_lone_element_its_cold_bytes(monkeypatch, dim, config):
    # every lone element read cold (on a channel of its own), then on one
    # channel in order and again shuffled: the same bytes, and the shuffled
    # pass applies the channel to no ket, each input ket's state being kept
    monkeypatch.setattr(measure, "_KEPT_ENTRIES", 1 << 16)
    ch = preset_channel("random-cptp", [dim + 90, 2], dim)
    targets = _all_targets(dim)
    cold = {t: _element_bytes(QuantumChannel(dim, ch.kraus), t, config) for t in targets}
    assert {t: _element_bytes(ch, t, config) for t in targets} == cold
    assert measure._outputs[ch].filled == dim**2 and _kept_entries(ch) == dim**4
    calls = _count_channel_applications(monkeypatch)
    random.Random(dim).shuffle(targets)
    assert {t: _element_bytes(ch, t, config) for t in targets} == cold
    assert calls[0] == 0


@pytest.mark.parametrize("room", [9, 5], ids=["every-ket", "five-kets"])
def test_lone_elements_racing_on_one_channel_get_their_cold_bytes(monkeypatch, room):
    # threads reading lone elements of one channel, each in its own order,
    # fill its kept states in any interleaving: each read gives the bytes of
    # a read that keeps nothing, and the channel keeps no more than its room
    dim, sampled = 3, BackendConfig("sampled", 1000, 9)
    ch = preset_channel("random-cptp", [86, 2], dim)
    targets = _all_targets(dim)

    def read(channel, order, start: threading.Barrier) -> dict:
        start.wait(timeout=30)
        return {(t, config.mode): _element_bytes(channel, t, config)
                for t in order for config in (EXACT, sampled)}

    monkeypatch.setattr(measure, "_KEPT_ENTRIES", 0)
    cold = read(QuantumChannel(dim, ch.kraus), targets, threading.Barrier(1))
    monkeypatch.setattr(measure, "_KEPT_ENTRIES", room * dim**2)
    orders = [random.Random(k).sample(targets, len(targets)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            start = threading.Barrier(8)
            threaded = [pool.submit(read, ch, order, start) for order in orders]
            results = [future.result(timeout=60) for future in threaded]
    finally:
        sys.setswitchinterval(interval)
    assert results == [cold] * 8
    assert measure._outputs[ch].filled == room and _kept_entries(ch) == room * dim**2


@pytest.mark.parametrize("dim", [2, 3])
def test_kept_streams_give_every_sampled_element_its_cold_bytes(monkeypatch, dim):
    # every sampled lone element read with no stream kept, then under two master
    # seeds taking turns, in order and again shuffled, each turn starting a new
    # store: the same bytes.  Under one seed a second, shuffled pass hashes no key
    ch = preset_channel("random-cptp", [dim + 100, 2], dim)
    configs = [BackendConfig("sampled", 1000, seed) for seed in (3, 2**40 + 5)]
    targets = _all_targets(dim)

    def read(order) -> dict:
        return {(t, c.master_seed): _element_bytes(ch, t, c) for t in order for c in configs}

    _clear_streams(monkeypatch, 0)
    cold = read(targets)
    assert measure._streams[1].filled == 0
    _clear_streams(monkeypatch)
    assert read(targets) == cold
    assert read(random.Random(dim).sample(targets, len(targets))) == cold
    first = {(t, s): cold[t, s] for t in targets for s in [configs[0].master_seed]}
    assert {(t, 3): _element_bytes(ch, t, configs[0]) for t in targets} == first
    hashed = _count_stream_keys(monkeypatch)[0]
    shuffled = random.Random(dim + 1).sample(targets, len(targets))
    assert {(t, 3): _element_bytes(ch, t, configs[0]) for t in shuffled} == first
    assert hashed[0] == 0
    store = measure._streams[1]
    assert store.filled == len(store.index) == dim**4


@pytest.mark.parametrize("dim", [2, 8, 16])
def test_a_lone_element_with_some_cells_kept_gets_its_cold_bytes(monkeypatch, dim):
    # a 4-setting element keeps the cells of its input kets with |D-1>; a 16-setting
    # element on the same input kets then finds those 4 kept and derives the other 12
    # from its table's digests, each in its own place: the bytes of a read that keeps
    # nothing, the store growing by the new cells alone.  A read whose every cell is
    # kept hashes no key
    last = dim - 1
    targets = chi_index((0, last, last, last)), chi_index((0, last, 0, last))
    prior, plan = (plan_element(*target, dim) for target in targets)
    assert prior.inputs is plan.inputs and (prior.settings_count, plan.settings_count) == (4, 16)
    ch = preset_channel("random-cptp", [dim + 110, 2], dim)
    sampled = BackendConfig("sampled", 10_000, 2**41 + dim)

    def cells(p) -> set:
        return set(itertools.product(_ket_bytes(p.inputs), _ket_bytes(p.observables)))

    _clear_streams(monkeypatch, 0)
    cold = [_element_bytes(ch, target, sampled) for target in targets]
    _clear_streams(monkeypatch)
    assert _element_bytes(ch, targets[0], sampled) == cold[0]
    store = measure._streams[1]
    assert store.filled == len(cells(prior)) == 4
    assert _element_bytes(ch, targets[1], sampled) == cold[1]
    assert store.filled - 4 == len(cells(plan) - cells(prior)) == 12
    hashes = _count_calls(monkeypatch, measure, "_hash_keys")
    assert [_element_bytes(ch, target, sampled) for target in targets] == cold
    assert hashes[0] == 0 and measure._streams[1] is store and store.filled == 16


@pytest.mark.parametrize("cells", [1 << 14, 40], ids=["every-cell", "forty-cells"])
def test_lone_elements_racing_under_two_seeds_get_their_cold_bytes(monkeypatch, cells):
    # threads reading lone elements under two master seeds, each thread in its
    # own order of targets and seeds, replace and fill the store in any
    # interleaving: each read gives the bytes of a read that keeps nothing
    dim = 3
    ch = preset_channel("random-cptp", [88, 2], dim)
    configs = [BackendConfig("sampled", 1000, seed) for seed in (9, 10)]
    requests = [(t, c) for t in _all_targets(dim) for c in configs]

    def read(order, start: threading.Barrier) -> dict:
        start.wait(timeout=30)
        return {(t, c.master_seed): _element_bytes(ch, t, c) for t, c in order}

    _clear_streams(monkeypatch, 0)
    cold = read(requests, threading.Barrier(1))
    _clear_streams(monkeypatch, cells)
    orders = [random.Random(k).sample(requests, len(requests)) for k in range(8)]
    orders[:2] = [sorted(requests, key=lambda r: r[1].master_seed)] * 2  # long runs of a seed
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            start = threading.Barrier(8)
            threaded = [pool.submit(read, order, start) for order in orders]
            results = [future.result(timeout=60) for future in threaded]
    finally:
        sys.setswitchinterval(interval)
    assert results == [cold] * 8
    assert measure._streams[1].filled <= cells


def _traced_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_the_stream_store_keeps_its_budget_and_a_new_seed_frees_it(monkeypatch):
    # a store of _KEPT_STREAMS rows fills all of them up to D = 16, 16 / D as
    # many above, 32 bytes of state and its index entry a cell; a read under
    # another master seed replaces it, and the old store goes
    _clear_streams(monkeypatch, 1000)
    dim = 8
    ch = preset_channel("random-cptp", [96, 2], dim)
    plans = [plan_element(*target, dim) for target in random.Random(8).sample(
        list(itertools.product(range(dim), repeat=4)), 200)]
    seed_a, seed_b = BackendConfig("sampled", 100, 1), BackendConfig("sampled", 100, 2)
    for plan in plans:  # sides, key parts and kept output states are built before tracing
        reconstruct_element(plan, ch, seed_b)
    _clear_streams(monkeypatch, 1000)
    tracemalloc.start()
    try:
        start = _traced_bytes()
        for plan in plans:
            reconstruct_element(plan, ch, seed_a)
            assert measure._streams[1].filled <= 1000
        store = measure._streams[1]
        assert measure._streams[0] == 1 and store.filled == len(store.index) == 1000
        assert store.rows.shape == (1000, 4) and store.rows.dtype == np.uint64
        assert not store.rows.flags.writeable
        held = _traced_bytes() - start
        released = weakref.ref(store)
        del store
        reconstruct_element(plans[0], ch, seed_b)
        left = _traced_bytes() - start
    finally:
        tracemalloc.stop()
    assert released() is None
    # about 150 bytes a cell: its state, its index entry, key tuple and row number;
    # what is left is the new store's 1000 rows and its one element's cells
    assert 32 * 1000 <= held <= 200 * 1000 and left < 32 * 1000 + (8 << 10), (held, left)
    # above D = 16 a cell counts D / 16 times: at D = 32, 500 of the 1000 rows
    ch = preset_channel("random-cptp", [97, 2], 32)
    for f, h in itertools.combinations(range(2, 32), 2):
        reconstruct_element(plan_element(0, f, 1, h, 32), ch, seed_a)
    assert measure._streams[1].filled == 500


def test_a_stream_at_dimension_32_keeps_its_budget_and_frees_it_with_its_channel(monkeypatch):
    # 40 four-ket elements read 112 distinct input kets; the budget holds 64
    # D = 32 states, kept first come, and they go when the channel does
    monkeypatch.setattr(measure, "_KEPT_ENTRIES", 1 << 16)
    dim = 32
    plans = [plan_element(0, f, 0, h, dim) for f, h in itertools.combinations(range(dim), 2)][:40]
    assert {plan.settings_count for plan in plans} == {4}
    warm_up = preset_channel("random-cptp", [97, 2], dim)
    for plan in plans:  # each expansion's side and its kets' keys are built before tracing
        reconstruct_element(plan, warm_up, EXACT)
    del warm_up
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ch = preset_channel("random-cptp", [97, 2], dim)
        for plan in plans:
            reconstruct_element(plan, ch, EXACT)
            assert _kept_entries(ch) <= measure._KEPT_ENTRIES
        assert measure._outputs[ch].filled == (1 << 16) // dim**2
        held = tracemalloc.get_traced_memory()[0] - start
        channel = weakref.ref(ch)
        del ch
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert channel() is None
    assert held >= 16 << 16 and left < 64 << 10, (held, left)


def test_lone_elements_stores_are_one_ledger_in_measure(monkeypatch):
    # a fixed mix of 1-, 4- and 16-setting lone elements at D = 2, 4, 8 and 16, one
    # channel a D, read exact and sampled under one master seed: measure lists every
    # store they fill, each within its budget, and each channel's store goes with it
    monkeypatch.setattr(measure, "_KEPT_ENTRIES", 1 << 16)
    rng, plans = random.Random(37), {}
    for dim in (2, 4, 8, 16):
        targets = []
        for _ in range(2):
            e, g = rng.sample(range(dim), 2)
            f, h = rng.sample(range(dim), 2)
            targets += [(e, f, e, f), (e, f, g, f), (e, f, g, h)]
        plans[dim] = [plan_element(*target, dim) for target in targets]
        assert [p.settings_count for p in plans[dim]] == [1, 4, 16] * 2
    sampled = BackendConfig("sampled", 100, 37)
    kets = {dim: len({k.tobytes() for p in ps for k in p.inputs.states})
            for dim, ps in plans.items()}
    cells = len({(i.tobytes(), o.tobytes()) for ps in plans.values() for p in ps
                 for i in p.inputs.states for o in p.observables.states})

    def read(channels, config):
        for dim, ch in channels.items():
            for plan in plans[dim]:
                reconstruct_element(plan, ch, config)

    # each expansion's side and its key parts are built before tracing
    read({dim: preset_channel("random-cptp", [dim, 2], dim) for dim in plans}, EXACT)
    read({dim: preset_channel("random-cptp", [dim, 2], dim) for dim in plans},
         BackendConfig("sampled", 100, 38))
    _clear_streams(monkeypatch)
    tracemalloc.start()
    try:
        start = _traced_bytes()
        chs = {dim: preset_channel("random-cptp", [dim + 40, 2], dim) for dim in plans}
        assert all(set(vars(ch)) == {"dim", "kraus", "_stack"} for ch in chs.values())
        read(chs, EXACT)
        read(chs, sampled)
        assert all(set(vars(ch)) == {"dim", "kraus", "_stack"} for ch in chs.values())
        assert all(ch in measure._outputs for ch in chs.values())
        for dim, ch in chs.items():
            store = measure._outputs[ch]
            assert store.filled == kets[dim] <= measure._KEPT_ENTRIES // dim**2
            assert len(store.rows) <= 2 * (measure._KEPT_ENTRIES // dim**2)
            assert _kept_entries(ch) == kets[dim] * dim**2
        seed, streams = measure._streams
        assert seed == 37 and streams.filled == cells <= measure._KEPT_STREAMS
        stores = [weakref.ref(measure._outputs[ch]) for ch in chs.values()]
        del chs, ch, store
        left = _traced_bytes() - start
    finally:
        tracemalloc.stop()
    assert not any(store() for store in stores)
    assert left < 64 << 10, left


def test_a_pickled_or_copied_channel_keeps_no_state(monkeypatch):
    # a kept state has the BLAS bits of the process that computed it; the
    # copy is rebuilt from the operators, read-only views of one stack
    monkeypatch.setattr(measure, "_KEPT_ENTRIES", 1 << 16)
    ch = preset_channel("random-cptp", [99, 2], 3)
    expected = _element_bytes(ch, (0, 1, 2, 0), EXACT)
    assert measure._outputs[ch].filled == 4
    for copied in (pickle.loads(pickle.dumps(ch)), copy.deepcopy(ch), copy.copy(ch)):
        stack = copied.kraus_stack()
        assert copied not in measure._outputs and stack.tobytes() == ch.kraus_stack().tobytes()
        assert not stack.flags.writeable and all(k.base is stack for k in copied.kraus)
        assert _element_bytes(copied, (0, 1, 2, 0), EXACT) == expected
        assert measure._outputs[copied].filled == measure._outputs[ch].filled == 4


@pytest.mark.parametrize("config", [EXACT, BackendConfig("sampled", 100, 1)],
                         ids=["exact", "sampled"])
def test_full_designs_and_measure_table_neither_read_nor_fill_kept_states(monkeypatch, config):
    # they apply the channel once per input state, warm channel or not
    monkeypatch.setattr(measure, "_KEPT_ENTRIES", 1 << 16)
    states = measure.input_state_set(3)
    fresh = preset_channel("random-cptp", [98, 2], 3)
    ch = preset_channel("random-cptp", [98, 2], 3)
    for target in _all_targets(3):
        reconstruct_element(plan_element(*target, 3), ch, config)
    store = measure._outputs[ch]
    kept = dict(store.index), store.rows[: store.filled].tobytes()
    assert store.filled == 3**2
    calls = _count_channel_applications(monkeypatch)
    for channel in (fresh, ch):
        for strategy, tp_shortcut in CALIBRATION_CASES:
            full_sqpt(channel, config, strategy, tp_shortcut)
        measure_table(channel, states, states, config)
    assert calls[0] == 2 * (len(CALIBRATION_CASES) + 1) * 3**2
    assert fresh not in measure._outputs and measure._outputs[ch] is store
    assert (dict(store.index), store.rows[: store.filled].tobytes()) == kept


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
    # numpy integers are kept as Python ints, so dim does not wrap at 2**63
    for n_sites, dim in [(64, 2**64), (63, 2**63)]:
        index_map = QuditIndexMap(np.int64(n_sites), np.int64(2))
        assert index_map.dim == dim and type(index_map.dim) is int


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
    # every document chi_to_json writes reads back exactly, D = 1 included
    for dim in (1, 2, 3):
        chi = chi_oracle(preset_channel("random-cptp", [90, 2], dim))
        loaded, convention = chi_from_json(chi_to_json(chi))
        assert convention == "choi-row-ef"
        np.testing.assert_array_equal(loaded, chi)
    # a document it could not read back is not written
    for chi, convention, message in [
        (np.eye(4), "bogus", "unknown chi convention 'bogus'"),
        (np.eye(4), None, "unknown chi convention None"),
        (np.full((4, 4), np.nan), "choi-row-ef", "chi entries must be finite"),
        (np.diag([1.0, 1.0, 1.0, np.inf]), "pauli-row-ixyz", "chi entries must be finite"),
        (np.diag([1.0, 1.0, 1.0, complex(0, -np.inf)]), "choi-row-ef", "chi entries must be finite"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            chi_to_json(chi, convention)
    assert chi_from_json(chi_to_json(np.eye(4), "pauli-row-ixyz"))[1] == "pauli-row-ixyz"


def test_chi_json_validation():
    with pytest.raises(ValueError, match="convention"):
        chi_from_json({"dim": 2, "convention": "mystery", "entries": [[0, 0]] * 16})
    with pytest.raises(ValueError, match="entries"):
        chi_from_json({"dim": 2, "convention": "choi-row-ef", "entries": [[0, 0]] * 15})
    with pytest.raises(ValueError, match="dim"):
        chi_from_json({"dim": 1.5, "convention": "choi-row-ef", "entries": []})
    with pytest.raises(ValueError, match="^chi document must be a JSON object$"):
        chi_from_json([[0, 0]] * 16)
    for bad in (None, "1.0", True, [1.0], 1j):
        with pytest.raises(ValueError, match="pair"):
            chi_from_json({"dim": 2, "convention": "choi-row-ef",
                           "entries": [[0, 0]] * 15 + [[0.0, bad]]})
