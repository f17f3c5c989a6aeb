import json
import tracemalloc

import numpy as np
import pytest

from choi_sqpt import (
    ChannelFormatError,
    QuantumChannel,
    apply_channel,
    apply_chi,
    assert_density_matrix,
    channel_from_json,
    channel_to_json,
    chi_oracle,
    choi_basis,
    haar_isometry,
    kron_channel,
    load_channel,
    preset_channel,
    random_density_matrix,
    save_channel,
    validate_cptp,
)

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)


def _kraus_loop(channel, rho):
    # the term-by-term Kraus sum apply_channel must reproduce bit for bit
    out = np.zeros_like(rho)
    for k in channel.kraus:
        out += k @ rho @ k.conj().T
    return out


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 8, 16])
def test_apply_channel_matches_the_kraus_loop(dim):
    rng = np.random.default_rng(dim)
    rho = random_density_matrix(dim, rng)
    other = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for rank in sorted({1, 2, dim, dim * dim}):
        ch = preset_channel("random-cptp", [dim, rank], dim)
        for op in (rho, other):
            assert apply_channel(ch, op).tobytes() == _kraus_loop(ch, op).tobytes(), rank


@pytest.mark.parametrize("name, param", [
    ("bit-flip", 0.0), ("amplitude-damping", 0.0), ("amplitude-damping", 1.0),
])
def test_apply_channel_with_zero_kraus_entries(name, param):
    # a zero Kraus operator (p = 0, gamma = 0), or one with a zeroed
    # entry (gamma = 1), adds exact zeros whose signs the sum must keep
    ch = preset_channel(name, [param])
    rng = np.random.default_rng(4)
    for op in (KET0, KET1, rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))):
        assert apply_channel(ch, op).tobytes() == _kraus_loop(ch, op).tobytes()


def test_apply_channel_memory_is_bounded_at_full_rank():
    # D = 16 at rank D^2: all 256 Kraus operators stacked would be 1 MiB,
    # and their products with rho several times that
    ch = preset_channel("random-cptp", [16, 256], 16)
    rho = random_density_matrix(16, np.random.default_rng(16))
    tracemalloc.start()
    try:
        apply_channel(ch, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_apply_identity_channel():
    ch = preset_channel("identity", dim=2)
    np.testing.assert_allclose(apply_channel(ch, KET0), KET0, atol=1e-15)


def test_apply_bit_flip():
    # sqrt(0.75) I and sqrt(0.25) X acting on |0><0| by direct arithmetic
    ch = preset_channel("bit-flip", [0.25])
    out = apply_channel(ch, KET0)
    np.testing.assert_allclose(out, np.diag([0.75, 0.25]), atol=1e-12)


def test_apply_amplitude_damping():
    ch = preset_channel("amplitude-damping", [0.3])
    out = apply_channel(ch, KET1)
    np.testing.assert_allclose(out, np.diag([0.3, 0.7]), atol=1e-12)


def test_apply_channel_dimension_mismatch():
    ch = preset_channel("identity", dim=3)
    with pytest.raises(ValueError, match="dimension"):
        apply_channel(ch, KET0)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_trace_preserved_on_random_states(dim):
    ch = preset_channel("random-cptp", [5, 3], dim)
    rng = np.random.default_rng(17)
    for _ in range(10):
        rho = random_density_matrix(dim, rng)
        out = apply_channel(ch, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert_density_matrix(out)


def test_chi_oracle_identity():
    chi = chi_oracle(preset_channel("identity", dim=2))
    expected = np.zeros((4, 4), dtype=complex)
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        expected[i, j] = 1.0
    np.testing.assert_allclose(chi, expected, atol=1e-15)


def test_chi_oracle_bit_flip_entries():
    chi = chi_oracle(preset_channel("bit-flip", [0.25]))
    assert chi[0, 0] == pytest.approx(0.75)
    assert chi[0, 3] == pytest.approx(0.75)
    assert chi[1, 1] == pytest.approx(0.25)
    assert chi[1, 2] == pytest.approx(0.25)
    np.testing.assert_allclose(chi, chi.conj().T, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_chi_oracle_trace_is_dim_when_tp(dim):
    for seed in range(5):
        ch = preset_channel("random-cptp", [seed, 2], dim)
        chi = chi_oracle(ch)
        assert abs(np.trace(chi).real - dim) < 1e-10


def test_chi_oracle_hermitian():
    ch = preset_channel("random-cptp", [3, 4], 3)
    chi = chi_oracle(ch)
    assert np.max(np.abs(chi - chi.conj().T)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_chi_diagonal_equals_transition_probability(dim):
    # chi[a*D+b, a*D+b] must match <a| eps(|b><b|) |a> from direct application
    ch = preset_channel("random-cptp", [dim, 3], dim)
    chi = chi_oracle(ch)
    for a in range(dim):
        for b in range(dim):
            rho = np.zeros((dim, dim), dtype=complex)
            rho[b, b] = 1.0
            direct = apply_channel(ch, rho)[a, a].real
            assert abs(chi[a * dim + b, a * dim + b] - direct) < 1e-12


def test_chi_oracle_invariant_under_kraus_gauge():
    # mixing the Kraus operators by an isometry leaves the channel (and chi) alone
    dim, rank = 3, 3
    ch = preset_channel("random-cptp", [9, rank], dim)
    rng = np.random.default_rng(123)
    big = 5
    v = haar_isometry(big, rank, rng)
    mixed = QuantumChannel(
        dim, tuple(sum(v[n, m] * ch.kraus[m] for m in range(rank)) for n in range(big))
    )
    np.testing.assert_allclose(chi_oracle(mixed), chi_oracle(ch), atol=1e-10)


def test_apply_chi_matches_kraus_action():
    ch = preset_channel("random-cptp", [21, 2], 2)
    chi = chi_oracle(ch)
    ops = choi_basis(2)
    rng = np.random.default_rng(4)
    rho = random_density_matrix(2, rng)
    np.testing.assert_allclose(
        apply_chi(chi, ops, rho), apply_channel(ch, rho), atol=1e-12
    )


def test_validate_identity():
    report = validate_cptp(preset_channel("identity", dim=2))
    assert report.tp_deviation == 0.0
    assert report.min_chi_eigenvalue >= -1e-12
    assert report.cptp


def test_validate_flags_non_tp():
    ch = QuantumChannel(2, (0.5 * np.eye(2, dtype=complex),))
    report = validate_cptp(ch)
    assert report.tp_deviation == pytest.approx(0.75)
    assert not report.trace_preserving
    assert not report.cptp


@pytest.mark.parametrize("tol", [0.0, -1.0, float("inf"), float("nan")])
def test_validate_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    # an infinite tolerance would pass 0.5 I as trace preserving
    ch = QuantumChannel(2, (0.5 * np.eye(2, dtype=complex),))
    with pytest.raises(ValueError, match="finite positive"):
        validate_cptp(ch, tol)


def test_validate_random_stinespring():
    report = validate_cptp(preset_channel("random-cptp", [7, 2], 3), tol=1e-10)
    assert report.cptp
    assert abs(report.chi_trace - 3.0) < 1e-10


def test_preset_bit_flip_kraus():
    ch = preset_channel("bit-flip", [0.25])
    np.testing.assert_allclose(ch.kraus[0], np.sqrt(0.75) * np.eye(2), atol=1e-15)
    np.testing.assert_allclose(
        ch.kraus[1], np.sqrt(0.25) * np.array([[0, 1], [1, 0]]), atol=1e-15
    )


@pytest.mark.parametrize(
    "name,params,dim",
    [
        ("identity", [], 3),
        ("bit-flip", [0.3], 2),
        ("phase-flip", [0.6], 2),
        ("amplitude-damping", [0.45], 2),
        ("depolarizing", [0.5], 2),
        ("depolarizing", [0.8], 3),
        ("random-cptp", [7, 2], 3),
        ("random-cptp", [0], 2),
    ],
)
def test_presets_are_cptp(name, params, dim):
    assert validate_cptp(preset_channel(name, params, dim)).cptp


def test_depolarizing_action():
    p = 0.4
    ch = preset_channel("depolarizing", [p], 2)
    out = apply_channel(ch, KET0)
    np.testing.assert_allclose(out, (1 - p) * KET0 + p * np.eye(2) / 2, atol=1e-12)


def test_preset_errors():
    with pytest.raises(ValueError, match="unknown preset"):
        preset_channel("nonsense", [], 2)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        preset_channel("bit-flip", [1.5])
    with pytest.raises(ValueError, match="dim=2"):
        preset_channel("amplitude-damping", [0.1], 3)
    with pytest.raises(ValueError, match="one parameter"):
        preset_channel("bit-flip", [])
    # a float dimension used to end in a TypeError deep inside full_sqpt
    for dim in (2.0, True, np.float64(3)):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            preset_channel("depolarizing", [0.1], dim)
    assert preset_channel("depolarizing", [0.1], np.int64(3)).dim == 3


@pytest.mark.parametrize("params", [
    [np.inf], [-np.inf], [np.nan], [2.5], [-1],
    [3, np.inf], [3, -np.inf], [3, np.nan], [3, 1.5], [3, 0],
], ids=str)
def test_random_cptp_rejects_a_bad_seed_or_rank(params):
    # inf has no int() (OverflowError) and neither has nan (ValueError); they
    # are refused with the parameter's own message, as fractions are
    slot, kind = ("seed", "a non-negative") if len(params) == 1 else ("rank", "a positive")
    with pytest.raises(ValueError) as err:
        preset_channel("random-cptp", params, 2)
    assert str(err.value) == f"random-cptp {slot} must be {kind} integer, got {params[-1]}"


def test_random_cptp_takes_whole_floats_and_large_integers():
    assert preset_channel("random-cptp", [5.0, 2.0], 2).kraus_stack().tobytes() == \
        preset_channel("random-cptp", [5, 2], 2).kraus_stack().tobytes()
    assert len(preset_channel("random-cptp", [10**400, np.int64(2)], 2).kraus) == 2


def test_kron_identity_is_identity():
    ch = kron_channel(preset_channel("identity", dim=2), preset_channel("identity", dim=3))
    assert ch.dim == 6
    rng = np.random.default_rng(8)
    rho = random_density_matrix(6, rng)
    np.testing.assert_allclose(apply_channel(ch, rho), rho, atol=1e-12)


def test_kron_bit_flip_first_factor():
    ch = kron_channel(preset_channel("bit-flip", [0.25]), preset_channel("identity", dim=2))
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |00><00|
    np.testing.assert_allclose(
        apply_channel(ch, rho), np.diag([0.75, 0.0, 0.25, 0.0]), atol=1e-12
    )


def test_kron_tp_iff_both_tp():
    tp = preset_channel("random-cptp", [2, 2], 2)
    non_tp = QuantumChannel(2, (0.5 * np.eye(2, dtype=complex),))
    assert kron_channel(tp, tp).is_trace_preserving()
    assert not kron_channel(tp, non_tp).is_trace_preserving()
    assert not kron_channel(non_tp, tp).is_trace_preserving()


def test_channel_validates_its_dimension_and_entries():
    for dim in (2.0, True):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            QuantumChannel(dim, (np.eye(2),))
    assert type(QuantumChannel(np.int64(2), (np.eye(2),)).dim) is int
    # a NaN Kraus entry used to give a NaN chi from full_sqpt, silently
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        with pytest.raises(ValueError, match="Kraus operator entries must be finite"):
            QuantumChannel(2, (np.eye(2), np.diag([bad, 1.0])))


def test_channel_is_immutable():
    ch = preset_channel("identity", dim=2)
    with pytest.raises(ValueError):
        ch.kraus[0][0, 0] = 5.0


def test_kraus_operators_are_read_only_views_of_one_stack():
    ops = [np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)]
    ch = QuantumChannel(2, tuple(ops))
    stack = ch.kraus_stack()
    assert stack.shape == (2, 2, 2) and not stack.flags.writeable
    assert ch.kraus_stack() is stack
    for k, op in zip(ch.kraus, ops):
        assert k.base is stack and not k.flags.writeable
        np.testing.assert_array_equal(k, op)
    ops[0][0, 0] = 5.0  # the channel keeps its own copy
    assert stack[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 5.0


def test_channel_json_round_trip(tmp_path):
    ch = preset_channel("random-cptp", [13, 2], 3)
    path = tmp_path / "ch.json"
    save_channel(ch, path)
    loaded = load_channel(path)
    assert loaded.dim == ch.dim
    for a, b in zip(loaded.kraus, ch.kraus):
        np.testing.assert_allclose(a, b, atol=1e-15)


def test_channel_json_rejects_non_square():
    doc = {"dim": 2, "kraus": [[[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]]}
    with pytest.raises(ChannelFormatError, match="square"):
        channel_from_json(doc)


def test_channel_json_rejects_wrong_dimension():
    doc = channel_to_json(preset_channel("identity", dim=2))
    doc["dim"] = 3
    with pytest.raises(ChannelFormatError, match="rows"):
        channel_from_json(doc)


def test_channel_json_rejects_bad_entries():
    with pytest.raises(ChannelFormatError):
        channel_from_json({"dim": 2, "kraus": [[[1.0, 0.0], [0.0, 1.0]]]})
    with pytest.raises(ChannelFormatError, match="dim"):
        channel_from_json({"dim": "two", "kraus": []})
    with pytest.raises(ChannelFormatError):
        channel_from_json([1, 2, 3])
    for bad in (None, "1", True, float("nan"), float("inf"), 10**400):
        doc = channel_to_json(preset_channel("identity", dim=2))
        doc["kraus"][0][0][0] = [bad, 0.0]
        with pytest.raises(ChannelFormatError, match="pair"):
            channel_from_json(doc)


def test_load_channel_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ChannelFormatError, match="invalid JSON"):
        load_channel(path)


def test_json_round_trips_through_text():
    ch = preset_channel("amplitude-damping", [0.3])
    doc = json.loads(json.dumps(channel_to_json(ch)))
    loaded = channel_from_json(doc)
    np.testing.assert_allclose(loaded.kraus[1], ch.kraus[1], atol=1e-15)
