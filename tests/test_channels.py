import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import choi_sqpt
from choi_sqpt import (
    BackendConfig,
    ChannelFormatError,
    HermitianBasis,
    QuantumChannel,
    QuditIndexMap,
    apply_channel,
    apply_chi,
    assert_density_matrix,
    basis_state,
    beta_permutation,
    channel_from_json,
    channel_to_json,
    chi_choi_to_pauli,
    chi_oracle,
    chi_pauli_to_choi,
    choi_basis,
    choi_op,
    expand_choi_four,
    full_sqpt,
    ghz_profile,
    haar_isometry,
    input_state_set,
    kron_channel,
    load_channel,
    pauli_basis,
    pauli_choi_unitary,
    plan_element,
    preset_channel,
    random_density_matrix,
    save_channel,
    sud_generators,
    superposition_states,
    tp_complete,
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["every", "off-diagonal"])
def test_density_matrix_refuses_non_finite_entries(bad, where):
    # a NaN passes every tolerance comparison and an inf warns before it
    # fails one, so the finite rule comes first, under CI's warning flags too
    rho = np.full((2, 2), bad) if where == "every" else np.array([[0.5, bad], [bad, 0.5]])
    with pytest.raises(ValueError, match="^density matrix entries must be finite$"):
        assert_density_matrix(rho)


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


# random-cptp's QR gave the same Kraus bits on 1 and 2 OpenBLAS threads for
# every isometry with rows x (cols - 1) <= 9,216 and differed above it (README,
# "Bits and BLAS threads"); rank 164 at D = 8 is the largest D = 8 isometry
# below that size, 1,312 x 8 with 9,184
_KRAUS_DIGEST = """
import hashlib
from choi_sqpt import preset_channel
for seed in (0, 1, 2):
    kraus = preset_channel("random-cptp", [seed, 164], 8).kraus_stack()
    print(hashlib.sha256(kraus.tobytes()).hexdigest())
"""


def test_random_cptp_bits_below_the_boundary_do_not_depend_on_blas_threads():
    src = str(Path(choi_sqpt.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", _KRAUS_DIGEST], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(run.stdout)
    assert digests[0] == digests[1] and len(digests[0]) == 3 * 65


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


def _integer_arguments():
    # (entry, the argument's name in its refusal, a call taking the argument,
    # a valid integer value for it)
    rng = np.random.default_rng(0)
    su2 = sud_generators(2).operators
    ch4, exact = preset_channel("identity", dim=4), BackendConfig()
    return [
        ("QuantumChannel", "dimension", lambda v: QuantumChannel(v, (np.eye(2),)), 2),
        ("preset_channel", "dimension", lambda v: preset_channel("identity", (), v), 2),
        ("haar_isometry", "rows", lambda v: haar_isometry(v, 1, rng), 2),
        ("haar_isometry", "cols", lambda v: haar_isometry(2, v, rng), 1),
        ("random_density_matrix", "dim", lambda v: random_density_matrix(v, rng), 2),
        ("basis_state", "level index", lambda v: basis_state(v, 2), 1),
        ("basis_state", "dim", lambda v: basis_state(0, v), 2),
        ("choi_op", "a", lambda v: choi_op(v, 0, 2), 1),
        ("choi_op", "b", lambda v: choi_op(0, v, 2), 1),
        ("choi_op", "dim", lambda v: choi_op(0, 0, v), 2),
        ("choi_basis", "dim", lambda v: choi_basis(v), 2),
        ("superposition_states", "a", lambda v: superposition_states(v, 2, 3), 1),
        ("superposition_states", "b", lambda v: superposition_states(0, v, 2), 1),
        ("superposition_states", "dim", lambda v: superposition_states(0, 1, v), 2),
        ("expand_choi_four", "a", lambda v: expand_choi_four(v, 0, 2), 1),
        ("expand_choi_four", "b", lambda v: expand_choi_four(0, v, 2), 1),
        ("expand_choi_four", "dim", lambda v: expand_choi_four(0, 0, v), 2),
        ("HermitianBasis", "dim", lambda v: HermitianBasis(v, su2), 2),
        ("sud_generators", "d", lambda v: sud_generators(v), 2),
        ("pauli_basis", "n_qubits", lambda v: pauli_basis(v), 1),
        ("pauli_choi_unitary", "n_qubits", lambda v: pauli_choi_unitary(v), 1),
        ("chi_choi_to_pauli", "n_qubits", lambda v: chi_choi_to_pauli(np.eye(4), v), 1),
        ("chi_pauli_to_choi", "n_qubits", lambda v: chi_pauli_to_choi(np.eye(4), v), 1),
        ("input_state_set", "dim", lambda v: input_state_set(v), 2),
        ("tp_complete", "dim", lambda v: tp_complete({0: 0.5}, v), 2),
        ("tp_complete", "level index", lambda v: tp_complete({v: 0.5}, 2), 1),
        ("beta_permutation", "dim", lambda v: beta_permutation(v), 2),
        ("plan_element", "e", lambda v: plan_element(v, 0, 0, 0, 2), 1),
        ("plan_element", "f", lambda v: plan_element(0, v, 0, 0, 2), 1),
        ("plan_element", "g", lambda v: plan_element(0, 0, v, 0, 2), 1),
        ("plan_element", "h", lambda v: plan_element(0, 0, 0, v, 2), 1),
        ("plan_element", "dim", lambda v: plan_element(0, 0, 0, 0, v), 2),
        ("QuditIndexMap", "n_sites", lambda v: QuditIndexMap(v, 2), 2),
        ("QuditIndexMap", "local_dim", lambda v: QuditIndexMap(2, v), 2),
        ("compose", "digit", lambda v: QuditIndexMap(2, 2).compose([v, 0]), 1),
        ("decompose", "index", lambda v: QuditIndexMap(2, 2).decompose(v), 1),
        ("ghz_profile", "index", lambda v: ghz_profile(v, 0, QuditIndexMap(2, 2)), 1),
        ("full_sqpt", "local_dim", lambda v: full_sqpt(ch4, exact, "product-hermitian", False, v, 2), 2),
        ("full_sqpt", "n_sites", lambda v: full_sqpt(ch4, exact, "product-hermitian", False, 2, v), 2),
    ]


@pytest.mark.parametrize("entry, name, call, valid", _integer_arguments(),
                         ids=[f"{entry}-{name}" for entry, name, *_ in _integer_arguments()])
def test_dimensions_and_indices_must_be_integers(entry, name, call, valid):
    # every public entry taking a dimension or an index refuses a float and a
    # bool by the argument's name, with ValueError, and takes the integer
    call(valid)
    for value in (float(valid), True):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
            call(value)


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


@pytest.mark.parametrize("dim, message", [
    ("two", "'dim' must be an integer, got 'two'"),
    (None, "'dim' must be an integer, got None"),
    (True, "'dim' must be an integer, got True"),
    (2.0, "'dim' must be an integer, got 2.0"),
    (0, "'dim' must be positive, got 0"),
    (-3, "'dim' must be positive, got -3"),
])
def test_channel_json_dimension_is_the_dimension_rule(dim, message):
    # every dimension's rule and message, raised as a parse failure (exit code 3)
    with pytest.raises(ChannelFormatError, match=f"^{message}$"):
        channel_from_json({"dim": dim, "kraus": [[[[1.0, 0.0]]]]})


def test_package_names_are_the_modules_public_names():
    # __init__ re-exports each module's __all__; its other public names are submodules
    modules = (choi_sqpt.basis, choi_sqpt.channels, choi_sqpt.measure, choi_sqpt.tomo)
    public = {name for name, value in vars(choi_sqpt).items()
              if not name.startswith("_") and not isinstance(value, type(choi_sqpt))}
    assert public == {name for module in modules for name in module.__all__}


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
