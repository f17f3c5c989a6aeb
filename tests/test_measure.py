import abc
import hashlib
import os
import subprocess
import sys
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import choi_sqpt
from choi_sqpt import channels, measure, tomo
from choi_sqpt import (
    BackendConfig,
    PhysicalityError,
    QuantumChannel,
    apply_channel,
    basis_state,
    haar_isometry,
    input_state_set,
    measure_table,
    plan_element,
    preset_channel,
    tp_complete,
)
# the 1 x 1 views of measure_table, outside the package API: only their own tests use them
from choi_sqpt.measure import (
    MeasurementSetting,
    exact_expectation,
    measure_setting,
    sampled_expectation,
)

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
EXACT = BackendConfig()


def _random_state(dim, rng):
    return haar_isometry(dim, 1, rng)[:, 0]


def _cell(channel, psi, obs, config=EXACT) -> tuple[float, float]:
    # one cell's (value, standard error): the 1 x 1 table of psi and obs
    values, errs = measure_table(channel, [psi], [obs], config)
    return values[0, 0], errs[0, 0]


def test_exact_identity_projector():
    value, err = _cell(preset_channel("identity", dim=2), basis_state(0, 2), basis_state(0, 2))
    assert value == pytest.approx(1.0)
    assert err == 0.0


def test_exact_bit_flip_probability():
    value, _ = _cell(preset_channel("bit-flip", [0.25]), basis_state(0, 2), basis_state(1, 2))
    assert value == pytest.approx(0.25)


def test_exact_hermitian_eigenstate():
    value, _ = _cell(preset_channel("identity", dim=2), PLUS, SX)
    assert value == pytest.approx(1.0)


def test_exact_dimension_mismatch():
    setting = MeasurementSetting(basis_state(0, 3), basis_state(0, 3))
    with pytest.raises(ValueError, match="dimension"):
        exact_expectation(preset_channel("identity", dim=2), setting)


def test_setting_validates_inputs():
    with pytest.raises(ValueError, match="unit"):
        MeasurementSetting(np.array([1.0, 1.0]), basis_state(0, 2))
    with pytest.raises(ValueError, match="Hermitian"):
        MeasurementSetting(basis_state(0, 2), np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="mismatch"):
        MeasurementSetting(basis_state(0, 2), basis_state(0, 3))


def test_sampled_zero_probability_is_exact_zero():
    ch = preset_channel("identity", dim=2)
    for seed in (0, 1, 999):
        config = BackendConfig("sampled", 1000, seed)
        value, _ = _cell(ch, basis_state(0, 2), basis_state(1, 2), config)
        assert value == 0.0


def test_sampled_concentrates_on_exact_value():
    ch = preset_channel("bit-flip", [0.25])
    config = BackendConfig("sampled", 10**6, 7)
    value, err = _cell(ch, basis_state(0, 2), basis_state(1, 2), config)
    assert abs(value - 0.25) <= 5 * np.sqrt(0.25 * 0.75 / 10**6)
    assert err == pytest.approx(np.sqrt(value * (1 - value) / 10**6))


def test_sampled_deterministic_for_fixed_seed():
    ch = preset_channel("amplitude-damping", [0.3])
    cfg = BackendConfig("sampled", 4096, 42)
    assert _cell(ch, PLUS, basis_state(0, 2), cfg) == _cell(ch, PLUS, basis_state(0, 2), cfg)


def test_sampled_hermitian_observable():
    ch = preset_channel("identity", dim=2)
    value, err = _cell(ch, basis_state(0, 2), SX, BackendConfig("sampled", 10**6, 5))
    # <0|sx|0> = 0: both eigenvalues equally likely
    assert abs(value) <= 5 * err + 1e-9
    assert err == pytest.approx(1.0 / np.sqrt(10**6), rel=0.05)


def test_sampled_rejects_inflating_channel():
    ch = QuantumChannel(2, (np.sqrt(2) * np.eye(2, dtype=complex),))
    with pytest.raises(PhysicalityError):
        _cell(ch, basis_state(0, 2), basis_state(0, 2), BackendConfig("sampled", 100, 0))


def test_sampled_hermitian_rejects_non_tp_channel():
    ch = QuantumChannel(2, (0.5 * np.eye(2, dtype=complex),))
    with pytest.raises(PhysicalityError, match="trace"):
        _cell(ch, basis_state(0, 2), SX, BackendConfig("sampled", 100, 0))


def test_sampled_mode_required():
    setting = MeasurementSetting(basis_state(0, 2), basis_state(0, 2))
    with pytest.raises(ValueError, match="sampled-mode"):
        sampled_expectation(preset_channel("identity", dim=2), setting, BackendConfig())


def test_backend_config_validation():
    with pytest.raises(ValueError, match="mode"):
        BackendConfig("approximate")
    with pytest.raises(ValueError, match="shots"):
        BackendConfig("sampled", 0)
    with pytest.raises(ValueError, match="seed"):
        BackendConfig("sampled", 10, -1)
    # numpy draws take the shot count as an int64
    assert BackendConfig("sampled", 2**63 - 1).shots == 2**63 - 1
    with pytest.raises(ValueError, match="shots"):
        BackendConfig("sampled", 2**63)
    # a count or seed that is not an integer is refused, not truncated: numpy
    # would draw 100 shots and the estimate divide by 100.7
    for shots, seed in [(100.7, 3), (100, 1.5), (True, 3), (100, False)]:
        with pytest.raises(ValueError, match="must be an integer"):
            BackendConfig("sampled", shots, seed)
    assert BackendConfig("sampled", np.int64(100), np.uint64(3)).descriptor == (
        "sampled(shots=100,seed=3)"
    )


@pytest.mark.parametrize("dim", [2, 4])
def test_backends_agree_in_the_large_shot_limit(dim):
    # 100 random (channel, setting) pairs per dimension, 5-sigma band
    rng = np.random.default_rng(dim * 1000)
    cfg_template = 10**6
    failures = 0
    for trial in range(100):
        ch = preset_channel("random-cptp", [trial + dim, 2], dim)
        psi = _random_state(dim, rng)
        if trial % 2 == 0:
            obs = _random_state(dim, rng)
        else:
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            obs = g + g.conj().T
        exact, _ = _cell(ch, psi, obs)
        value, err = _cell(ch, psi, obs, BackendConfig("sampled", cfg_template, trial))
        band = 5 * err + 1e-12
        if abs(value - exact) > band:
            failures += 1
    assert failures <= 1


def test_projector_outcomes_stay_in_band():
    # estimates may leave [0, 1] only by statistical fluctuation
    rng = np.random.default_rng(31)
    for trial in range(20):
        ch = preset_channel("random-cptp", [trial, 2], 3)
        psi, phi = _random_state(3, rng), _random_state(3, rng)
        for config in (EXACT, BackendConfig("sampled", 500, trial)):
            value, err = _cell(ch, psi, phi, config)
            band = 3 * err + 1e-12
            assert -band <= value <= 1 + band


def test_sampled_independent_of_evaluation_order():
    ch = preset_channel("random-cptp", [55, 2], 2)
    cfg = BackendConfig("sampled", 2048, 77)
    states = input_state_set(2)
    cells = [(s, p) for s in states for p in states]
    forward = [_cell(ch, s, p, cfg) for s, p in cells]
    backward = [_cell(ch, s, p, cfg) for s, p in reversed(cells)]
    assert forward == list(reversed(backward))


def test_sampled_safe_under_concurrent_evaluation():
    ch = preset_channel("random-cptp", [56, 2], 2)
    cfg = BackendConfig("sampled", 1024, 99)
    states = input_state_set(2)
    cells = [(s, p) for s in states for p in states]
    sequential = [_cell(ch, s, p, cfg) for s, p in cells]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda cell: _cell(ch, *cell, cfg), cells))
    assert sequential == threaded


def _kraus_loop(channel, rho):
    # the term-by-term Kraus sum, sum_m E_m rho E_m^dagger
    out = np.zeros_like(rho)
    for k in channel.kraus:
        out += k @ rho @ k.conj().T
    return out


def _output_state(channel, psi):
    # the output state of one ket, read as a one-ket batch
    return measure._output_states(channel, psi.reshape(1, -1, 1))[0]


def _one_ket_read(channel, psi):
    # the read of one ket alone: one gemv over the stacked Kraus operators, then
    # one D x rank x D gemm
    dim = channel.dim
    amps = (channel.kraus_stack().reshape(-1, dim) @ psi).reshape(-1, dim)
    return amps.T @ amps.conj()


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 8, 16])
def test_output_states_match_one_ket_reads(dim):
    # each stacked call makes, per ket, the gemv and gemm of a one-ket read,
    # whether the batch fits in one call or is chunked
    rng = np.random.default_rng(dim + 80)
    every = np.array(input_state_set(dim))
    for rank in sorted({1, 2, dim, dim * dim}):
        ch = preset_channel("random-cptp", [dim, rank], dim)
        for kets in ([_random_state(dim, rng)], [_random_state(dim, rng) for _ in range(3)], every):
            kets = np.array(kets)
            outs = measure._output_states(ch, kets[:, :, None])
            expected = np.array([_one_ket_read(ch, psi) for psi in kets])
            assert outs.tobytes() == expected.tobytes(), (rank, len(kets))


# (preset, params, dim): random channels at ranks 1, 2, D and D^2, and
# channels with a zero Kraus operator (p = 0, gamma = 0) or a zeroed entry
# (gamma = 1)
KERNEL_CHANNELS = [
    ("random-cptp", [dim, rank], dim)
    for dim in (2, 3, 4, 5, 8, 16)
    for rank in sorted({1, 2, dim, dim * dim})
] + [("bit-flip", [0.0], 2), ("amplitude-damping", [0.0], 2), ("amplitude-damping", [1.0], 2)]


@pytest.mark.parametrize("name, params, dim", KERNEL_CHANNELS,
                         ids=[f"{n}-{p}-{d}" for n, p, d in KERNEL_CHANNELS])
def test_output_state_matches_the_kraus_loop(name, params, dim):
    # the output state built from the kets E_m psi is the Kraus sum on
    # |psi><psi|, and apply_channel's, up to rounding
    ch = preset_channel(name, params, dim)
    rng = np.random.default_rng(dim + 60)
    for psi in (_random_state(dim, rng), basis_state(0, dim), basis_state(dim - 1, dim)):
        rho = np.outer(psi, psi.conj())
        out = _output_state(ch, psi)
        assert out.shape == (dim, dim) and out.dtype == complex
        np.testing.assert_allclose(out, _kraus_loop(ch, rho), rtol=0, atol=1e-14)
        np.testing.assert_allclose(out, apply_channel(ch, rho), rtol=0, atol=1e-14)


@pytest.mark.parametrize("config", [BackendConfig(), BackendConfig("sampled", 1000, 3)],
                         ids=["exact", "sampled"])
def test_element_table_memory_is_bounded_at_full_rank(config):
    # a four-inputs x four-observables element at D = 16, rank D^2: each
    # input ket meets the Kraus stack as a rank x D array of kets, and no
    # rank x D x D intermediate (1 MiB a block) is formed
    ch = preset_channel("random-cptp", [16, 256], 16)
    plan = plan_element(0, 1, 2, 0, 16)
    assert plan.settings_count == 16
    table = (ch, plan.inputs.states, plan.observables.states, config)
    measure_table(*table)  # first-use imports stay out of the peak
    tracemalloc.start()
    try:
        measure_table(*table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19


def _recorded(monkeypatch, name) -> list:
    # the results of every call of the private measure helper `name`
    results = []
    original = getattr(measure, name)

    def recorded(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(measure, name, recorded)
    return results


def _hashed_keys(monkeypatch) -> list[bytes]:
    # every message measure digests with sha256, whole: each cell's stream key
    keys = []

    class Sha256:
        def __init__(self, data=b""):
            self.data = data

        def copy(self):
            return Sha256(self.data)

        def update(self, data):
            self.data += data

        def digest(self):
            keys.append(self.data)
            return hashlib.sha256(self.data).digest()

    monkeypatch.setattr(measure, "hashlib", types.SimpleNamespace(sha256=Sha256))
    return keys


@pytest.mark.parametrize("config", [BackendConfig(), BackendConfig("sampled", 500, 9)],
                         ids=["exact", "sampled"])
def test_measure_table_equals_per_setting_measurement(monkeypatch, config):
    # one channel application per row, every cell bit for bit the
    # single-setting outcome, projector and Hermitian observables alike, and
    # on the sampled backend every cell's key the setting's canonical_key
    rng = np.random.default_rng(13)
    ch = preset_channel("random-cptp", [15], 3)
    states = [_random_state(3, rng), basis_state(1, 3), _random_state(3, rng)]
    herm = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    observables = [_random_state(3, rng), herm + herm.conj().T, basis_state(2, 3),
                   np.diag([1.0, -1.0, 0.5])]
    keys = _hashed_keys(monkeypatch)
    checked = _recorded(monkeypatch, "_checked_state"), _recorded(monkeypatch, "_checked_observable")
    outputs = _recorded(monkeypatch, "_output_states")
    values, errs = measure_table(ch, states, observables, config)
    assert [len(c) for c in checked] == [len(states), len(observables)]
    assert sum(map(len, outputs)) == len(states)
    table_keys = list(keys)
    settings = [MeasurementSetting(psi, o) for psi in states for o in observables]
    expected_keys = [s.canonical_key() for s in settings] if config.mode == "sampled" else []
    assert table_keys == expected_keys
    for (m, k), setting in zip(np.ndindex(values.shape), settings):
        outcome = measure_setting(ch, setting, config)
        assert (values[m, k], errs[m, k]) == (outcome.value, outcome.std_error), (m, k)
        assert outcome.shots == (config.shots if config.mode == "sampled" else 0)
    # the backend's own view gives the same outcome as measure_setting
    if config.mode == "sampled":
        assert sampled_expectation(ch, settings[-1], config) == outcome
    else:
        assert exact_expectation(ch, settings[-1]) == outcome


def test_measure_table_validates_like_a_setting():
    ch = preset_channel("identity", dim=2)
    cases = [
        ([np.array([1.0, 1.0])], [PLUS], "input state must be a unit vector"),
        ([PLUS], [np.array([[0, 1], [0, 0]], dtype=complex)], "observable must be Hermitian"),
        ([PLUS], [basis_state(0, 3)], "projector vector dimension mismatch"),
        ([np.eye(2)], [PLUS], "input state must be a vector"),
        ([PLUS], [np.eye(3)], "^observable dimension mismatch$"),
        ([PLUS], [np.zeros((2, 2, 2))], "observable must be a vector or a matrix"),
    ]
    for states, observables, message in cases:
        with pytest.raises(ValueError, match=message):
            MeasurementSetting(states[0], observables[0])
        with pytest.raises(ValueError, match=message):
            measure_table(ch, states, observables, BackendConfig())
    # every observable is checked, not only the first
    with pytest.raises(ValueError, match="observable must be Hermitian"):
        measure_table(ch, [PLUS], [PLUS, cases[1][1][0]], BackendConfig())
    with pytest.raises(ValueError, match="does not match channel dimension 2"):
        measure_table(ch, [basis_state(0, 3)], [basis_state(0, 3)], BackendConfig())
    with pytest.raises(ValueError, match="does not match channel dimension 3"):
        measure_table(preset_channel("identity", dim=3), [PLUS], [PLUS], BackendConfig())


def test_input_states_of_mixed_dimension_keep_their_errors():
    # the observables are checked against the first input state, then each
    # input state against the channel
    ch, zero = preset_channel("identity", dim=2), basis_state(0, 2)
    cases = [
        ([zero, basis_state(0, 3)], "setting dimension 3 does not match channel dimension 2"),
        ([basis_state(0, 3), zero], "projector vector dimension mismatch"),
    ]
    for states, message in cases:
        for config in (BackendConfig(), BackendConfig("sampled", 100, 1)):
            with pytest.raises(ValueError, match=message):
                measure_table(ch, states, [zero], config)


def test_non_finite_inputs_are_refused():
    # NaN fails every tolerance comparison: these used to build, or read NaN
    ch, cfg = preset_channel("identity", dim=2), BackendConfig()
    nan_ket, inf_ket = np.array([np.nan, 0]), np.array([np.inf, 0])
    inf_obs = np.diag([np.inf, 1.0]).astype(complex)
    cases = [
        ([nan_ket], [basis_state(0, 2)], "input state entries must be finite"),
        ([inf_ket], [basis_state(0, 2)], "input state entries must be finite"),
        ([PLUS], [nan_ket], "projector vector entries must be finite"),
        ([PLUS], [inf_obs], "observable entries must be finite"),
    ]
    for states, observables, message in cases:
        with pytest.raises(ValueError, match=message):
            MeasurementSetting(states[0], observables[0])
        with pytest.raises(ValueError, match=message):
            measure_table(ch, states, observables, cfg)


def _canon_floats_reference(values) -> str:
    # the one-line encoding every stream key was built with
    return ",".join(format(round(float(v), 12) + 0.0, ".12f") for v in values)


def test_canon_floats_matches_the_reference_format():
    rng = np.random.default_rng(12)
    edges = [0.0, -0.0, 5e-13, -5e-13, 4.999999999999999e-13, -4.999999999999999e-13,
             np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0, 0.5 + 5e-13]
    samples = [np.array(edges), np.zeros(7), -np.zeros(3), np.array([])]
    for scale in (1e-13, 1e-12, 1e-6, 1.0, 1e6):
        draws = rng.normal(scale=scale, size=(50, 32))
        draws[rng.random(draws.shape) < 0.6] = 0.0
        draws[rng.random(draws.shape) < 0.1] = -0.0
        samples.extend(draws)
    for values in samples:
        assert measure._canon_floats(values) == _canon_floats_reference(values)


_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 11, 2**64 - 1]


@pytest.mark.parametrize("seed", _SEEDS)
def test_seed_states_match_seed_sequence(monkeypatch, seed):
    # blocks up to _CELL_POOLS cells mix each pool in numpy's SeedSequence,
    # larger ones in the vectorized mirror: both give numpy's streams
    rng = np.random.default_rng(seed % 1000)
    words = rng.integers(0, 2**32, size=(1000, 4), dtype=np.uint32)
    words[:3] = [[0, 0, 0, 0], [2**32 - 1] * 4, [1, 2, 3, 4]]
    expected = [np.random.SeedSequence([seed, *map(int, w)]).generate_state(4, np.uint64)
                for w in words]
    pools, seed_sequence = [], np.random.SeedSequence

    def counted(entropy):
        pools.append(entropy)
        return seed_sequence(entropy)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    for cells in (1, 4, measure._CELL_POOLS, measure._CELL_POOLS + 1, 1000):
        pools.clear()
        states = measure._seed_states(seed, words[:cells].T)
        assert states.tobytes() == np.array(expected[:cells]).tobytes(), cells
        assert len(pools) == (cells if cells <= measure._CELL_POOLS else 0), cells


def _reference_rng(key: bytes, master_seed: int) -> np.random.Generator:
    # the stream a cell with this key draws from: sha256 words into a SeedSequence
    digest = hashlib.sha256(key).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([master_seed, *words]))


@pytest.mark.parametrize("seed", _SEEDS)
def test_cell_streams_draw_as_default_rng(seed):
    # the whole D = 3 choi-four row side against projector and Hermitian
    # columns, interleaved: each cell's digest words are those of its whole
    # key's sha256, its state is numpy's SeedSequence state for them, in the
    # vectorized block and in a block of at most _CELL_POOLS cells alike, and
    # its generator draws as default_rng's
    design = tomo._choi_four_design(3, False)[0]
    generators = tomo._product_hermitian_design(3, 1)[0].cols.ops
    cols = [v for pair in zip(design.cols.kets[..., 0], generators) for v in pair]
    assert {v.ndim for v in cols} == {1, 2}
    table = measure._Table(design.rows, measure._Side(cols, 3))
    words = table.digests
    assert words.shape == (len(design.rows.kets), len(cols), 4) and words.dtype == np.uint32
    assert words.size // 4 > measure._CELL_POOLS
    streams = measure._seed_states(seed, words.reshape(-1, 4).T).reshape(words.shape)
    small = measure._seed_states(seed, words[:2, :6].reshape(-1, 4).T)
    assert small.tobytes() == streams[:2, :6].tobytes()
    for row, state in zip(streams, design.rows.kets[..., 0]):
        for stream, obs in zip(row, cols):
            key = measure._setting_key(3, measure._canon_complex(state), obs.ndim == 1,
                                       measure._canon_complex(obs))
            key_words = np.frombuffer(hashlib.sha256(key).digest()[:16], dtype="<u4").tolist()
            expected = np.random.SeedSequence([seed, *key_words]).generate_state(4, np.uint64)
            assert stream.tobytes() == expected.tobytes(), key
            gen, ref = measure._rng(stream), _reference_rng(key, seed)
            assert gen.binomial(1000, 0.3) == ref.binomial(1000, 0.3)
            assert gen.binomial(2**62, 0.7) == ref.binomial(2**62, 0.7)
            draws = gen.multinomial(4096, [0.1, 0.2, 0.3, 0.4])
            assert draws.tobytes() == ref.multinomial(4096, [0.1, 0.2, 0.3, 0.4]).tobytes()


def test_streams_seed_pcg64_through_a_true_seed_sequence():
    # _rng's seed sequence subclasses numpy's ISeedSequence rather than being
    # registered with it: a sampled read leaves the ABC's registry unchanged
    interface = np.random.bit_generator.ISeedSequence
    registry = set(abc._get_dump(interface)[0])
    ch = preset_channel("random-cptp", [15], 3)
    observables = [basis_state(1, 3), np.diag([1.0, 2.0, 3.0])]
    states = [basis_state(2, 3), basis_state(0, 3)]
    measure_table(ch, states, observables, BackendConfig("sampled", 100, 3))
    seq = measure._rng(np.arange(4, dtype=np.uint64)).bit_generator.seed_seq
    assert interface in type(seq).__mro__
    assert set(abc._get_dump(interface)[0]) == registry
    assert type(seq) not in {ref() for ref in registry}


def _kept_row(key: bytes) -> np.ndarray:
    # a row derived from its key alone, as a stream state is: 4 uint64 words
    return np.frombuffer(hashlib.sha256(key).digest(), np.uint64)


def _deriving(keys, calls: list):
    # a derive for store.take(keys, ...) that records the positions it is called with
    def derive(missing):
        calls.append(missing)
        return np.array([_kept_row(keys[n]) for n in missing])
    return derive


def _take(store, keys, room, calls: list) -> np.ndarray:
    # store.take(keys), checked byte for byte against fresh rows; the store's array
    # stays read-only, within its cap and at most twice the rows it keeps
    rows = store.take(keys, _deriving(keys, calls), room)
    assert rows.tobytes() == np.array([_kept_row(key) for key in keys]).tobytes()
    assert not store.rows.flags.writeable and store.rows.base is None
    assert len(store.rows) <= min(store.cap, 2 * store.filled)
    return rows


def test_a_store_derives_each_missing_key_once():
    # derive is called once a read, with exactly the positions of the keys not
    # kept, and not at all once every key is; a returned row is a copy
    store, calls = measure._Kept(8, (4,), np.uint64), []
    _take(store, [b"a", b"b", b"c"], 8, calls)
    assert calls == [[0, 1, 2]]
    rows = _take(store, [b"x", b"b", b"y", b"a"], 8, calls)
    assert calls[1:] == [[0, 2]]
    rows[:] = 0
    _take(store, [b"y", b"c", b"x", b"a", b"b"], 8, calls)
    assert len(calls) == 2 and store.filled == len(store.index) == 5


def test_a_store_keeps_rows_first_come_within_its_room():
    # rows fill in order while at most `room` are filled and are never evicted or
    # rewritten; a smaller room than is filled keeps nothing more, and room 0 nothing
    store, calls = measure._Kept(8, (4,), np.uint64), []
    _take(store, [b"a", b"b"], 3, calls)
    _take(store, [b"c", b"d", b"e"], 3, calls)
    assert store.index == {b"a": 0, b"b": 1, b"c": 2}
    kept = store.rows[:3].tobytes()
    _take(store, [b"d", b"e"], 1, calls)
    _take(store, [b"d", b"a"], 3, calls)
    assert calls[2:] == [[0, 1], [0]] and store.filled == 3
    _take(store, [b"e", b"a", b"d"], 8, calls)
    assert store.index == {b"a": 0, b"b": 1, b"c": 2, b"e": 3, b"d": 4}
    assert store.rows[:3].tobytes() == kept
    # a key twice in one read takes one row, which later reads take
    _take(store, [b"f", b"f"], 8, calls)
    _take(store, [b"f", b"g", b"f"], 8, calls)
    assert calls[5:] == [[0, 1], [1]] and store.filled == len(store.index) == 7
    assert store.index[b"f"] == 5 and store.index[b"g"] == 6
    empty, calls = measure._Kept(0, (4,), np.uint64), []
    for _ in range(2):
        _take(empty, [b"a", b"b"], 0, calls)
    assert calls == [[0, 1]] * 2 and empty.filled == 0 and empty.index == {}


def test_a_key_two_racing_reads_derive_keeps_its_first_row():
    # a read that derives a key while another read derives and keeps it: both
    # return the same bytes, and the key keeps the row the first keeper wrote
    store, calls = measure._Kept(8, (4,), np.uint64), []
    inner = []
    keys = [b"a", b"b"]

    def racing(missing):
        inner.append(_take(store, [b"b"], 8, calls))
        return _deriving(keys, calls)(missing)

    outer = store.take(keys, racing, 8)
    assert outer.tobytes() == np.array([_kept_row(key) for key in keys]).tobytes()
    assert inner[0].tobytes() == outer[1:].tobytes()
    assert calls == [[0], [0, 1]] and store.index == {b"b": 0, b"a": 1}
    assert store.filled == 2 and store.rows[:2].tobytes() == outer[::-1].tobytes()
    assert _take(store, keys, 8, calls).tobytes() == outer.tobytes() and len(calls) == 2


def _reference_cell(channel, psi, obs, config) -> tuple[float, float]:
    # one cell read alone: its own stream, then a binomial draw for a
    # projector or a multinomial one over a Hermitian observable's eigenvalues
    key = measure._setting_key(len(psi), measure._canon_complex(psi), obs.ndim == 1,
                               measure._canon_complex(obs))
    rng = _reference_rng(key, config.master_seed)
    out = _output_state(channel, psi)
    shots = config.shots
    if obs.ndim == 1:
        p = min(max(float((obs.conj() @ out @ obs).real), 0.0), 1.0)
        est = rng.binomial(shots, p) / shots
        return est, float(np.sqrt(est * (1.0 - est) / shots))
    evals, evecs = np.linalg.eigh(obs)
    probs = np.array([min(max(float(x.real), 0.0), 1.0)
                      for x in np.diag(evecs.conj().T @ out @ evecs)])
    freq = rng.multinomial(shots, probs / probs.sum()) / shots
    est = float(evals @ freq)
    var = float(np.square(evals) @ freq - est * est)
    return est, float(np.sqrt(max(var, 0.0) / shots))


@pytest.mark.parametrize("shots, seed", [(997, 3), (10**4, 2**40 + 11), (2**62 + 1, 2**64 - 1)])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_sampled_table_matches_cells_read_alone(dim, shots, seed):
    rng = np.random.default_rng(dim + 40)
    ch = preset_channel("random-cptp", [dim, 2], dim)
    config = BackendConfig("sampled", shots, seed)
    states = [_random_state(dim, rng) for _ in range(3)] + [basis_state(0, dim)]
    herm = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    observables = [_random_state(dim, rng), herm + herm.conj().T, basis_state(1, dim),
                   np.diag(np.arange(dim, dtype=float))]
    values, errs = measure_table(ch, states, observables, config)
    for m, k in np.ndindex(values.shape):
        expected = _reference_cell(ch, states[m], observables[k], config)
        assert (values[m, k], errs[m, k]) == expected, (m, k)


def _recorded_args(monkeypatch, name) -> list:
    # the arguments of every call of the private measure helper `name`
    calls = []
    original = getattr(measure, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(measure, name, recorded)
    return calls


@pytest.mark.parametrize("block", [None, 1], ids=["one-block", "row-blocks"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 8, 16])
def test_stacked_readout_matches_per_cell_reads(monkeypatch, dim, block):
    # the stacked products read every cell with the bits of reading it alone,
    # in one block of the three rows' output states and products, or row by row
    monkeypatch.setattr(channels, "_BLOCK_ENTRIES", block or 3 * (4 * dim * dim + 3 * dim))
    rng = np.random.default_rng(dim)
    ch = preset_channel("random-cptp", [dim, 3], dim)
    states = [_random_state(dim, rng) for _ in range(3)]
    kets = [_random_state(dim, rng) for _ in range(3)]
    herms = [g + g.conj().T for g in
             (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(3))]
    observables = [kets[0], herms[0], herms[1], kets[1], kets[2], herms[2]]
    proj, herm = [0, 3, 4], [1, 2, 5]
    outs = [_output_state(ch, psi) for psi in states]

    exact, _ = measure_table(ch, states, observables, BackendConfig())
    expected = np.array([[(phi.conj() @ out @ phi).real if phi.ndim == 1
                          else np.trace(phi @ out).real for phi in observables] for out in outs])
    assert exact.tobytes() == expected.tobytes()

    checked = _recorded_args(monkeypatch, "_probabilities")
    # the channel is CPTP, so every block passes the physicality checks
    measure_table(ch, states, observables, BackendConfig("sampled", 100, 1))
    p = np.concatenate([args[0] for args in checked])
    q = np.concatenate([args[1] for args in checked])
    assert len(checked) == (1 if block is None else len(states))
    eigs = [np.linalg.eigh(h) for h in herms]
    assert p.tobytes() == np.array(
        [[(observables[k].conj() @ out @ observables[k]).real for k in proj] for out in outs]
    ).tobytes()
    assert q.tobytes() == np.array(
        [[np.diag(v.conj().T @ out @ v).real for _, v in eigs] for out in outs]
    ).tobytes()


# every product-hermitian design: (local_dim, n_sites)
GENERATOR_DESIGNS = [(d, 1) for d in (2, 3, 4, 5, 6, 7, 16)] + [(2, 2), (3, 2), (2, 3), (4, 2), (2, 4)]


@pytest.mark.parametrize("local_dim, n_sites", GENERATOR_DESIGNS,
                         ids=[f"{d}^{n}" for d, n in GENERATOR_DESIGNS])
def test_generator_gather_matches_the_trace(local_dim, n_sites):
    # a generator cell gathers one nonzero per row, with np.trace(O @ rho)'s bits,
    # signed zeros included, on every output state of the design's input states
    table = tomo._product_hermitian_design(local_dim, n_sites)[0]
    rows, cols = table.rows, table.cols
    assert cols.nonzeros is not None
    dim = local_dim**n_sites
    for rank in (1, 3, dim * dim):
        ch = preset_channel("random-cptp", [dim + 90, rank], dim)
        outs = measure._output_states(ch, rows.kets)
        for start in range(0, len(outs), 8):  # the dense products, 8 rows at a time
            block = outs[start : start + 8, None]
            expected = np.trace(cols.ops @ block, axis1=2, axis2=3).real
            assert measure._traces(cols, block).tobytes() == expected.tobytes(), (rank, start)


def test_only_sides_of_one_real_or_imaginary_nonzero_per_row_gather():
    # a caller's dense Hermitian, or a row's one nonzero both real and
    # imaginary, keeps the dense product; an empty row gathers weight 0
    rng = np.random.default_rng(17)
    herm = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    skew = np.array([[0, 1 + 1j, 0], [1 - 1j, 0, 0], [0, 0, 2]])
    outs = measure._output_states(preset_channel("random-cptp", [5, 2], 3),
                                  np.array(input_state_set(3))[:, :, None])[:, None]
    for observables, gathered in [
        (list(choi_sqpt.sud_generators(3).operators), True),
        ([np.zeros((3, 3)), np.diag([1.0, 0.0, -1.0])], True),
        ([np.diag([1.0, 2.0, 3.0]), herm + herm.conj().T], False),
        ([skew], False),
    ]:
        side = measure._Side(observables, 3)
        assert (side.nonzeros is not None) == gathered
        expected = np.trace(side.ops @ outs, axis1=2, axis2=3).real
        assert measure._traces(side, outs).tobytes() == expected.tobytes()


def test_an_exact_gathered_read_counts_d_entries_a_hermitian_cell(monkeypatch):
    # exact product-hermitian gathers each Hermitian cell from D products, so
    # its block step counts D entries a cell, not D^2: at D = 16 a block holds 3
    # of the 256 rows (86 blocks, not 256), at D = 6 all 36 (1 block, not 3).
    # The bits are those of one-row blocks and of one block
    traces = _recorded_args(monkeypatch, "_traces")
    for dim, blocks in [(16, 86), (6, 1)]:
        ch = preset_channel("random-cptp", [dim, 2], dim)
        tomo.full_sqpt(ch, EXACT, "product-hermitian")
        reads = {}
        for budget in (1 << 14, 1, 1 << 24):  # the default budget, one row, every row
            monkeypatch.setattr(channels, "_BLOCK_ENTRIES", budget)
            traces.clear()
            result = tomo.full_sqpt(ch, EXACT, "product-hermitian")
            reads[budget] = (len(traces), result.chi.tobytes() + result.std_errors.tobytes())
        counts = [count for count, _ in reads.values()]
        assert counts == [blocks, dim**2, 1] and len({bits for _, bits in reads.values()}) == 1


def test_probabilities_within_the_band_are_clamped_as_before():
    # probabilities at most 1e-9 (PROB_BAND) outside [0, 1] are clamped into it as
    # Python's min(max(p, 0.0), 1.0) clamps each entry, signed zeros kept, and a
    # Hermitian cell's distribution is normalized by its clamped sum; none raises
    p = np.array([[0.25, -0.0, -5e-10, 1.0 + 5e-10], [0.0, 1.0, -1e-9, 1.0 + 1e-9]])
    q = np.array([[[0.5, 0.5], [-2.5e-10, 1.0 + 2.5e-10]], [[-0.0, 1.0], [0.75, 0.25]]])
    proj, herm = (0, 1, 4, 5), (2, 3)

    def clamped(x):
        return np.array([min(max(v, 0.0), 1.0) for v in x.ravel().tolist()]).reshape(x.shape)

    probs, pvals = measure._probabilities(p, q, proj, herm)
    assert probs.tobytes() == clamped(p).tobytes()
    assert pvals.tobytes() == (clamped(q) / clamped(q).sum(axis=2, keepdims=True)).tobytes()
    assert np.signbit(probs[0, 1]) and np.signbit(pvals[1, 0, 0])
    # within [0, 1] nothing is clamped or copied
    inside = p[:, :2]
    probs, pvals = measure._probabilities(inside, None, (0, 1), ())
    assert probs is inside and pvals is None
    # a table of Hermitian columns only reads an empty p
    empty, pvals = measure._probabilities(np.zeros((2, 0)), q, (), (0, 1))
    assert empty.shape == (2, 0) and pvals.shape == q.shape


@pytest.mark.parametrize("outside", [-2e-9, 1.0 + 2e-9])
def test_probabilities_beyond_the_band_raise(outside):
    # 2e-9 outside [0, 1] is beyond PROB_BAND = 1e-9, in a projector cell or an outcome
    with pytest.raises(PhysicalityError, match=f"outcome probability {outside} lies outside"):
        measure._probabilities(np.array([[0.5, outside]]), None, (0, 1), ())
    with pytest.raises(PhysicalityError, match=f"outcome probability {outside} lies outside"):
        measure._probabilities(np.zeros((1, 0)), np.array([[[outside, 1.0 - outside]]]), (), (0,))


def test_table_raises_what_its_first_unphysical_cell_raises():
    # a channel that inflates |1> only, projector and Hermitian cells mixed
    # in a row: the table reports its first unphysical cell in row-major
    # order, with the message that measuring that cell alone gives
    ch = QuantumChannel(2, (np.diag([1.0, np.sqrt(1.5)]).astype(complex),))
    config = BackendConfig("sampled", 100, 0)
    steep = np.array([0.5, np.sqrt(0.75)], dtype=complex)
    cells = {
        "plus": PLUS,  # p = 0.75 from |1>
        "ket0": basis_state(0, 2),  # p = 0
        "ket1": basis_state(1, 2),  # p = 1.5: outside
        "steep": steep,  # p = 1.125: outside
        "steep-op": np.outer(steep, steep.conj()),  # outcomes (0.375, 1.125): outside
        "x": SX,  # outcomes (0.75, 0.75): sum 1.5
    }
    psi = basis_state(1, 2)
    outside = "lies outside [0, 1]; the channel is not completely positive / trace preserving"
    trace = "; the channel is not trace preserving"
    # the messages, numbers included, as each cell's 1 x 1 table raises them
    expected = {
        ("plus", "x", "ket1"): "outcome probabilities sum to 1.4999999999999993" + trace,
        ("ket0", "ket1", "steep-op"): f"outcome probability 1.4999999999999998 {outside}",
        ("steep-op", "x"): f"outcome probability 1.1249999999999993 {outside}",
        ("x", "steep-op", "ket1"): "outcome probabilities sum to 1.4999999999999993" + trace,
        ("plus", "steep", "x"): f"outcome probability 1.1249999999999998 {outside}",
        ("ket0", "steep-op", "steep"): f"outcome probability 1.1249999999999993 {outside}",
    }

    def first_error(names):
        for name in names:
            try:
                _cell(ch, psi, cells[name], config)
            except PhysicalityError as exc:
                return str(exc)

    for names, message in expected.items():
        observables = [cells[n] for n in names]
        measure_table(ch, [basis_state(0, 2)], observables, config)  # |0> stays physical
        with pytest.raises(PhysicalityError) as raised:
            measure_table(ch, [basis_state(0, 2), psi, PLUS], observables, config)
        assert str(raised.value) == message == first_error(names), names


# exact tables at D = 16 through a rank-256 channel: 40 input states x 40
# projectors, then x the 256 Gell-Mann generators and the 256 Pauli products,
# which gather one nonzero per row; the Kraus operators are integer-seeded
# normal arrays, so no LAPACK call builds them
_TABLE_DIGEST = """
import hashlib, numpy as np
from choi_sqpt import (BackendConfig, QuantumChannel, input_state_set, measure_table,
                       pauli_basis, sud_generators)
rng = np.random.default_rng(16)
kraus = rng.normal(size=(256, 16, 16)) + 1j * rng.normal(size=(256, 16, 16))
ch, kets = QuantumChannel(16, tuple(kraus)), input_state_set(16)[:40]
digest = hashlib.sha256()
for cols in (kets, list(sud_generators(16).operators), pauli_basis(4)):
    values, errs = measure_table(ch, kets, cols, BackendConfig())
    digest.update(values.tobytes() + errs.tobytes())
print(digest.hexdigest())
"""


def test_exact_table_bits_do_not_depend_on_blas_threads():
    src = str(Path(choi_sqpt.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", _TABLE_DIGEST], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(run.stdout)
    assert digests[0] == digests[1] and len(digests[0]) == 65


@pytest.mark.parametrize("dim", range(2, 9))
def test_input_state_set_count(dim):
    states = input_state_set(dim)
    assert len(states) == dim * dim
    for s in states:
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)


def test_input_state_set_qubit_members():
    states = input_state_set(2)
    np.testing.assert_allclose(states[0], [1, 0], atol=1e-15)
    np.testing.assert_allclose(states[1], [0, 1], atol=1e-15)
    np.testing.assert_allclose(states[2], PLUS, atol=1e-15)
    np.testing.assert_allclose(states[3], [1 / np.sqrt(2), 1j / np.sqrt(2)], atol=1e-15)


def test_input_state_projectors_independent_d4():
    states = input_state_set(4)
    flat = np.stack([np.outer(s, s.conj()).reshape(-1) for s in states])
    gram = flat @ flat.conj().T
    assert np.linalg.matrix_rank(gram) == 16


def test_tp_complete_qubit():
    assert tp_complete({0: 0.75}, 2) == pytest.approx(0.25)


def test_tp_complete_qutrit():
    assert tp_complete({0: 0.2, 1: 0.3}, 3) == pytest.approx(0.5)


def test_tp_complete_wrong_count():
    with pytest.raises(ValueError, match="exactly 2"):
        tp_complete({0: 0.2}, 3)
    with pytest.raises(ValueError, match="duplicate|range"):
        tp_complete({0: 0.2, 3: 0.1}, 3)
    with pytest.raises(ValueError, match="level index must be an integer"):
        tp_complete({0.5: 0.3}, 2)
    assert tp_complete({np.int64(1): 0.25}, 2) == 0.75


def test_tp_complete_on_columns_matches_per_row_calls():
    # one call over whole columns gives each row's scalar result, bit for bit
    values = np.random.default_rng(5).random((40, 4))
    columns = tp_complete(dict(enumerate(values.T)), 5)
    rows = [tp_complete(dict(enumerate(row)), 5) for row in values]
    assert columns.tobytes() == np.array(rows).tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_tp_complete_matches_direct_measurement(dim):
    ch = preset_channel("random-cptp", [64 + dim, 3], dim)
    rng = np.random.default_rng(9)
    for _ in range(5):
        psi = _random_state(dim, rng)
        values = {a: _cell(ch, psi, basis_state(a, dim))[0] for a in range(dim)}
        partials = {a: values[a] for a in range(dim - 1)}
        assert tp_complete(partials, dim) == pytest.approx(values[dim - 1], abs=1e-12)
