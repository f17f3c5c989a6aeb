"""Measurement backends: exact expectation values and shot-noise sampling.

Every measurement is a table of (input state, observable) cells, read from
two sides.  _side checks and stacks each vector of a side once, and for the
sampled backend encodes it for the stream keys and eigendecomposes each
Hermitian observable once.  _read_table reads any rows x columns, applying the
channel once per input state (D^2 applications for D^2 input states).
measure_table builds both sides from a caller's vectors; full reconstruction
builds them once per dimension, a lone element once per expansion, rows and
columns alike.  The channel acts on the input ket, not on its density
matrix: eps(|psi><psi|) = A^T A* for the rank x D array A of kets E_m psi,
O(rank D^2) per input state where the Kraus sum on |psi><psi| costs
O(rank D^3).  channels.apply_channel stays the path for a general operator.
Rows are read in blocks with stacked products, one per observable kind, that
make the same BLAS call per cell as a single read; measure_setting is 1 x 1.

Every sampled setting derives its own random stream by hashing a canonical
byte encoding of the setting together with the master seed, so results are
reproducible and independent of evaluation order or concurrent scheduling.
A block of at most _CELL_POOLS = 16 cells mixes each seed pool in numpy's C
SeedSequence (about 5 us a cell); a larger block mixes them all in one
vectorized pass that mirrors it (about 100 us), 16 being the measured
crossover.  Both give numpy's streams, bit for bit; only draws are per cell.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .basis import _frozen, basis_state, superposition_states
from .channels import QuantumChannel, _dimension, _hermitian, _index, _integer, _unit_vector

__all__ = [
    "BackendConfig",
    "MeasurementOutcome",
    "MeasurementSetting",
    "PhysicalityError",
    "exact_expectation",
    "input_state_set",
    "measure_setting",
    "measure_table",
    "sampled_expectation",
    "tp_complete",
]

# outcome probabilities may poke out of [0, 1] by this much before the
# channel is declared non-physical
PROB_BAND = 1e-9

_MASK64 = (1 << 64) - 1

# measure_table stacks at most this many readout entries at once (256 KiB
# of complex128), which bounds its working memory at any table size
_TABLE_BLOCK_ENTRIES = 1 << 14


class PhysicalityError(ValueError):
    """Raised when simulated outcome probabilities are not probabilities."""


_ZERO_CODE = format(0.0, ".12f")


def _canon_floats(values) -> str:
    # round to 12 decimals and kill negative zero so equal settings built
    # through different arithmetic hash identically; a zero of either sign
    # encodes as _ZERO_CODE, so only the nonzero entries are formatted
    codes = [_ZERO_CODE] * len(values)
    for k in np.flatnonzero(values).tolist():
        codes[k] = format(round(float(values[k]), 12) + 0.0, ".12f")
    return ",".join(codes)


def _canon_complex(arr: np.ndarray) -> str:
    flat = np.asarray(arr).reshape(-1)
    return _canon_floats(np.concatenate([flat.real, flat.imag]))


def _setting_key(dim: int, state_code: str, projector: bool, obs_code: str) -> bytes:
    # the one key format; state_code and obs_code are _canon_complex encodings
    kind = "p" if projector else "h"
    return f"d={dim};in={state_code};obs={kind}:{obs_code}".encode("ascii")


def _checked_state(state, dim: int | None = None) -> np.ndarray:
    state = _frozen(state)
    if state.ndim != 1:
        raise ValueError("input state must be a vector")
    _unit_vector(state, "input state")
    if dim not in (None, len(state)):  # a table checks its rows against the channel
        raise ValueError(f"setting dimension {len(state)} does not match channel dimension {dim}")
    return state


def _checked_observable(obs, dim: int) -> np.ndarray:
    obs = _frozen(obs)
    if obs.ndim == 1:
        if obs.shape[0] != dim:
            raise ValueError("projector vector dimension mismatch")
        _unit_vector(obs, "projector vector")
    elif obs.ndim == 2:
        if obs.shape != (dim, dim):
            raise ValueError("observable dimension mismatch")
        _hermitian(obs, "observable")
    else:
        raise ValueError("observable must be a vector or a matrix")
    return obs


@dataclass(frozen=True, eq=False)
class MeasurementSetting:
    """One (input pure state, observable) measurement configuration.

    The observable is a 1-d array for a projector |phi><phi| given by the
    vector phi, or a 2-d array for a Hermitian operator measured in its
    eigenbasis.
    """

    input_state: np.ndarray
    observable: np.ndarray

    def __post_init__(self):
        state = _checked_state(self.input_state)
        obs = _checked_observable(self.observable, state.shape[0])
        object.__setattr__(self, "input_state", state)
        object.__setattr__(self, "observable", obs)

    @property
    def dim(self) -> int:
        return self.input_state.shape[0]

    @property
    def is_projector(self) -> bool:
        return self.observable.ndim == 1

    def canonical_key(self) -> bytes:
        return _setting_key(
            self.dim,
            _canon_complex(self.input_state),
            self.is_projector,
            _canon_complex(self.observable),
        )


@dataclass(frozen=True)
class MeasurementOutcome:
    """An expectation-value estimate with its statistical uncertainty."""

    value: float
    std_error: float
    shots: int


@dataclass(frozen=True)
class BackendConfig:
    """How expectation values are obtained: exactly or by finite sampling."""

    mode: str = "exact"
    shots: int = 0
    master_seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"unknown backend mode {self.mode!r}")
        _integer(self.shots, "shots")
        _integer(self.master_seed, "master seed")
        if self.mode == "sampled" and self.shots < 1:
            raise ValueError("sampled mode needs shots >= 1")
        if self.shots > _MASK64 >> 1:  # numpy draws take the shot count as an int64
            raise ValueError(f"shots must be at most {_MASK64 >> 1}, numpy's draw limit")
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master seed must fit in an unsigned 64-bit integer")

    @property
    def descriptor(self) -> str:
        if self.mode == "exact":
            return "exact"
        return f"sampled(shots={self.shots},seed={self.master_seed})"


# numpy's SeedSequence mixing (O'Neill's seed_seq, as in numpy's
# bit_generator) in uint32 arithmetic over many entropy rows at once.  Hashmix
# step t of a chain uses init * mult**t mod 2**32: one chain mixes the pool,
# the other reads it out.
def _hash_chain(init: int, mult: int, steps: int) -> np.ndarray:
    chain = [init * pow(mult, t, 1 << 32) % (1 << 32) for t in range(steps + 1)]
    return np.array(chain, dtype=np.uint32)[:, None]


_MIX_CHAIN = _hash_chain(0x43B0D7E5, 0x931E8875, 24)
_OUT_CHAIN = _hash_chain(0x8B51F9DD, 0x58F38DED, 8)
_POOL_OTHERS = [np.array([i for i in range(4) if i != src]) for src in range(4)]

# _seed_states mixes a block of at most this many cells cell by cell, in C
_CELL_POOLS = 16


def _hashmix(values: np.ndarray, chain: np.ndarray) -> np.ndarray:
    values = (values ^ chain[:-1]) * chain[1:]
    return values ^ (values >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
    return out ^ (out >> np.uint32(16))


def _seed_states(master_seed: int, words: np.ndarray) -> np.ndarray:
    """SeedSequence([master_seed, *w]).generate_state(4, np.uint64) per column w of words.

    A seed of 2**32 or more enters as two entropy words, low word first, as in numpy.
    A block of at most _CELL_POOLS cells mixes each cell's pool in numpy's C SeedSequence,
    a larger block all pools at once in the vectorized mirror; both share the output hash.
    """
    seed_words = [master_seed & 0xFFFFFFFF] + ([master_seed >> 32] if master_seed >> 32 else [])
    seed_rows = np.array(seed_words, dtype=np.uint32)[:, None].repeat(words.shape[1], 1)
    entropy = np.concatenate((seed_rows, words))
    if words.shape[1] <= _CELL_POOLS:
        pool = np.array([np.random.SeedSequence(column).pool for column in entropy.T]).T
    else:
        pool = _hashmix(entropy[:4], _MIX_CHAIN[:5])
        step = 4
        for src, others in enumerate(_POOL_OTHERS):
            pool[others] = _mix(pool[others], _hashmix(pool[src], _MIX_CHAIN[step : step + 4]))
            step += 3
        for word in entropy[4:]:
            pool = _mix(pool, _hashmix(word, _MIX_CHAIN[step : step + 5]))
            step += 4
    state = _hashmix(np.concatenate((pool, pool)), _OUT_CHAIN)
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _Stream:
    """A seed sequence whose generate_state(4, np.uint64), all PCG64 asks, is known.

    _cell_streams registers it as a numpy ISeedSequence, so that importing
    this module does not import numpy.random: exact runs never need it.
    """

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _rng(state: np.ndarray) -> np.random.Generator:
    # the generator default_rng(seq) gives for the SeedSequence seq with this state
    return np.random.Generator(np.random.PCG64(_Stream(state)))


def _cell_streams(dim, state_codes, obs_codes, master_seed) -> np.ndarray:
    """Every cell's stream state, (len(state_codes), len(obs_codes), 4).

    A cell draws from default_rng(SeedSequence([master_seed, *words])), the
    words being the first 16 bytes of the sha256 of its key as 4
    little-endian uint32; both codes hold (is_projector, encoding) pairs.
    """
    digests = b"".join(
        hashlib.sha256(_setting_key(dim, s, projector, o)).digest()[:16]
        for _, s in state_codes
        for projector, o in obs_codes
    )
    words = np.frombuffer(digests, dtype="<u4").reshape(-1, 4).T.astype(np.uint32)
    np.random.bit_generator.ISeedSequence.register(_Stream)
    return _seed_states(master_seed, words).reshape(len(state_codes), len(obs_codes), 4)


def _output_state(channel: QuantumChannel, psi: np.ndarray) -> np.ndarray:
    """eps(|psi><psi|) = sum_m (E_m psi)(E_m psi)^dagger = A^T A*, A's rows E_m psi.

    One gemv over the stacked Kraus operators and one D x rank x D gemm:
    O(rank D^2), where sum_m E_m rho E_m^dagger on rho = |psi><psi| is O(rank D^3).
    """
    dim = channel.dim
    amps = (channel.kraus_stack().reshape(-1, dim) @ psi).reshape(-1, dim)
    return amps.T @ amps.conj()


def _outside(p: np.ndarray) -> np.ndarray:
    # probabilities further than PROB_BAND outside [0, 1]
    return (p < -PROB_BAND) | (p > 1.0 + PROB_BAND)


def _clamped(p: np.ndarray) -> np.ndarray:
    # min(max(p, 0.0), 1.0) per entry, signed zeros included
    return np.where(p < 0.0, 0.0, np.where(p > 1.0, 1.0, p))


def _probabilities(p, q, proj, herm) -> tuple[np.ndarray, np.ndarray | None]:
    """A block's outcome probabilities, clamped into [0, 1], q's normalized.

    p holds the projector cells' success probabilities and q the Hermitian
    cells' outcome distributions.  The block's first unphysical cell, in
    row-major order, raises PhysicalityError: naming its first probability
    outside [0, 1], or else its outcome distribution's sum.
    """
    unphysical = np.zeros((len(p), len(proj) + len(herm)), dtype=bool)
    unphysical[:, proj] = _outside(p)
    if herm:
        probs = _clamped(q)
        totals = probs.sum(axis=2, keepdims=True)
        unphysical[:, herm] = _outside(q).any(axis=2) | (np.abs(totals[..., 0] - 1.0) > PROB_BAND)
    if unphysical.any():
        m, k = np.unravel_index(unphysical.argmax(), unphysical.shape)
        cell = np.atleast_1d(p[m, proj.index(k)] if k in proj else q[m, herm.index(k)])
        outside = cell[_outside(cell)].tolist()
        if outside:
            raise PhysicalityError(
                f"outcome probability {outside[0]} lies outside [0, 1]; the channel is "
                "not completely positive / trace preserving"
            )
        raise PhysicalityError(
            f"outcome probabilities sum to {totals[m, herm.index(k), 0]}; the channel "
            "is not trace preserving"
        )
    return _clamped(p), (probs / totals if herm else None)


_Side = namedtuple("_Side", "proj herm kets bras ops codes eigs")


def _side(vectors, dim: int, sampled: bool, check) -> _Side:
    """Check each vector once, check(vector, dim), and stack it as _read_table reads a side.

    proj and herm index the 1-d and the 2-d vectors, stacked as kets and their
    bras, and as ops; for the sampled backend codes holds each vector's
    (is_projector, _canon_complex code) and eigs the ops' (evals, evecs,
    evecs_h), otherwise both are None.  Every array is read-only.
    """
    vectors = [check(v, dim) for v in vectors]
    proj = tuple(k for k, v in enumerate(vectors) if v.ndim == 1)
    herm = tuple(k for k, v in enumerate(vectors) if v.ndim == 2)
    kets = np.array([vectors[k] for k in proj]).reshape(len(proj), dim, 1)
    ops = np.array([vectors[k] for k in herm]).reshape(len(herm), dim, dim)
    codes = eigs = None
    if sampled:
        codes = tuple((v.ndim == 1, _canon_complex(v)) for v in vectors)
        pairs = [np.linalg.eigh(o) for o in ops]
        evecs = np.array([v for _, v in pairs]).reshape(ops.shape)
        eigs = (np.array([e for e, _ in pairs]).reshape(len(herm), 1, dim),
                evecs, evecs.conj().transpose(0, 2, 1))
    side = _Side(proj, herm, kets, kets.conj().transpose(0, 2, 1), ops, codes, eigs)
    for arr in (kets, side.bras, ops, *(eigs or ())):
        arr.setflags(write=False)
    return side


def measure_table(
    channel: QuantumChannel,
    states: Sequence[np.ndarray],
    observables: Sequence[np.ndarray],
    config: BackendConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Values and standard errors of every (input state, observable) cell.

    Cell (m, k) is the setting (states[m], observables[k]) and equals what
    measure_setting returns for it, bit for bit.  Each vector is validated,
    and on the sampled backend encoded and eigendecomposed, once per call
    (_side): the observables against the first state, as in its setting,
    then each state against the channel.
    """
    sampled = config.mode == "sampled"
    first = len(np.atleast_1d(states[0])) if len(states) else channel.dim
    cols = _side(observables, first, sampled, _checked_observable)
    return _read_table(channel, _side(states, channel.dim, sampled, _checked_state), cols, config)


def _read_table(
    channel: QuantumChannel, rows: _Side, cols: _Side, config: BackendConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Values and standard errors of every cell of rows x cols, sides checked at the channel's D.

    Rows are read in blocks of at most _TABLE_BLOCK_ENTRIES stacked entries.
    On the sampled backend each cell's key, built from the sides' codes, is
    the setting's canonical_key; only the draws are made cell by cell.
    """
    proj, herm, kets, bras, ops, obs_codes, eigs = cols
    n_rows, dim = rows.kets.shape[:2]
    values = np.zeros((n_rows, len(proj) + len(herm)))
    errs = np.zeros_like(values)
    if not values.shape[1]:
        return values, errs
    sampled = config.mode == "sampled"
    if sampled:
        shots, (evals, evecs, evecs_h) = config.shots, eigs
    # per row: its output state, and a D-vector per projector or a D x D
    # matrix per Hermitian observable in the stacked products
    step = max(1, _TABLE_BLOCK_ENTRIES // ((1 + len(herm)) * dim * dim + len(proj) * dim))
    for start in range(0, n_rows, step):
        block = slice(start, start + step)
        outs = np.array([_output_state(channel, psi) for psi in rows.kets[block, :, 0]])[:, None]
        p = ((bras @ outs) @ kets)[..., 0, 0].real
        if not sampled:
            values[block, proj] = p
            values[block, herm] = np.trace(ops @ outs, axis1=2, axis2=3).real
            continue
        q = np.diagonal(evecs_h @ outs @ evecs, axis1=2, axis2=3).real if herm else None
        p, pvals = _probabilities(p, q, proj, herm)
        streams = _cell_streams(dim, rows.codes[block], obs_codes, config.master_seed)
        if proj:
            est = np.array([
                [_rng(row[k]).binomial(shots, pk) / shots for k, pk in zip(proj, row_p)]
                for row, row_p in zip(streams, p.tolist())
            ])
            values[block, proj] = est
            errs[block, proj] = np.sqrt(est * (1.0 - est) / shots)
        if herm:
            counts = [
                [_rng(row[k]).multinomial(shots, pv) for k, pv in zip(herm, row_p)]
                for row, row_p in zip(streams, pvals)
            ]
            freq = (np.array(counts) / shots)[..., None]
            est = (evals @ freq)[..., 0, 0]
            var = (np.square(evals) @ freq)[..., 0, 0] - est * est
            values[block, herm] = est
            errs[block, herm] = np.sqrt(np.maximum(var, 0.0) / shots)
    return values, errs


def measure_setting(
    channel: QuantumChannel, setting: MeasurementSetting, config: BackendConfig
) -> MeasurementOutcome:
    """The setting's outcome on the backend the config selects: its 1 x 1 table."""
    values, errs = measure_table(channel, [setting.input_state], [setting.observable], config)
    shots = config.shots if config.mode == "sampled" else 0
    return MeasurementOutcome(float(values[0, 0]), float(errs[0, 0]), shots)


def exact_expectation(
    channel: QuantumChannel, setting: MeasurementSetting
) -> MeasurementOutcome:
    """Tr[O eps(|psi><psi|)] evaluated without statistical noise."""
    return measure_setting(channel, setting, BackendConfig())


def sampled_expectation(
    channel: QuantumChannel, setting: MeasurementSetting, config: BackendConfig
) -> MeasurementOutcome:
    """Finite-shot estimate of Tr[O eps(|psi><psi|)].

    Projector observables draw a binomial count at the exact success
    probability; Hermitian observables are eigendecomposed and eigenvalues
    sampled from the corresponding outcome distribution.  Deterministic for
    a fixed (master_seed, setting) pair.
    """
    if config.mode != "sampled":
        raise ValueError("sampled_expectation needs a sampled-mode config")
    return measure_setting(channel, setting, config)


def input_state_set(dim: int) -> list[np.ndarray]:
    """The D^2 tomography input states.

    The D computational basis kets followed by, for each pair a < b in
    row-major order, (|a>+|b>)/sqrt2 and (|a>+i|b>)/sqrt2.  Their
    projectors are linearly independent and span operator space.
    """
    dim = _dimension(dim, "dim", 2)
    states = [basis_state(a, dim) for a in range(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            states.extend(superposition_states(a, b, dim))
    return states


def tp_complete(partials: Mapping[int, float | np.ndarray], dim: int) -> float | np.ndarray:
    """Infer the one unmeasured diagonal expectation from normalization.

    Given D-1 of the D diagonal-projector expectations of a
    trace-preserving channel for a fixed input state, the missing one is
    1 minus their sum, added left to right from 0.  Each level's value may
    be a column of expectations, one per input state; the result is then
    the column of missing ones, each entry bit for bit its row's scalar call.
    """
    dim = _dimension(dim, "dim")
    if len(partials) != dim - 1:
        raise ValueError(
            f"need exactly {dim - 1} diagonal expectations, got {len(partials)}"
        )
    if len({_index(level, dim, "level index") for level in partials}) != dim - 1:
        raise ValueError("duplicate level indices in partial expectations")
    return 1.0 - sum(partials.values())
