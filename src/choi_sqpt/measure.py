"""Measurement backends: exact expectation values and shot-noise sampling.

Every measurement is a table of (input state, observable) cells, read by
measure_table.  Work that depends on one vector is done once per table:
each input state and each observable is validated once, the channel is
applied once per input state (so a table of D^2 input states costs D^2
channel applications), and on the sampled backend each vector is encoded
once for the stream keys and each Hermitian observable eigendecomposed
once.  Per cell there remains only the readout off the row's output
state and, on the sampled backend, the cell's key, random stream and
draw.  measure_row is the one-row table and measure_setting the 1 x 1 one.

Every sampled setting derives its own random stream by hashing a canonical
byte encoding of the setting together with the master seed, so results are
reproducible and independent of evaluation order or concurrent scheduling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .basis import basis_state, superposition_states
from .channels import QuantumChannel, apply_channel

__all__ = [
    "BackendConfig",
    "MeasurementOutcome",
    "MeasurementSetting",
    "PhysicalityError",
    "exact_expectation",
    "input_state_set",
    "measure_row",
    "measure_setting",
    "measure_table",
    "sampled_expectation",
    "tp_complete",
]

# outcome probabilities may poke out of [0, 1] by this much before the
# channel is declared non-physical
PROB_BAND = 1e-9

_MASK64 = (1 << 64) - 1


class PhysicalityError(ValueError):
    """Raised when simulated outcome probabilities are not probabilities."""


def _canon_floats(values) -> str:
    # round to 12 decimals and kill negative zero so equal settings built
    # through different arithmetic hash identically
    return ",".join(format(round(float(v), 12) + 0.0, ".12f") for v in values)


def _canon_complex(arr: np.ndarray) -> str:
    flat = np.asarray(arr).reshape(-1)
    return _canon_floats(np.concatenate([flat.real, flat.imag]))


def _setting_key(dim: int, state_code: str, projector: bool, obs_code: str) -> bytes:
    # the one key format; state_code and obs_code are _canon_complex encodings
    kind = "p" if projector else "h"
    return f"d={dim};in={state_code};obs={kind}:{obs_code}".encode("ascii")


def _checked_state(state) -> np.ndarray:
    state = np.array(state, dtype=complex)
    if state.ndim != 1:
        raise ValueError("input state must be a vector")
    if abs(np.linalg.norm(state) - 1.0) > 1e-12:
        raise ValueError("input state must be a unit vector")
    state.setflags(write=False)
    return state


def _checked_observable(obs, dim: int) -> np.ndarray:
    obs = np.array(obs, dtype=complex)
    if obs.ndim == 1:
        if obs.shape[0] != dim:
            raise ValueError("projector vector dimension mismatch")
        if abs(np.linalg.norm(obs) - 1.0) > 1e-12:
            raise ValueError("projector vector must be a unit vector")
    elif obs.ndim == 2:
        if obs.shape != (dim, dim):
            raise ValueError("observable dimension mismatch")
        if np.max(np.abs(obs - obs.conj().T)) > 1e-12:
            raise ValueError("observable must be Hermitian")
    else:
        raise ValueError("observable must be a vector or a matrix")
    obs.setflags(write=False)
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
        if self.mode == "sampled" and self.shots < 1:
            raise ValueError("sampled mode needs shots >= 1")
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master seed must fit in an unsigned 64-bit integer")

    @property
    def descriptor(self) -> str:
        if self.mode == "exact":
            return "exact"
        return f"sampled(shots={self.shots},seed={self.master_seed})"


def _key_rng(key: bytes, master_seed: int) -> np.random.Generator:
    digest = hashlib.sha256(key).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([master_seed, *words]))


def _output_state(channel: QuantumChannel, psi: np.ndarray) -> np.ndarray:
    if psi.shape[0] != channel.dim:
        raise ValueError(
            f"setting dimension {psi.shape[0]} does not match channel "
            f"dimension {channel.dim}"
        )
    return apply_channel(channel, np.outer(psi, psi.conj()))


def _exact_value(obs: np.ndarray, out: np.ndarray) -> float:
    if obs.ndim == 1:
        value = (obs.conj() @ out @ obs).real
    else:
        value = np.trace(obs @ out).real
    return float(value)


def _clamp_probability(p: float) -> float:
    if p < -PROB_BAND or p > 1.0 + PROB_BAND:
        raise PhysicalityError(
            f"outcome probability {p} lies outside [0, 1]; the channel is "
            "not completely positive / trace preserving"
        )
    return min(max(p, 0.0), 1.0)


def _sampled_value(
    obs: np.ndarray, eig, out: np.ndarray, rng: np.random.Generator, shots: int
) -> tuple[float, float]:
    """(estimate, standard error) of one cell from shots draws of rng.

    A projector draws a binomial count at its exact success probability; a
    Hermitian observable, given its eigendecomposition eig, draws a
    multinomial over its eigenvalues.
    """
    if eig is None:
        p = _clamp_probability(float((obs.conj() @ out @ obs).real))
        hits = rng.binomial(shots, p)
        est = hits / shots
        return float(est), float(np.sqrt(est * (1.0 - est) / shots))
    evals, evecs = eig
    probs = np.array(
        [_clamp_probability(float(p.real)) for p in np.diag(evecs.conj().T @ out @ evecs)]
    )
    total = probs.sum()
    if abs(total - 1.0) > PROB_BAND:
        raise PhysicalityError(
            f"outcome probabilities sum to {total}; the channel is not "
            "trace preserving"
        )
    counts = rng.multinomial(shots, probs / total)
    freq = counts / shots
    est = float(evals @ freq)
    var = float(np.square(evals) @ freq - est * est)
    return est, float(np.sqrt(max(var, 0.0) / shots))


def measure_table(
    channel: QuantumChannel,
    states: Sequence[np.ndarray],
    observables: Sequence[np.ndarray],
    config: BackendConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Values and standard errors of every (input state, observable) cell.

    Cell (m, k) is the setting (states[m], observables[k]) and equals what
    measure_setting returns for it, bit for bit.  Each vector is validated
    once, as MeasurementSetting does, and the channel applied once per
    input state.  On the sampled backend each vector is also encoded once
    and each Hermitian observable eigendecomposed once; a cell's key,
    assembled from those encodings, is the setting's canonical_key, so
    every cell draws from its own stream.
    """
    states = [_checked_state(s) for s in states]
    dim = states[0].shape[0] if states else channel.dim
    observables = [_checked_observable(o, dim) for o in observables]
    values = np.zeros((len(states), len(observables)))
    errs = np.zeros_like(values)
    if not observables:
        return values, errs
    sampled = config.mode == "sampled"
    if sampled:
        state_codes = [_canon_complex(s) for s in states]
        obs_codes = [_canon_complex(o) for o in observables]
        eigs = [None if o.ndim == 1 else np.linalg.eigh(o) for o in observables]
    for m, psi in enumerate(states):
        out = _output_state(channel, psi)
        for k, obs in enumerate(observables):
            if not sampled:
                values[m, k] = _exact_value(obs, out)
                continue
            key = _setting_key(dim, state_codes[m], obs.ndim == 1, obs_codes[k])
            rng = _key_rng(key, config.master_seed)
            values[m, k], errs[m, k] = _sampled_value(obs, eigs[k], out, rng, config.shots)
    return values, errs


def measure_row(
    channel: QuantumChannel,
    input_state: np.ndarray,
    observables: Sequence[np.ndarray],
    config: BackendConfig,
) -> list[MeasurementOutcome]:
    """Outcomes of the settings (input_state, O) for every O in observables.

    The one-row case of measure_table: the channel is applied to
    |psi><psi| once and every observable is read off that one output
    state.
    """
    values, errs = measure_table(channel, [input_state], observables, config)
    shots = config.shots if config.mode == "sampled" else 0
    return [MeasurementOutcome(float(v), float(e), shots) for v, e in zip(values[0], errs[0])]


def exact_expectation(
    channel: QuantumChannel, setting: MeasurementSetting
) -> MeasurementOutcome:
    """Tr[O eps(|psi><psi|)] evaluated without statistical noise."""
    exact = BackendConfig()
    return measure_row(channel, setting.input_state, [setting.observable], exact)[0]


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
    return measure_row(channel, setting.input_state, [setting.observable], config)[0]


def measure_setting(
    channel: QuantumChannel, setting: MeasurementSetting, config: BackendConfig
) -> MeasurementOutcome:
    """Dispatch to the backend selected by the config."""
    return measure_row(channel, setting.input_state, [setting.observable], config)[0]


def input_state_set(dim: int) -> list[np.ndarray]:
    """The D^2 tomography input states.

    The D computational basis kets followed by, for each pair a < b in
    row-major order, (|a>+|b>)/sqrt2 and (|a>+i|b>)/sqrt2.  Their
    projectors are linearly independent and span operator space.
    """
    if dim < 2:
        raise ValueError("the input state set needs dim >= 2")
    states = [basis_state(a, dim) for a in range(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            plus, minus = superposition_states(a, b, dim)
            states.append(plus)
            states.append(minus)
    return states


def tp_complete(partials: Mapping[int, float], dim: int) -> float:
    """Infer the one unmeasured diagonal expectation from normalization.

    Given D-1 of the D diagonal-projector expectations of a
    trace-preserving channel for a fixed input state, the missing one is
    1 minus their sum.
    """
    if len(partials) != dim - 1:
        raise ValueError(
            f"need exactly {dim - 1} diagonal expectations, got {len(partials)}"
        )
    levels = set()
    for level in partials:
        if not 0 <= int(level) < dim:
            raise ValueError(f"level index {level} out of range for dimension {dim}")
        levels.add(int(level))
    if len(levels) != dim - 1:
        raise ValueError("duplicate level indices in partial expectations")
    return 1.0 - float(sum(partials.values()))
