"""Kraus-operator quantum channels and the reference chi matrix.

Conventions used throughout the package:

* Operators on a D-level system are dense complex numpy arrays; pure states
  are 1-d arrays of length D.
* The matrix unit |a><b| carries the flat index ``a * D + b``.  Process
  matrices are ``D**2 x D**2`` arrays whose rows and columns both follow
  that flattening, so ``chi[e*D+f, g*D+h]`` multiplies the pair
  (|e><f|, |g><h|^dagger) in the channel expansion.
* ``chi_oracle`` computes the process matrix directly from the Kraus
  operators and is the trusted reference every tomography routine in this
  package is checked against.

Trace preservation is a queryable property, not an enforced invariant:
non-trace-preserving Kraus sets are legal inputs everywhere except the few
operations that explicitly demand a trace-preserving channel.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ChannelFormatError",
    "QuantumChannel",
    "ValidationReport",
    "apply_channel",
    "apply_chi",
    "assert_density_matrix",
    "channel_from_json",
    "channel_to_json",
    "chi_oracle",
    "haar_isometry",
    "kron_channel",
    "load_channel",
    "preset_channel",
    "random_density_matrix",
    "save_channel",
    "validate_cptp",
    "PRESET_NAMES",
]

PRESET_NAMES = (
    "identity",
    "bit-flip",
    "phase-flip",
    "depolarizing",
    "amplitude-damping",
    "random-cptp",
)


class ChannelFormatError(ValueError):
    """Raised when a channel JSON document does not match the schema."""


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """A channel presented as a finite collection of D x D Kraus operators."""

    dim: int
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "dim", _dimension(self.dim, "dimension"))
        if len(self.kraus) == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        ops = []
        for k in self.kraus:
            arr = np.asarray(k, dtype=complex)
            if arr.shape != (self.dim, self.dim):
                raise ValueError(
                    f"Kraus operator has shape {arr.shape}, expected "
                    f"({self.dim}, {self.dim})"
                )
            ops.append(arr)
        # one read-only copy of the operators; kraus holds views into it
        stack = _finite(np.stack(ops), "Kraus operator entries")
        stack.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "kraus", tuple(stack))

    def kraus_stack(self) -> np.ndarray:
        """All Kraus operators as one read-only (rank, D, D) array."""
        return self._stack

    def tp_deviation(self) -> float:
        """Max-norm distance of sum_m E_m^dagger E_m from the identity."""
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for k in self.kraus:
            acc += k.conj().T @ k
        return float(np.max(np.abs(acc - np.eye(self.dim))))

    def is_trace_preserving(self, atol: float = 1e-10) -> bool:
        return self.tp_deviation() <= atol


def apply_channel(channel: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Propagate an operator through the channel: sum_m E_m rho E_m^dagger.

    ``rho`` is usually a density matrix but any D x D operator is accepted;
    the Kraus sum is linear so non-Hermitian inputs are meaningful too.
    The terms are added one at a time, in Kraus order, starting from zeros.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (channel.dim, channel.dim):
        raise ValueError(
            f"state has shape {rho.shape}, channel dimension is {channel.dim}"
        )
    out = np.zeros_like(rho)
    for k in channel.kraus:
        out += k @ rho @ k.conj().T
    return out


def apply_chi(chi: np.ndarray, ops: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """Propagate ``rho`` using expansion coefficients over an operator list.

    Evaluates sum_ij chi[i, j] * ops[i] @ rho @ ops[j]^dagger, the channel
    action written in an arbitrary operator basis.
    """
    stack = np.stack([np.asarray(op, dtype=complex) for op in ops])
    rho = np.asarray(rho, dtype=complex)
    left = stack @ rho
    return np.einsum("ij,iac,jdc->ad", chi, left, stack.conj())


def chi_oracle(channel: QuantumChannel) -> np.ndarray:
    """Process matrix computed directly from the Kraus operators.

    chi[e*D+f, g*D+h] = sum_m E_m[e, f] * conj(E_m[g, h]); Hermitian and
    positive semidefinite by construction, with trace D for a
    trace-preserving channel.
    """
    flat = channel.kraus_stack().reshape(len(channel.kraus), -1)
    return flat.T @ flat.conj()


@dataclass(frozen=True)
class ValidationReport:
    """Physicality witnesses for a Kraus-operator channel."""

    dim: int
    kraus_count: int
    tol: float
    tp_deviation: float
    trace_preserving: bool
    min_chi_eigenvalue: float
    completely_positive: bool
    chi_trace: float

    @property
    def cptp(self) -> bool:
        return self.trace_preserving and self.completely_positive


def validate_cptp(channel: QuantumChannel, tol: float = 1e-10) -> ValidationReport:
    """Check trace preservation and complete positivity, reporting witnesses.

    Never raises on an unphysical channel: failures are carried in the
    report so callers can decide what to do with them.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be a finite positive number")
    dev = channel.tp_deviation()
    chi = chi_oracle(channel)
    eigs = np.linalg.eigvalsh(chi)
    min_eig = float(eigs[0])
    return ValidationReport(
        dim=channel.dim,
        kraus_count=len(channel.kraus),
        tol=tol,
        tp_deviation=dev,
        trace_preserving=dev <= tol,
        min_chi_eigenvalue=min_eig,
        completely_positive=min_eig >= -tol,
        chi_trace=float(np.trace(chi).real),
    )


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random isometry with orthonormal columns (rows >= cols)."""
    rows, cols = _dimension(rows, "rows"), _dimension(cols, "cols")
    if rows < cols:
        raise ValueError("an isometry needs rows >= cols")
    z = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    q, r = np.linalg.qr(z)
    # fix column phases so the distribution is genuinely Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank mixed state from the Ginibre ensemble."""
    dim = _dimension(dim, "dim")
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def assert_density_matrix(rho: np.ndarray, atol: float = 1e-10) -> None:
    """Raise ValueError unless rho is Hermitian, unit trace and PSD."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    _finite(rho, "density matrix entries")
    if np.max(np.abs(rho - rho.conj().T)) > atol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > atol or abs(np.trace(rho).imag) > atol:
        raise ValueError(f"density matrix trace is {np.trace(rho)}, expected 1")
    if np.linalg.eigvalsh(rho)[0] < -atol:
        raise ValueError("density matrix has a negative eigenvalue")


def _one_probability(params: Sequence[float], name: str) -> float:
    if len(params) != 1:
        raise ValueError(f"{name} takes exactly one parameter, got {len(params)}")
    p = float(params[0])
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} parameter must lie in [0, 1], got {p}")
    return p


def _integer(value, name: str) -> int:
    # an int or numpy integer, never a bool; a float is refused, not truncated
    if type(value) is int:  # the common case, without the slower ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _dimension(value, name: str, least: int = 1) -> int:
    # an integer of at least `least`
    value = _integer(value, name)
    if value < least:
        bound = "positive" if least == 1 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


def _index(value, dim: int, name: str) -> int:
    # an integer in range(dim)
    value = _integer(value, name)
    if not 0 <= value < dim:
        raise ValueError(f"{name} {value} out of range for dimension {dim}")
    return value


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    # NaN fails every tolerance comparison, so non-finite input is refused here
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    return arr


def _unit_vector(vec: np.ndarray, what: str, entries: str | None = None) -> np.ndarray:
    # a NaN norm fails this comparison too; only then are the entries scanned
    if not abs(np.linalg.norm(vec) - 1.0) <= 1e-12:
        _finite(vec, entries or f"{what} entries")
        raise ValueError(f"{what} must be a unit vector")
    return vec


def _hermitian(op: np.ndarray, what: str, entries: str | None = None) -> np.ndarray:
    _finite(op, entries or f"{what} entries")
    if np.max(np.abs(op - op.conj().T)) > 1e-12:
        raise ValueError(f"{what} must be Hermitian")
    return op


def _whole(value) -> bool:
    # an integer, or a float without a fraction; inf and nan have no int()
    return isinstance(value, numbers.Integral) or (math.isfinite(value) and int(value) == value)


def _require_qubit(name: str, dim: int) -> None:
    if dim != 2:
        raise ValueError(f"preset '{name}' is defined for dim=2, got dim={dim}")


def _clock_shift(dim: int) -> tuple[np.ndarray, np.ndarray]:
    shift = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        shift[(j + 1) % dim, j] = 1.0
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    return shift, clock


def preset_channel(
    name: str, params: Sequence[float] = (), dim: int = 2
) -> QuantumChannel:
    """Build one of the named example channels.

    bit-flip / phase-flip / amplitude-damping take one probability and are
    qubit channels; depolarizing takes one probability and works at any
    dimension (uniform mixing towards I/D); random-cptp reads params as
    (seed,) or (seed, kraus_rank), rank defaulting to dim**2, and is CPTP
    by construction (stacked blocks of a Haar-random isometry).
    """
    dim = _dimension(dim, "dimension")
    if name == "identity":
        if params:
            raise ValueError("identity takes no parameters")
        return QuantumChannel(dim, (np.eye(dim, dtype=complex),))

    if name in ("bit-flip", "phase-flip"):
        _require_qubit(name, dim)
        p = _one_probability(params, name)
        flip = [[0, 1], [1, 0]] if name == "bit-flip" else [[1, 0], [0, -1]]
        flip = np.array(flip, dtype=complex)
        return QuantumChannel(2, (np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * flip))

    if name == "amplitude-damping":
        _require_qubit(name, dim)
        gamma = _one_probability(params, name)
        k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
        k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
        return QuantumChannel(2, (k0, k1))

    if name == "depolarizing":
        p = _one_probability(params, name)
        shift, clock = _clock_shift(dim)
        kraus = [np.sqrt(1 - p + p / dim**2) * np.eye(dim, dtype=complex)]
        for k in range(dim):
            for l in range(dim):
                if k == 0 and l == 0:
                    continue
                kraus.append(
                    np.sqrt(p) / dim
                    * np.linalg.matrix_power(shift, k)
                    @ np.linalg.matrix_power(clock, l)
                )
        return QuantumChannel(dim, tuple(kraus))

    if name == "random-cptp":
        if len(params) not in (1, 2):
            raise ValueError("random-cptp takes (seed,) or (seed, kraus_rank)")
        seed, rank = params[0], (params[1] if len(params) == 2 else dim * dim)
        if not _whole(seed) or seed < 0:
            raise ValueError(f"random-cptp seed must be a non-negative integer, got {seed}")
        if not _whole(rank) or rank < 1:
            raise ValueError(f"random-cptp rank must be a positive integer, got {rank}")
        seed, rank = int(seed), int(rank)
        rng = np.random.default_rng(seed)
        iso = haar_isometry(rank * dim, dim, rng)
        kraus = tuple(iso[m * dim : (m + 1) * dim] for m in range(rank))
        return QuantumChannel(dim, kraus)

    raise ValueError(f"unknown preset '{name}'; choose from {PRESET_NAMES}")


def kron_channel(ch1: QuantumChannel, ch2: QuantumChannel) -> QuantumChannel:
    """Tensor product channel with Kraus set {E_m (x) F_n}.

    The first factor is the most significant subsystem, matching the
    base-d index convention used by the multi-qudit utilities.
    """
    kraus = tuple(np.kron(a, b) for a in ch1.kraus for b in ch2.kraus)
    return QuantumChannel(ch1.dim * ch2.dim, kraus)


# --- JSON channel format -----------------------------------------------------
#
# {"dim": D, "kraus": [M1, M2, ...]} where each M is a list of D rows of D
# entries, each entry a two-element [re, im] list.


def _complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def channel_to_json(channel: QuantumChannel) -> dict:
    return {
        "dim": channel.dim,
        "kraus": [
            [[_complex_to_pair(z) for z in row] for row in np.asarray(k)]
            for k in channel.kraus
        ],
    }


def _complex_from_pair(entry) -> complex:
    """Decode a JSON [re, im] pair; anything but two finite reals is a ValueError."""
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max  # False for NaN, inf and too-large ints
            for v in entry
        )
    ):
        raise ValueError(
            f"matrix entry must be a [re, im] pair of finite numbers, got {entry!r:.60}"
        )
    return complex(entry[0], entry[1])


def channel_from_json(obj) -> QuantumChannel:
    """Parse the channel JSON schema, rejecting malformed documents."""
    if not isinstance(obj, dict):
        raise ChannelFormatError("channel document must be a JSON object")
    try:
        dim = _dimension(obj.get("dim"), "'dim'")
    except ValueError as exc:
        raise ChannelFormatError(str(exc)) from None
    kraus_raw = obj.get("kraus")
    if not isinstance(kraus_raw, list) or not kraus_raw:
        raise ChannelFormatError("'kraus' must be a non-empty list of matrices")
    kraus = []
    for idx, mat in enumerate(kraus_raw):
        if not isinstance(mat, list) or len(mat) != dim:
            raise ChannelFormatError(
                f"Kraus operator {idx} must have {dim} rows"
            )
        rows = []
        for row in mat:
            if not isinstance(row, list) or len(row) != dim:
                raise ChannelFormatError(
                    f"Kraus operator {idx} must be square with dimension {dim}"
                )
            try:
                rows.append([_complex_from_pair(e) for e in row])
            except ValueError as exc:
                raise ChannelFormatError(f"Kraus operator {idx}: {exc}") from None
        kraus.append(np.array(rows, dtype=complex))
    return QuantumChannel(dim, tuple(kraus))


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise ChannelFormatError(f"invalid JSON in {path}: {exc}") from exc


def load_channel(path) -> QuantumChannel:
    return channel_from_json(_read_json(path))


def save_channel(channel: QuantumChannel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_to_json(channel), fh, sort_keys=True)
        fh.write("\n")
