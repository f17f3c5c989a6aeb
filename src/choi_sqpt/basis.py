"""Operator bases and pure-state expansions.

Provides the matrix-unit basis |a><b|, the four-pure-state expansion of a
matrix unit, the SU(d) generator basis (identity plus generalized
Gell-Mann matrices), and the unitary change of basis between matrix-unit
and Pauli process matrices for qubit systems.

An expansion verifies on construction that it reproduces its matrix unit,
so a successfully built expansion is already a checked identity.  The check
runs on the states' support: a unit's kets have at most two nonzero
entries, so it costs O(D), not O(D^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError

from .channels import _dimension, _hermitian, _index, _integer, _unit_vector

__all__ = [
    "HermitianBasis",
    "PureStateExpansion",
    "basis_state",
    "choi_basis",
    "choi_op",
    "chi_choi_to_pauli",
    "chi_pauli_to_choi",
    "expand_choi_four",
    "pauli_basis",
    "pauli_choi_unitary",
    "sud_generators",
    "superposition_states",
]

# an expansion reproduces its matrix unit to this max-abs residual
_EXPANSION_ATOL = 1e-12

# expand_choi_four keeps this many (a, b, D) units; a unit holds at most four
# kets of 16 * D bytes, so the cache holds at most 64 * D KiB (64 MiB at D = 1024)
_UNIT_CACHE_SIZE = 1024


def _frozen(arr: np.ndarray, dtype=complex) -> np.ndarray:
    # a read-only copy; an array already read-only, of dtype and owning its data is kept
    kept = isinstance(arr, np.ndarray) and arr.flags.owndata and not arr.flags.writeable
    out = arr if kept and arr.dtype == dtype else np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def basis_state(a: int, dim: int) -> np.ndarray:
    """Computational basis ket |a>."""
    dim = _integer(dim, "dim")
    a = _index(a, dim, "level index")
    vec = np.zeros(dim, dtype=complex)
    vec[a] = 1.0
    return vec


def choi_op(a: int, b: int, dim: int) -> np.ndarray:
    """Matrix unit |a><b|.

    The set of all D^2 matrix units is orthonormal under the
    Hilbert-Schmidt inner product Tr[A^dagger B].
    """
    dim = _integer(dim, "dim")
    a, b = _index(a, dim, "a"), _index(b, dim, "b")
    m = np.zeros((dim, dim), dtype=complex)
    m[a, b] = 1.0
    return m


def choi_basis(dim: int) -> list[np.ndarray]:
    """All matrix units in flat order (index a*dim + b)."""
    dim = _dimension(dim, "dim")
    return [choi_op(a, b, dim) for a in range(dim) for b in range(dim)]


def superposition_states(a: int, b: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The two superposition kets (|a>+|b>)/sqrt2 and (|a>+i|b>)/sqrt2 for a < b."""
    dim = _integer(dim, "dim")
    a, b = _index(a, dim, "a"), _index(b, dim, "b")
    if not a < b:
        raise ValueError(f"superposition states need a < b, got a={a}, b={b}")
    plus = (basis_state(a, dim) + basis_state(b, dim)) / np.sqrt(2)
    minus = (basis_state(a, dim) + 1j * basis_state(b, dim)) / np.sqrt(2)
    return plus, minus


@dataclass(frozen=True, eq=False)
class PureStateExpansion:
    """|a><b| = sum_i weights[i] * |states[i]><states[i]| for target = (a, b).

    Verified on construction on the support S of the states (the levels
    where any state is nonzero) together with a and b: off S x S both sides
    are exactly zero, so the |S| x |S| block decides the dense identity.  No two
    states share a projector, so each state is one setting.
    """

    weights: tuple[complex, ...]
    states: tuple[np.ndarray, ...]
    target: tuple[int, int]

    def __post_init__(self):
        if len(self.weights) != len(self.states):
            raise ValueError("weights and states must pair up")
        states = tuple(
            _unit_vector(_frozen(s), "each expansion state", "expansion states")
            for s in self.states
        )
        if len({s.shape for s in states}) != 1 or states[0].ndim != 1:  # none, or not kets alike
            raise ValueError("expansion states must be one or more vectors of one length")
        weights = tuple(complex(w) for w in self.weights)
        kets = np.stack(states)
        levels = np.arange(kets.shape[1])
        a, b = (_index(x, len(levels), "target level") for x in self.target)
        support = kets.any(axis=0) | (levels == a) | (levels == b)
        block = kets[:, support]
        overlaps = np.abs(block.conj() @ block.T) + np.eye(len(block))  # a state with itself: 2
        if (np.abs(overlaps - 1.0) <= _EXPANSION_ATOL).any():
            raise ValueError("expansion states must not repeat a projector")
        want = np.outer(levels[support] == a, levels[support] == b)
        residual = np.max(np.abs((block.T * weights) @ block.conj() - want))
        if not residual <= _EXPANSION_ATOL:  # a NaN weight makes the residual NaN
            raise ValueError(f"expansion does not reproduce its target (residual {residual:.3e})")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "target", (a, b))

    def reconstruct(self) -> np.ndarray:
        dim = self.states[0].shape[0]
        out = np.zeros((dim, dim), dtype=complex)
        for w, s in zip(self.weights, self.states):
            out += w * np.outer(s, s.conj())
        return out


def expand_choi_four(a: int, b: int, dim: int) -> PureStateExpansion:
    """Expand the matrix unit |a><b| over at most four pure-state projectors.

    For a < b the expansion is
        |ab,+><ab,+| + i |ab,-><ab,-| - (1+i)/2 (|a><a| + |b><b|)
    with |ab,+> = (|a>+|b>)/sqrt2 and |ab,-> = (|a>+i|b>)/sqrt2; for a > b
    the weights are the conjugates of the (b, a) expansion on the same four
    states; a diagonal unit is the single projector |a><a|.

    The arguments must be integers, checked before the lookup in a cache of
    the _UNIT_CACHE_SIZE most recently used (a, b, dim) units; each unit is
    built and verified once, so repeated calls return the same read-only
    object.  An out-of-range index raises in _choi_four_unit, and a raise is
    never cached.
    """
    return _choi_four_unit(_integer(a, "a"), _integer(b, "b"), _integer(dim, "dim"))


@lru_cache(maxsize=_UNIT_CACHE_SIZE)
def _choi_four_unit(a: int, b: int, dim: int) -> PureStateExpansion:
    if a == b:
        return PureStateExpansion((1.0,), (basis_state(a, dim),), (a, b))
    if a < b:
        plus, minus = superposition_states(a, b, dim)
        weights = (1.0, 1.0j, -(1.0 + 1.0j) / 2, -(1.0 + 1.0j) / 2)
        states = (plus, minus, basis_state(a, dim), basis_state(b, dim))
    else:
        plus, minus = superposition_states(b, a, dim)
        weights = (1.0, -1.0j, -(1.0 - 1.0j) / 2, -(1.0 - 1.0j) / 2)
        states = (plus, minus, basis_state(b, dim), basis_state(a, dim))
    return PureStateExpansion(weights, states, (a, b))


@dataclass(frozen=True, eq=False)
class HermitianBasis:
    """D^2 linearly independent Hermitian operators on a D-level system."""

    dim: int
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "dim", _dimension(self.dim, "dim"))
        if len(self.operators) != self.dim * self.dim:
            raise ValueError(
                f"a Hermitian basis at dimension {self.dim} needs "
                f"{self.dim**2} operators, got {len(self.operators)}"
            )
        ops = []
        for o in self.operators:
            arr = np.asarray(o, dtype=complex)
            if arr.shape != (self.dim, self.dim):
                raise ValueError("basis operators must be D x D")
            ops.append(_frozen(_hermitian(arr, "basis operators", "basis operators")))
        object.__setattr__(self, "operators", tuple(ops))
        gram = self.gram()
        if np.linalg.matrix_rank(gram) < self.dim * self.dim:
            raise LinAlgError("Hermitian basis Gram matrix is singular")

    def gram(self) -> np.ndarray:
        flat = np.stack([o.reshape(-1) for o in self.operators])
        return (flat @ flat.conj().T).real


def sud_generators(d: int) -> HermitianBasis:
    """Identity plus the d^2 - 1 generalized Gell-Mann matrices.

    Ordering: identity, symmetric pairs (j < k row-major), antisymmetric
    pairs, then the diagonal family; non-identity generators satisfy
    Tr[G_i G_j] = 2 delta_ij.  At d=2 this is exactly (I, sx, sy, sz).
    """
    d = _dimension(d, "d", 2)
    ops = [np.eye(d, dtype=complex)]
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1.0
            ops.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            ops.append(m)
    for l in range(1, d):
        diag = np.zeros(d, dtype=complex)
        diag[:l] = 1.0
        diag[l] = -l
        ops.append(np.sqrt(2.0 / (l * (l + 1))) * np.diag(diag))
    return HermitianBasis(d, tuple(ops))


def pauli_basis(n_qubits: int) -> list[np.ndarray]:
    """Tensor products of (I, sx, sy, sz), first site most significant."""
    n_qubits = _dimension(n_qubits, "n_qubits")
    return _tensor_products(list(sud_generators(2).operators), n_qubits)


def _tensor_products(factors: list[np.ndarray], n_sites: int) -> list[np.ndarray]:
    # every n_sites-fold kron of the factors, first site most significant
    out = list(factors)
    for _ in range(n_sites - 1):
        out = [np.kron(a, b) for a in out for b in factors]
    return out


# --- matrix-unit <-> Pauli process-matrix conversion -------------------------

_U_SINGLE = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, -1j, 1j, 0],
        [1, 0, 0, -1],
    ],
    dtype=complex,
) / np.sqrt(2)


def pauli_choi_unitary(n_qubits: int) -> np.ndarray:
    """Unitary mapping sqrt(2)-scaled matrix units to the Pauli operators.

    The single-qubit block sends (sqrt2 |a><b|) for ab = 00, 01, 10, 11 to
    (I, sx, sy, sz); N qubits use its N-fold tensor power.
    """
    n_qubits = _dimension(n_qubits, "n_qubits")
    u = _U_SINGLE
    for _ in range(n_qubits - 1):
        u = np.kron(u, _U_SINGLE)
    return u


def _site_major_unit_order(n_qubits: int) -> np.ndarray:
    """perm[j] = global flat index a*D+b of the j-th site-major matrix unit.

    Site-major: j runs over per-site index pairs (a_k, b_k) encoded base 4
    with the first site most significant, matching the tensor-product order
    of pauli_choi_unitary; the global order interleaves all a digits before
    all b digits instead.
    """
    # the global index's bits are a_1..a_N b_1..b_N; interleave them per site
    axes = [ax for k in range(n_qubits) for ax in (k, n_qubits + k)]
    return np.arange(4**n_qubits).reshape((2,) * 2 * n_qubits).transpose(axes).ravel()


def _check_chi_shape(chi: np.ndarray, n_qubits: int) -> np.ndarray:
    _dimension(n_qubits, "n_qubits")
    chi = np.asarray(chi, dtype=complex)
    side = 4**n_qubits
    if chi.shape != (side, side):
        raise ValueError(
            f"process matrix for {n_qubits} qubit(s) must be {side} x {side}, "
            f"got {chi.shape}"
        )
    return chi


def chi_choi_to_pauli(chi_c: np.ndarray, n_qubits: int) -> np.ndarray:
    """Re-express a matrix-unit process matrix over tensor-Pauli operators.

    The output, used as coefficients over pauli_basis(n_qubits), reproduces
    the same channel action as the input over the matrix units.  Index
    order of the result is (I, sx, sy, sz) per site, first site most
    significant.
    """
    chi_c = _check_chi_shape(chi_c, n_qubits)
    perm = _site_major_unit_order(n_qubits)
    # rebase onto site-major sqrt(2)-scaled units, then rotate into Paulis
    chi_site = chi_c[np.ix_(perm, perm)] / 2**n_qubits
    u = pauli_choi_unitary(n_qubits)
    return u.conj() @ chi_site @ u.T


def chi_pauli_to_choi(chi_p: np.ndarray, n_qubits: int) -> np.ndarray:
    """Inverse of chi_choi_to_pauli."""
    chi_p = _check_chi_shape(chi_p, n_qubits)
    u = pauli_choi_unitary(n_qubits)
    chi_site = u.T @ chi_p @ u.conj()
    perm = _site_major_unit_order(n_qubits)
    side = 4**n_qubits
    chi_c = np.empty((side, side), dtype=complex)
    chi_c[np.ix_(perm, perm)] = chi_site * 2**n_qubits
    return chi_c
