"""The tomography engine.

Reconstructs individual elements of a channel's process matrix from
simulated measurements, and the full matrix from one measured table of
input states x observables.  Both chi and lambda matrices are
``D**2 x D**2`` arrays; a row or column pair (x, y) flattens to ``x * D + y``.

The data matrix lambda collects the channel outputs of the matrix units:
lambda[a*D+b, c*D+d] = Tr[(|c><d|)^dagger eps(|a><b|)].  It is related to
the process matrix entrywise by lambda_{ab;cd} = chi_{ca;db}; the linear
map between the two flattened matrices is a permutation whose inverse is
its transpose, so reconstruction is index relabeling, never a dense solve.
lambda_index and chi_index state that relabeling once, as a map of index
slots; the matrix relabelings, the beta permutation, the element plans and
full choi-four's units (_chi_units) are all derived from it.  Every choi-four
estimate, one element, a set or all D^4, is _choi_four: the table of the input
kets x observable kets (two checked sides) combined pairwise by _combine.  A
lone element reads its expansions' sides (_unit_side), a set its _design, and
full choi-four, its D^4 targets in row-major chi order, the _design cached per
dimension (_choi_four_design).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import (
    PureStateExpansion, _frozen, _solve_expansion, _tensor_products, basis_state,
    expand_choi_four, sud_generators,
)
from .channels import (
    QuantumChannel, _complex_from_pair, _dimension, _index, _integer,
)
from .measure import (
    BackendConfig, PhysicalityError, _checked_observable, _checked_state, _read_table, _side,
    input_state_set, tp_complete,
)

__all__ = [
    "BetaPermutation",
    "ChiElementEstimate",
    "GhzProfile",
    "MeasurementPlan",
    "QuditIndexMap",
    "SqptResult",
    "beta_entry",
    "beta_permutation",
    "chi_from_json",
    "chi_from_lambda",
    "chi_index",
    "chi_to_json",
    "full_sqpt",
    "ghz_profile",
    "lambda_from_chi",
    "lambda_index",
    "lambda_oracle",
    "plan_element",
    "reconstruct_element",
]

CHI_CONVENTION = "choi-row-ef"
PAULI_CONVENTION = "pauli-row-ixyz"

# full_sqpt keeps this many designs of each strategy, keyed by dimension integers
_DESIGN_CACHE_SIZE = 8


# --- lambda/chi index algebra -------------------------------------------------

# lambda_{ab;cd} = chi_{ca;db}: a lambda index tuple (a, b, c, d) takes the
# chi slots (1, 3, 0, 2) of (e, f, g, h), i.e. (a, b, c, d) = (f, h, e, g).
# Every relabeling between the two matrices is derived from this one map.
_LAMBDA_SLOTS = (1, 3, 0, 2)
_CHI_SLOTS = tuple(_LAMBDA_SLOTS.index(k) for k in range(4))


def lambda_index(target: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """Data-matrix indices (a, b, c, d) of the chi element (e, f, g, h)."""
    return tuple(target[k] for k in _LAMBDA_SLOTS)


def chi_index(target: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """Process-matrix indices (e, f, g, h) of the lambda entry (a, b, c, d)."""
    return tuple(target[k] for k in _CHI_SLOTS)


def _chi_units(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Per chi entry, row-major: its input unit a*D+b and observable unit d*D+c."""
    a, b, c, d = lambda_index(np.indices((dim,) * 4).reshape(4, -1))
    return a * dim + b, d * dim + c


def beta_entry(
    ef: tuple[int, int],
    gh: tuple[int, int],
    ab: tuple[int, int],
    cd: tuple[int, int],
) -> int:
    """Matrix element of the chi -> lambda map in the matrix-unit basis.

    Equals delta(e,c) * delta(f,a) * delta(g,d) * delta(h,b): column
    (ef;gh), row (ab;cd).
    """
    e, f = ef
    g, h = gh
    a, b = ab
    c, d = cd
    return int(e == c and f == a and g == d and h == b)


@dataclass(frozen=True, eq=False)
class BetaPermutation:
    """The chi -> lambda map stored as an index bijection on D^4 entries.

    forward[flat(e,f,g,h)] = flat(lambda_index((e,f,g,h))) is the row of the
    single 1 in that column of the dense matrix, whose inverse is its
    transpose; the dense form is materialized only for small dimensions
    (it is D^4 x D^4).
    """

    dim: int
    forward: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "forward", _frozen(self.forward, np.intp))

    def dense(self) -> np.ndarray:
        if self.dim > 3:
            raise ValueError("dense beta is only materialized for dim <= 3")
        n = self.forward.shape[0]
        mat = np.zeros((n, n))
        mat[self.forward, np.arange(n)] = 1.0
        return mat

    def parity(self) -> int:
        """Exact sign of the permutation, (-1)**(entries - cycles)."""
        seen = np.zeros(self.forward.shape[0], dtype=bool)
        cycles = 0
        for start in range(self.forward.shape[0]):
            cycles += not seen[start]
            j = start
            while not seen[j]:
                seen[j] = True
                j = int(self.forward[j])
        return -1 if (seen.size - cycles) % 2 else 1


def beta_permutation(dim: int) -> BetaPermutation:
    dim = _dimension(dim, "dim", 2)
    flat = np.arange(dim**4).reshape(dim * dim, dim * dim)
    return BetaPermutation(dim, chi_from_lambda(flat).ravel())


def lambda_oracle(channel: QuantumChannel) -> np.ndarray:
    """Data matrix computed by pushing every matrix unit through the channel.

    lambda[a*D+b, c*D+d] is the (c, d) entry of eps(|a><b|), evaluated via
    the Kraus sum extended by linearity to non-Hermitian inputs.
    """
    k = channel.kraus_stack()
    lam4 = np.einsum("mca,mdb->abcd", k, k.conj())
    d = channel.dim
    return lam4.reshape(d * d, d * d)


def _relabel(mat: np.ndarray, slots: tuple[int, ...], name: str) -> np.ndarray:
    # out[i] = in[j] for the index tuples i = (j[s] for s in slots)
    mat = np.asarray(mat)
    d = math.isqrt(math.isqrt(mat.size))
    if mat.shape != (d * d, d * d):
        raise ValueError(f"{name} must be D^2 x D^2, got shape {mat.shape}")
    return mat.reshape(d, d, d, d).transpose(slots).reshape(d * d, d * d)


def chi_from_lambda(lam: np.ndarray) -> np.ndarray:
    """Process matrix from the data matrix: chi_{ca;db} = lambda_{ab;cd}."""
    return _relabel(lam, _CHI_SLOTS, "lambda")


def lambda_from_chi(chi: np.ndarray) -> np.ndarray:
    """Inverse relabeling of chi_from_lambda."""
    return _relabel(chi, _LAMBDA_SLOTS, "chi")


# --- single-element planning and reconstruction -------------------------------


@dataclass(frozen=True, eq=False)
class MeasurementPlan:
    """Measurement settings realizing one chi matrix element.

    The element is sum_ij r_i s_j Tr[|phi_j><phi_j| eps(|psi_i><psi_i|)]
    over the input expansion sum_i r_i |psi_i><psi_i| and the observable
    expansion sum_j s_j |phi_j><phi_j|.  The settings are the pairs
    (psi_i, phi_j), input-outer; terms gives each its (r_i s_j, index).
    """

    dim: int
    target: tuple[int, int, int, int]
    inputs: PureStateExpansion
    observables: PureStateExpansion

    @property
    def terms(self) -> tuple[tuple[complex, int], ...]:
        weights = [r * s for r in self.inputs.weights for s in self.observables.weights]
        return tuple((w, idx) for idx, w in enumerate(weights))

    @property
    def settings_count(self) -> int:
        return len(self.inputs.states) * len(self.observables.states)


def plan_element(e: int, f: int, g: int, h: int, dim: int) -> MeasurementPlan:
    """Plan the measurements that determine chi[e*D+f, g*D+h].

    The target element equals the data-matrix entry lambda_{ab;cd} with
    (a, b, c, d) = lambda_index((e, f, g, h)), so the channel input is the
    matrix unit |a><b| (expanded over at most four pure states with
    weights r) and the observable is |d><c| (expanded over at most four
    projectors with weights s).  Settings count 1 for a diagonal target
    (e = g and f = h), 4 when exactly one of the two expansions is a
    single projector, 16 otherwise.
    """
    dim = _dimension(dim, "dim")
    target = tuple(_index(idx, dim, name) for idx, name in zip((e, f, g, h), "efgh"))
    a, b, c, d = lambda_index(target)
    return MeasurementPlan(
        dim=dim,
        target=target,
        inputs=expand_choi_four(a, b, dim),
        observables=expand_choi_four(d, c, dim),
    )


@dataclass(frozen=True)
class ChiElementEstimate:
    """A reconstructed chi element with quadrature-propagated uncertainty."""

    value: complex
    std_error: float
    settings_used: int
    backend: str


def _padded(expansions) -> tuple[np.ndarray, np.ndarray]:
    # each expansion's (table slots, weights), padded with slot 0 and weight 0; read-only
    width = max(len(w) for _, w in expansions)
    slots = np.array([list(i) + [0] * (width - len(i)) for i, _ in expansions], dtype=np.intp)
    weights = np.array([list(w) + [0] * (width - len(w)) for _, w in expansions], dtype=complex)
    return _frozen(slots, np.intp), _frozen(weights)


def _combine(values, errs, rows, cols, var_cols=None) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sums of table cells and their quadrature variances, one per target.

    rows = (i, r) and cols = (j, s) hold, row t, the padded (table slots,
    weights) of target t's input and observable expansion; var_cols, cols
    by default, is the observable side the variance is read through.  Entry
    t is sum_pq r_p s_q T[i_p, j_q], its variance sum_pq |r_p s'_q|**2
    se[i_p, j'_q]**2 over var_cols = (j', s'), both added input-outer, left
    to right, starting from 0.  The weights are dyadic, so every product is
    exact and only that order decides the bits; a padding term adds an
    exact zero.
    """
    (i, r), (j, s) = rows, cols
    jv, sv = cols if var_cols is None else var_cols
    w, wv = (r[:, :, None] * x[:, None, :] for x in (s, sv))
    # one row per (p, q), input-outer: sum() adds them left to right from 0
    terms = (w * values[i[:, :, None], j[:, None, :]]).reshape(len(w), -1).T
    sq_terms = np.abs(wv) ** 2 * np.square(errs)[i[:, :, None], jv[:, None, :]]
    return sum(terms), sum(sq_terms.reshape(len(w), -1).T)


def _table_side(units, chosen) -> tuple[list, list]:
    """The chosen units' distinct kets, first seen first; per unit, (slots, weights) or ([], [])."""
    slot: dict[bytes, int] = {}
    expansions = [([], [])] * len(units)
    for k in dict.fromkeys(chosen):
        slots = [slot.setdefault(ket.tobytes(), len(slot)) for ket in units[k].states]
        expansions[k] = (slots, units[k].weights)
    return [np.frombuffer(ket, complex) for ket in slot], expansions


def _choi_four(channel, config, rows, cols, sides, last=None, partials=None):
    """Every target's estimate and variance, from the table of the sides rows x cols.

    sides holds the targets' padded (slots, weights) as _combine reads them,
    gathered by the caller.  With last set, the unmeasured column last is
    inferred from the columns partials by normalization (tp_complete).
    """
    values, errs = _read_table(channel, rows, cols, config)
    if last is not None:
        values, errs = (np.insert(x, last, 0.0, axis=1) for x in (values, errs))
        values[:, last] = tp_complete(dict(enumerate(values[:, partials].T)), channel.dim)
    return _combine(values, errs, *sides)


def reconstruct_element(
    plan: MeasurementPlan, channel: QuantumChannel, config: BackendConfig
) -> ChiElementEstimate:
    """Measure a plan's <= 4 x 4 table and combine it into the chi element.

    The one-target case of _choi_four, over the plan's own kets, in order:
    the channel is applied once per input state of the plan (1 or 4 times).
    Rows and columns are the expansions' sides, built once each (_unit_side).
    """
    if channel.dim != plan.dim:
        raise ValueError(
            f"plan dimension {plan.dim} does not match channel dimension {channel.dim}"
        )
    (rows, inputs), (cols, observables) = _unit_side(plan.inputs), _unit_side(plan.observables)
    if not rows.kets.shape[1] == cols.kets.shape[1] == channel.dim:
        raise ValueError("projector vector dimension mismatch")
    lam, var = _choi_four(channel, config, rows, cols, (inputs, observables))
    return ChiElementEstimate(
        complex(lam[0]), float(np.sqrt(var[0])), plan.settings_count, config.descriptor
    )


_UNIT_SIDES = weakref.WeakKeyDictionary()  # _unit_side's, kept as long as their expansion


def _unit_side(expansion: PureStateExpansion):
    """An expansion's kets as a side, rows and columns alike, and its (1, n) slots and weights."""
    found = _UNIT_SIDES.get(expansion)
    if found is None:
        side = _side(expansion.states, len(expansion.states[0]), True, _checked_observable)
        slots = _frozen([range(len(expansion.weights))], np.intp), _frozen([expansion.weights])
        found = _UNIT_SIDES[expansion] = side, slots
    return found


# --- full reconstruction -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SqptResult:
    """A fully reconstructed process matrix plus measurement accounting."""

    chi: np.ndarray
    std_errors: np.ndarray
    strategy: str
    settings_total: int
    settings_measured: int
    settings_inferred: int

    def __post_init__(self):
        object.__setattr__(self, "chi", _frozen(self.chi))
        object.__setattr__(self, "std_errors", _frozen(self.std_errors, float))


def full_sqpt(
    channel: QuantumChannel,
    config: BackendConfig,
    strategy: str = "choi-four",
    tp_shortcut: bool = False,
    local_dim: int | None = None,
    n_sites: int | None = None,
) -> SqptResult:
    """Reconstruct the complete D^2 x D^2 process matrix.

    Both strategies measure a D^2 x D^2 table T[m, k] =
    Tr[O_k eps(|psi_m><psi_m|)] once per cell, applying the channel once
    per input state (one row of the table).  "choi-four" is the all-D^4
    case of the path reconstruct_element takes for one element: the D^2
    kets of the matrix-unit expansions (the set input_state_set(D)) meet
    projectors onto the same kets, and every chi entry is its element's
    plan combined input-outer, bit for bit the single-element estimate.
    "product-hermitian" pairs product states with tensor products of SU(d)
    generators, solves lambda = R^T T S and relabels it to chi; pass it
    local_dim and n_sites, with local_dim**n_sites == dim, for qudit sites.

    With tp_shortcut (choi-four only) the computational-basis projector for
    the highest level is never measured: its expectation for each input
    state is inferred from normalization, leaving D^2 (D^2 - 1) measured
    values; the standard errors treat it as 1 minus its partials, not as an
    independent measurement.  The channel must be trace preserving.
    """
    if tp_shortcut:
        if strategy != "choi-four":
            raise ValueError("tp_shortcut is defined only for the choi-four strategy")
        if not channel.is_trace_preserving(1e-10):
            raise PhysicalityError(
                "tp_shortcut requires a trace-preserving channel "
                f"(deviation {channel.tp_deviation():.3e})"
            )
    if strategy == "choi-four":
        if local_dim is not None or n_sites is not None:
            raise ValueError("local_dim and n_sites are defined only for product-hermitian")
        d, n = channel.dim, channel.dim**2
        rows, cols, sides, last, partials = _choi_four_design(d, bool(tp_shortcut))
        inputs, observables = _chi_units(d)
        units = inputs, observables, observables
        targets = [(s[u], w[u]) for (s, w), u in zip(sides, units)]
        chi, var = _choi_four(channel, config, rows, cols, targets, last, partials)
        inferred = n if tp_shortcut else 0
        chi, err = chi.reshape(n, n), np.sqrt(var).reshape(n, n)
        return SqptResult(chi, err, "choi-four", n * n, n * n - inferred, inferred)
    if strategy == "product-hermitian":
        return _full_product_hermitian(channel, config, local_dim, n_sites)
    raise ValueError(f"unknown strategy {strategy!r}")


def _inferred_substituted(slots, weights, last: int, partials: list[int]):
    """An observable expansion with the inferred projector expanded into its partials.

    The cell (i, last) is 1 - sum_l (i, partials[l]), so its weight w moves
    onto each measured partial as -w.  The terms then share no outcome, and
    the quadrature sum over them is the variance of the weighted sum.
    """
    merged = dict(zip(slots, weights))
    if last in merged:
        w = merged.pop(last)
        for k in partials:
            merged[k] = merged.get(k, 0.0) - w
    return list(merged), list(merged.values())


def _full_product_hermitian(
    channel: QuantumChannel,
    config: BackendConfig,
    local_dim: int | None,
    n_sites: int | None,
) -> SqptResult:
    dim = channel.dim
    if (local_dim is None) != (n_sites is None):
        raise ValueError("pass local_dim and n_sites together or not at all")
    if local_dim is None:
        local_dim, n_sites = dim, 1
    local_dim, n_sites = _integer(local_dim, "local_dim"), _integer(n_sites, "n_sites")
    if local_dim**n_sites != dim:
        raise ValueError(
            f"local_dim**n_sites = {local_dim}**{n_sites} does not equal "
            f"the channel dimension {dim}"
        )
    (rows, cols), r_mat, s_mat = _product_hermitian_design(local_dim, n_sites)
    data, errs = _read_table(channel, rows, cols, config)
    n = dim * dim
    lam = r_mat.T @ data @ s_mat
    lam_var = (np.abs(r_mat.T) ** 2) @ np.square(errs) @ (np.abs(s_mat) ** 2)
    chi_var = chi_from_lambda(lam_var)
    return SqptResult(chi_from_lambda(lam), np.sqrt(chi_var), "product-hermitian", n * n, n * n, 0)


def _design(units, inputs, observables, tp_shortcut: bool):
    """The channel-independent half of a choi-four set: (rows, cols, sides, last, partials).

    Target t measures unit units[inputs[t]] with units[observables[t]]; rows
    and cols hold their distinct kets, first seen first, and sides per unit its
    padded (slots, weights) as an input, as an observable and for the variance,
    which the caller gathers per target.  With tp_shortcut (full choi-four's
    D^2 units x*D+y) column last, |D-1>, is inferred from the columns partials.
    """
    dim = len(units[0].states[0])
    row_kets, row_units = _table_side(units, inputs)
    col_kets, col_units = _table_side(units, observables)
    sides = [_padded(row_units), _padded(col_units)]
    last = partials = None
    if tp_shortcut:
        # the unit |l><l| is the one ket |l>
        *partials, last = [col_units[lvl * dim + lvl][0][0] for lvl in range(dim)]
        del col_kets[last]
        col_units = [_inferred_substituted(*unit, last, partials) for unit in col_units]
        partials = tuple(partials)
    sides.append(_padded(col_units) if tp_shortcut else sides[1])
    rows = _side(row_kets, dim, True, _checked_state)
    return rows, _side(col_kets, dim, True, _checked_observable), tuple(sides), last, partials


@lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def _choi_four_design(dim: int, tp_shortcut: bool):
    """Full choi-four's _design, its sides D^2 x 4 (D^2 x (D+1) for the shortcut's variance)."""
    units = [expand_choi_four(x, y, dim) for x, y in np.ndindex(dim, dim)]
    return _design(units, *_chi_units(dim), tp_shortcut)


@lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def _product_hermitian_design(local_dim: int, n_sites: int):
    """The channel-independent half of product-hermitian: ((rows, cols), R, S).

    lambda = R^T T S for the table T of the product states (rows) x the
    tensor products of SU(d) generators (cols).  Built, checked and encoded
    once per (local_dim, n_sites) and process; every array is read-only.
    """
    states = _tensor_products(input_state_set(local_dim), n_sites)
    observables = _tensor_products(list(sud_generators(local_dim).operators), n_sites)
    dim = local_dim**n_sites
    n = dim * dim
    # input weights: columns of P are the vectorized state projectors, and
    # the vectorized matrix unit |a><b| is the (a*D+b)-th unit vector
    proj_cols = np.stack(
        [np.outer(s, s.conj()).reshape(-1) for s in states], axis=1
    )
    r_mat = _solve_expansion(proj_cols, np.eye(n, dtype=complex), "state projectors")
    # observable weights: targets are the adjoint units |d><c| at column c*D+d
    obs_cols = np.stack([o.reshape(-1) for o in observables], axis=1)
    targets = np.eye(n, dtype=complex).reshape(dim, dim, n).transpose(1, 0, 2).reshape(n, n)
    s_mat = _solve_expansion(obs_cols, targets, "basis operators")
    rows = _side(states, dim, True, _checked_state)
    cols = _side(observables, dim, True, _checked_observable)
    return (rows, cols), _frozen(r_mat), _frozen(s_mat)


# --- multi-qudit index utilities ----------------------------------------------


@dataclass(frozen=True)
class QuditIndexMap:
    """Base-d positional bijection between global and per-site indices.

    The first site holds the most significant digit, matching the tensor
    order of kron_channel and of the product bases above.
    """

    n_sites: int
    local_dim: int

    def __post_init__(self):
        _dimension(self.n_sites, "n_sites")
        _dimension(self.local_dim, "local_dim", 2)

    @property
    def dim(self) -> int:
        return self.local_dim**self.n_sites

    def compose(self, digits) -> int:
        digits = tuple(_index(d, self.local_dim, "digit") for d in digits)
        if len(digits) != self.n_sites:
            raise ValueError(f"need {self.n_sites} digits, got {len(digits)}")
        acc = 0
        for d in digits:
            acc = acc * self.local_dim + d
        return acc

    def decompose(self, a: int) -> tuple[int, ...]:
        a = _index(a, self.dim, "index")
        digits = []
        for _ in range(self.n_sites):
            digits.append(a % self.local_dim)
            a //= self.local_dim
        return tuple(reversed(digits))


@dataclass(frozen=True, eq=False)
class GhzProfile:
    """Entanglement structure of the superposition inputs for a level pair.

    The kets (|a>+|b>)/sqrt2 and (|a>+i|b>)/sqrt2 factor into a GHZ-type
    state across the sites where the digit strings of a and b differ,
    tensored with computational states on the agreeing sites; max_residual
    is the numerically verified factorization error.
    """

    a: int
    b: int
    m: int
    differing_sites: tuple[int, ...]
    ghz_plus: np.ndarray
    ghz_minus: np.ndarray
    product_part: np.ndarray
    max_residual: float


def ghz_profile(a: int, b: int, index_map: QuditIndexMap) -> GhzProfile:
    """Locate and verify the GHZ factorization of the (a, b) input states."""
    n, d = index_map.n_sites, index_map.local_dim
    dim = index_map.dim
    da = index_map.decompose(a)
    db = index_map.decompose(b)
    diff = tuple(j for j in range(n) if da[j] != db[j])
    agree = tuple(j for j in range(n) if da[j] == db[j])
    m = len(diff)

    if a == b:
        full = basis_state(a, dim)
        return GhzProfile(a, b, 0, (), np.ones(1, dtype=complex),
                          np.ones(1, dtype=complex), full, 0.0)

    va, vb = basis_state(a, dim), basis_state(b, dim)
    plus = (va + vb) / np.sqrt(2)
    minus = (va + 1j * vb) / np.sqrt(2)

    ia = ib = 0
    for j in diff:
        ia = ia * d + da[j]
        ib = ib * d + db[j]
    ghz_plus = np.zeros(d**m, dtype=complex)
    ghz_minus = np.zeros(d**m, dtype=complex)
    ghz_plus[ia] = ghz_minus[ia] = 1 / np.sqrt(2)
    ghz_plus[ib] = 1 / np.sqrt(2)
    ghz_minus[ib] = 1j / np.sqrt(2)

    ip = 0
    for j in agree:
        ip = ip * d + da[j]
    product_part = np.zeros(d ** (n - m), dtype=complex)
    product_part[ip] = 1.0

    residual = 0.0
    for state, factor in ((plus, ghz_plus), (minus, ghz_minus)):
        tensor = state.reshape((d,) * n)
        mat = np.transpose(tensor, diff + agree).reshape(d**m, d ** (n - m))
        residual = max(residual, float(np.max(np.abs(mat - np.outer(factor, product_part)))))
    return GhzProfile(a, b, m, diff, ghz_plus, ghz_minus, product_part, residual)


# --- chi JSON format -----------------------------------------------------------
#
# {"dim": D, "convention": "choi-row-ef", "entries": [[re, im], ...]} with the
# entries row-major over the D^2 x D^2 matrix.


def chi_to_json(chi: np.ndarray, convention: str = CHI_CONVENTION) -> dict:
    chi = np.asarray(chi, dtype=complex)
    d = math.isqrt(math.isqrt(chi.size))
    if chi.shape != (d * d, d * d):
        raise ValueError(f"chi must be D^2 x D^2, got shape {chi.shape}")
    entries = np.stack((chi.real, chi.imag), axis=-1).reshape(-1, 2).tolist()
    return {"dim": d, "convention": convention, "entries": entries}


def chi_from_json(obj) -> tuple[np.ndarray, str]:
    """Parse a chi JSON document, returning the matrix and its convention."""
    if not isinstance(obj, dict):
        raise ValueError("chi document must be a JSON object")
    dim = _dimension(obj.get("dim"), "'dim'")
    convention = obj.get("convention")
    if convention not in (CHI_CONVENTION, PAULI_CONVENTION):
        raise ValueError(f"unknown chi convention {convention!r}")
    entries = obj.get("entries")
    if not isinstance(entries, list) or len(entries) != dim**4:
        raise ValueError(f"'entries' must list {dim**4} [re, im] pairs")
    values = [_complex_from_pair(entry) for entry in entries]
    chi = np.array(values, dtype=complex).reshape(dim * dim, dim * dim)
    return chi, convention
