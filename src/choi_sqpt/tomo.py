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
slots; the matrix relabelings, the beta permutation and the element plans
are all derived from it.  Every choi-four estimate reads the table of its
kets (two checked sides).  _combine adds a grid of input units |a><b| x
observable units |d><c| (_choi_four) in blocks of input units: a set's grid of
its distinct units (_design), full choi-four's of every unit x*D+y on both sides
(_choi_four_design).  A lone element adds its at most 16 terms in floats, in
_combine's order (reconstruct_element).  full_sqpt relabels either strategy to
chi in one tail.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import (
    PureStateExpansion, _frozen, _tensor_products, basis_state,
    expand_choi_four, sud_generators,
)
from .channels import (
    QuantumChannel, _blocks, _chi_dim, _complex_from_pair, _dimension, _finite, _index,
    _instance, _integer,
)
from .measure import (
    BackendConfig, PhysicalityError, _Side, _Table, _read_table, input_state_set, tp_complete,
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
_CONVENTIONS = (CHI_CONVENTION, PAULI_CONVENTION)  # the chi JSON conventions, read and written

# full_sqpt keeps this many designs of each strategy, keyed by dimension integers
_DESIGN_CACHE_SIZE = 8


# --- lambda/chi index algebra -------------------------------------------------

# lambda_{ab;cd} = chi_{ca;db}: a lambda index tuple (a, b, c, d) takes the
# chi slots (1, 3, 0, 2) of (e, f, g, h), i.e. (a, b, c, d) = (f, h, e, g).
# Every relabeling between the two matrices is derived from this one map.
_LAMBDA_SLOTS = (1, 3, 0, 2)
_CHI_SLOTS = tuple(_LAMBDA_SLOTS.index(k) for k in range(4))


def _slotted(target, slots: tuple[int, ...]) -> tuple:
    # the entries of target, four indices, at slots
    try:
        if len(target) == 4:
            return tuple(target[k] for k in slots)
    except (TypeError, LookupError):  # no length, or no entries 0..3
        pass
    raise ValueError(f"target must be four indices, got {target!r:.60}")


def lambda_index(target: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """Data-matrix indices (a, b, c, d) of the chi element (e, f, g, h)."""
    return _slotted(target, _LAMBDA_SLOTS)


def chi_index(target: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """Process-matrix indices (e, f, g, h) of the lambda entry (a, b, c, d)."""
    return _slotted(target, _CHI_SLOTS)


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
    k = _instance(channel, QuantumChannel, "channel").kraus_stack()
    lam4 = np.einsum("mca,mdb->abcd", k, k.conj())
    d = channel.dim
    return lam4.reshape(d * d, d * d)


def _relabel(mat: np.ndarray, slots: tuple[int, ...], name: str) -> np.ndarray:
    # out[i] = in[j] for the index tuples i = (j[s] for s in slots)
    mat = np.asarray(mat)
    d = _chi_dim(mat, name)
    out = np.empty(mat.shape, mat.dtype)
    np.copyto(out.reshape(d, d, d, d), mat.reshape(d, d, d, d).transpose(slots))
    return out


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

    def __post_init__(self):
        # verified expansions of dim-long kets that make the target, four Python ints: sides
        # read them unchecked
        object.__setattr__(self, "dim", _dimension(self.dim, "dim"))
        for name in ("inputs", "observables"):
            if len(_instance(getattr(self, name), PureStateExpansion, name).states[0]) != self.dim:
                raise ValueError(f"{name} kets must have length dim = {self.dim}")
        target = _slotted(self.target, (0, 1, 2, 3))  # four entries, or refused
        try:
            target = tuple(_integer(idx, "target") for idx in target)
        except ValueError:
            raise ValueError(f"target must be four integers, got {self.target!r:.60}") from None
        object.__setattr__(self, "target", target)
        units = (*self.inputs.target, *reversed(self.observables.target))
        if lambda_index(target) != units:
            raise ValueError(
                f"target {self.target!r:.60} differs from the expansions' {chi_index(units)}"
            )

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
    slots, weights = ([[*x] + [0] * (width - len(x)) for x in part] for part in zip(*expansions))
    return _frozen(slots, np.intp), _frozen(weights)


def _combine(values, errs, rows, cols, var_cols) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sums of table cells and their quadrature variances over a grid of units.

    rows = (i, r) holds, row u, input unit u's padded (table slots, weights),
    cols = (j, s) observable unit v's and var_cols = (j', s') those the
    variance is read through (cols, or the shortcut's substitution).  Entry
    (u, v) is sum_pq r_up s_vq T[i_up, j_vq], its variance sum_pq |r_up s'_vq|**2
    se[i_up, j'_vq]**2, both added input-outer, left to right, from 0, a block
    of input units at a time.  The weights are dyadic, so every product is
    exact and only that order decides the bits; a padding term adds an exact
    zero, and a table without errors (the exact backend's) adds no variance term.

    A block's terms are the rows (p, q) of one float array, each row every
    entry's [re, im] pair and then, with errors, its variance term: at least
    two floats a row, so np.add.reduce over the outer axis adds the rows left
    to right (a contiguous axis would be summed pairwise), and + 0.0 gives the
    sum from 0 its sign of zero.  The shorter side's missing rows are zeros.
    The blocks reduce into one array, per input unit the entries' [re, im]
    pairs and then their variances, and both results are views of it.
    """
    (i, r), (j, s), (jv, sv) = rows, cols, var_cols
    sq_errs = np.square(errs) if np.count_nonzero(errs) else None
    n_in, n_obs, n_var, n_cols = i.shape[1], j.shape[1], jv.shape[1], len(j)
    per_unit = n_cols * n_in * max(n_obs, n_var)  # terms per input unit
    width = n_obs if sq_errs is None else max(n_obs, n_var)  # rows q per input slot p
    pairs = 2 * n_cols  # an input unit's [re, im] floats, then its variances
    floats = pairs if sq_errs is None else pairs + n_cols
    sums = np.zeros((len(i), pairs + n_cols))
    # axes (p, q, u, v): a row per (p, q), input-outer; the weights C-ordered as the terms
    i, r = i.T[:, None, :, None], r.T[:, None, :, None]
    j, s, jv, sv = (x.T[:, None] for x in (j, s, jv, sv))
    for block in _blocks(len(sums), per_unit):
        ib, rb = i[:, :, block], r[:, :, block]
        terms = np.zeros((n_in, width, ib.shape[2], floats))
        weights = np.multiply(rb, s, order="C")
        np.multiply(weights, values[ib, j], out=terms[:, :n_obs, :, :pairs].view(complex))
        if sq_errs is not None:
            sq_weights = np.abs(np.multiply(rb, sv, order="C")) ** 2
            np.multiply(sq_weights, sq_errs[ib, jv], out=terms[:, :n_var, :, pairs:])
        rows_pq = terms.reshape(n_in * width, *terms.shape[2:])
        np.add.reduce(rows_pq, axis=0, out=sums[block, :floats])
    sums += 0.0
    return sums[:, :pairs].view(complex), sums[:, pairs:]


def _table_side(units) -> tuple[list, list]:
    """The units' distinct kets, first seen first, and per unit its (slots, weights)."""
    slot: dict[bytes, int] = {}
    slots = [[slot.setdefault(ket.tobytes(), len(slot)) for ket in u.states] for u in units]
    return [np.frombuffer(ket, complex) for ket in slot], [*zip(slots, (u.weights for u in units))]


def _choi_four(channel, config, table, sides, last=None, partials=None):
    """The grid of estimates and variances, from the _Table of its kets.

    sides holds the grid's input, observable and variance sides as _combine
    reads them.  With last set, the unmeasured column last is inferred from
    the columns partials by normalization (tp_complete).
    """
    values, errs = _read_table(channel, table, config)
    if last is not None:
        gap = np.zeros((len(values), 1))
        values, errs = (np.concatenate((x[:, :last], gap, x[:, last:]), 1) for x in (values, errs))
        values[:, last] = tp_complete(dict(enumerate(values[:, partials].T)), channel.dim)
    return _combine(values, errs, *sides)


def reconstruct_element(
    plan: MeasurementPlan, channel: QuantumChannel, config: BackendConfig
) -> ChiElementEstimate:
    """Measure a plan's <= 4 x 4 table and add its weighted cells into the chi element.

    The table's rows and columns are the plan's own kets, in order, the
    expansions' sides built once each (_unit_side) and read through a table
    built per request; its terms are added as _combine adds a grid entry's,
    in Python floats.  The channel is applied to each input state of the plan
    (1 or 4) the first time a lone element reads it on that channel, which
    keeps its output state.  On the sampled backend a cell's stream
    is derived once per master seed, by the first lone element that reads the cell
    under it, and then kept (measure._kept_seed_states).
    """
    _instance(plan, MeasurementPlan, "plan")
    _instance(channel, QuantumChannel, "channel")
    _instance(config, BackendConfig, "config")
    if channel.dim != plan.dim:
        raise ValueError(
            f"plan dimension {plan.dim} does not match channel dimension {channel.dim}"
        )
    table = _Table(_unit_side(plan.inputs), _unit_side(plan.observables))
    values, errs = _read_table(channel, table, config)
    # _combine's terms, in its order: input-outer, left to right, from +0.0 (so never
    # -0.0, as its + 0.0 gives); dyadic weights, so each product is exact
    re = im = variance = 0.0
    for r, row_values, row_errs in zip(plan.inputs.weights, values.tolist(), errs.tolist()):
        for s, v, e in zip(plan.observables.weights, row_values, row_errs):
            w = r * s
            size = abs(w)
            re, im, variance = re + w.real * v, im + w.imag * v, variance + size * size * (e * e)
    return ChiElementEstimate(
        complex(re, im), math.sqrt(variance), plan.settings_count, config.descriptor
    )


_UNIT_SIDES = weakref.WeakKeyDictionary()  # _unit_side's, kept as long as their expansion


def _unit_side(expansion: PureStateExpansion) -> _Side:
    """An expansion's kets as a side, rows and columns alike, slot p its state p.

    Read as rows, the side takes and fills the channel's kept output states.
    """
    side = _UNIT_SIDES.get(expansion)
    if side is None:
        side = _UNIT_SIDES[expansion] = _Side(expansion.states, len(expansion.states[0]), keep=True)
    return side


# --- full reconstruction -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SqptResult:
    """A fully reconstructed process matrix plus measurement accounting.

    chi and std_errors go through _frozen: full_sqpt's read-only arrays are kept.
    """

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
    per input state (one row of the table).  "choi-four" is the D^2 x D^2
    grid of the path reconstruct_element takes for one element: the D^2
    kets of the matrix-unit expansions (the set input_state_set(D)) meet
    projectors onto the same kets, every input unit meets every observable
    unit, and the grid relabeled to chi is bit for bit each element's estimate.
    "product-hermitian" pairs product states with tensor products of SU(d)
    generators and solves lambda = R^T T S; pass it local_dim and n_sites,
    with local_dim**n_sites == dim, for qudit sites.  One tail relabels either
    estimate and its standard errors to chi and counts the settings.

    With tp_shortcut (choi-four only) the computational-basis projector for
    the highest level is never measured: its expectation for each input
    state is inferred from normalization, leaving D^2 (D^2 - 1) measured
    values; the standard errors treat it as 1 minus its partials, not as an
    independent measurement.  The channel must be trace preserving.
    """
    _instance(channel, QuantumChannel, "channel")
    _instance(config, BackendConfig, "config")
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
        lam, var = _choi_four(channel, config, *_choi_four_design(channel.dim, bool(tp_shortcut)))
        # grid[a*D+b, d*D+c] = lambda_{ab;cd}: lambda with its c and d slots swapped
        slots = tuple((0, 1, 3, 2)[k] for k in _CHI_SLOTS)
    elif strategy == "product-hermitian":
        sites = _sites(channel.dim, local_dim, n_sites)
        table, r_mat, s_mat = _product_hermitian_design(*sites)
        data, errs = _read_table(channel, table, config)
        lam, slots = r_mat.T @ data @ s_mat, _CHI_SLOTS
        var = (np.abs(r_mat.T) ** 2) @ np.square(errs) @ (np.abs(s_mat) ** 2)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    chi, err = (_relabel(x, slots, "grid") for x in (lam, np.sqrt(var)))
    for x in (chi, err):
        x.setflags(write=False)
    inferred = len(lam) if tp_shortcut else 0
    return SqptResult(chi, err, strategy, lam.size, lam.size - inferred, inferred)


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


def _sites(dim: int, local_dim, n_sites) -> tuple[int, int]:
    """Product-hermitian's (local_dim, n_sites): one site of dim levels unless both are given."""
    if (local_dim is None) != (n_sites is None):
        raise ValueError("pass local_dim and n_sites together or not at all")
    if local_dim is None:
        return dim, 1
    local_dim, n_sites = _dimension(local_dim, "local_dim", 2), _dimension(n_sites, "n_sites")
    if local_dim**n_sites != dim:
        raise ValueError(
            f"local_dim**n_sites = {local_dim}**{n_sites} does not equal "
            f"the channel dimension {dim}"
        )
    return local_dim, n_sites


def _design(inputs, observables, tp_shortcut: bool):
    """The channel-independent half of a choi-four grid: (table, sides, last, partials).

    The grid pairs every expansion of inputs with every one of observables;
    the table's rows and cols hold their distinct kets, first seen first, and
    sides per grid row and column its padded (slots, weights) as an input, as
    an observable and for the variance.  With tp_shortcut (full choi-four's D^2
    units x*D+y) column last, |D-1>, is inferred from the columns partials.
    """
    dim = len(inputs[0].states[0])
    (row_kets, row_units), (col_kets, col_units) = map(_table_side, (inputs, observables))
    sides = [_padded(row_units), _padded(col_units)]
    last = partials = None
    if tp_shortcut:
        # the unit |l><l| is the one ket |l>
        *partials, last = [col_units[lvl * dim + lvl][0][0] for lvl in range(dim)]
        del col_kets[last]
        col_units = [_inferred_substituted(*unit, last, partials) for unit in col_units]
        partials = tuple(partials)
    sides.append(_padded(col_units) if tp_shortcut else sides[1])
    return _Table(_Side(row_kets, dim), _Side(col_kets, dim)), tuple(sides), last, partials


@lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def _choi_four_design(dim: int, tp_shortcut: bool):
    """Full choi-four's _design, its sides D^2 x 4 (D^2 x (D+1) for the shortcut's variance)."""
    units = [expand_choi_four(x, y, dim) for x, y in np.ndindex(dim, dim)]
    return _design(units, units, tp_shortcut)


@lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def _product_hermitian_design(local_dim: int, n_sites: int):
    """The channel-independent half of product-hermitian: (table, R, S).

    lambda = R^T T S for the table T of the product states (rows) x the
    tensor products of SU(d) generators (cols), which their builders verified.
    Built once per (local_dim, n_sites) and process; every array is read-only.
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
    r_mat = np.linalg.solve(proj_cols, np.eye(n, dtype=complex))
    # observable weights: targets are the adjoint units |d><c| at column c*D+d
    obs_cols = np.stack([o.reshape(-1) for o in observables], axis=1)
    targets = np.eye(n, dtype=complex).reshape(dim, dim, n).transpose(1, 0, 2).reshape(n, n)
    s_mat = np.linalg.solve(obs_cols, targets)
    return _Table(_Side(states, dim), _Side(observables, dim)), _frozen(r_mat), _frozen(s_mat)


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
        # Python ints: dim is local_dim**n_sites, which a numpy integer would wrap
        object.__setattr__(self, "n_sites", _dimension(self.n_sites, "n_sites"))
        object.__setattr__(self, "local_dim", _dimension(self.local_dim, "local_dim", 2))

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
    _instance(index_map, QuditIndexMap, "index_map")
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

    ia, ib = (QuditIndexMap(m, d).compose(x[j] for j in diff) for x in (da, db))
    ghz_plus = np.zeros(d**m, dtype=complex)
    ghz_minus = np.zeros(d**m, dtype=complex)
    ghz_plus[ia] = ghz_minus[ia] = 1 / np.sqrt(2)
    ghz_plus[ib] = 1 / np.sqrt(2)
    ghz_minus[ib] = 1j / np.sqrt(2)

    ip = QuditIndexMap(n - m, d).compose(da[j] for j in agree) if agree else 0
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
# entries row-major over the D^2 x D^2 matrix.  chi_to_json writes only what
# chi_from_json reads: a known convention and finite entries.


def _convention(convention) -> str:
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown chi convention {convention!r}")
    return convention


def chi_to_json(chi: np.ndarray, convention: str = CHI_CONVENTION) -> dict:
    chi = np.asarray(chi, dtype=complex)
    d, convention = _chi_dim(chi, "chi"), _convention(convention)
    entries = np.stack((chi.real, chi.imag), axis=-1).reshape(-1, 2)
    return {"dim": d, "convention": convention, "entries": _finite(entries, "chi entries").tolist()}


def chi_from_json(obj) -> tuple[np.ndarray, str]:
    """Parse a chi JSON document, returning the matrix and its convention."""
    if not isinstance(obj, dict):
        raise ValueError("chi document must be a JSON object")
    dim, convention = _dimension(obj.get("dim"), "'dim'"), _convention(obj.get("convention"))
    entries = obj.get("entries")
    if not isinstance(entries, list) or len(entries) != dim**4:
        raise ValueError(f"'entries' must list {dim**4} [re, im] pairs")
    values = [_complex_from_pair(entry) for entry in entries]
    chi = np.array(values, dtype=complex).reshape(dim * dim, dim * dim)
    return chi, convention
