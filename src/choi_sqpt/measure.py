"""Measurement backends: exact expectation values and shot-noise sampling.

Every measurement is a table of (input state, observable) cells, read from
two sides; measure_table is the one public call.  A _Side stacks vectors
checked where they enter the library (measure_table a caller's, a lone
element its expansion's kets; a full design's are verified as built); the
first sampled read encodes each for the stream keys and eigendecomposes each
Hermitian observable, once.  _read_table reads a _Table of rows x columns,
applying the channel once per input state (D^2 applications for D^2 input
states).  Full reconstruction builds its sides once per dimension, a lone
element once per expansion, rows and columns alike.  The channel acts on the
input ket, not on its density matrix: eps(|psi><psi|) = A^T A* for the rank
x D array A of kets E_m psi, O(rank D^2) per input state where the Kraus sum
on |psi><psi| costs O(rank D^3).  channels.apply_channel stays the path for
a general operator.  Rows are read in blocks: a block reads its channel in
stacked calls (_output_states), each slice the BLAS calls of one ket read
alone, then makes a stacked product per observable kind present, again a
single read's BLAS call per cell.  On the exact backend a Hermitian cell
whose observable has at most one nonzero per row, as every SU(d) generator
and tensor product of them, is a gather of D products, not a D x D x D
product.  A lone element's rows (a _Side built with keep) take the output states
their channel keeps (_kept_output_states): a channel applies itself once to each
input ket that lone elements read, up to _KEPT_ENTRIES kept entries.

Every sampled cell derives its own random stream by hashing a canonical
byte encoding of its two vectors together with the master seed, so results are
reproducible and independent of evaluation order or concurrent scheduling.
A _Table of two sides hashes its cells' keys on its first sampled read, a
copy of each row's hashed prefix per column tail; a request mixes only its
master seed into these digests.  Full reconstruction keeps its table in its
design, so a warm design hashes no key.  A lone element builds its table per
request and takes the stream states kept under its master seed
(_kept_seed_states): a cell, keyed by its two kets' bytes, is hashed and mixed
once per master seed, up to _KEPT_STREAMS cells.
A block of at most _CELL_POOLS = 16 cells mixes each seed pool in numpy's C
SeedSequence (about 5 us a cell); a larger block mixes them all in one
vectorized pass that mirrors it (about 100 us), 16 being the measured
crossover.  Both give numpy's streams, bit for bit; only draws are per cell.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Mapping, Sequence

import numpy as np

from .basis import _frozen, basis_state, superposition_states
from .channels import (
    QuantumChannel, _blocks, _dimension, _hermitian, _index, _instance, _integer, _unit_vector,
)

__all__ = [
    "BackendConfig",
    "PhysicalityError",
    "input_state_set",
    "measure_table",
    "tp_complete",
]

# outcome probabilities may poke out of [0, 1] by this much before the
# channel is declared non-physical
PROB_BAND = 1e-9

_MASK64 = (1 << 64) - 1


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


def _key_prefix(dim: int, state_code: str) -> bytes:
    # the start every key of an input state shares
    return f"d={dim};in={state_code};obs=".encode("ascii")


def _key_tail(projector: bool, obs_code: str) -> bytes:
    # the rest of the key, the same for every input state; a ket's is b"p:" + its code
    return f"{'p' if projector else 'h'}:{obs_code}".encode("ascii")


def _setting_key(dim: int, state_code: str, projector: bool, obs_code: str) -> bytes:
    # the one key format; state_code and obs_code are _canon_complex encodings
    return _key_prefix(dim, state_code) + _key_tail(projector, obs_code)


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

# the complex entries of output states one channel keeps for lone elements' rows:
# 1 MiB, every input ket's state up to D = 16; read at call time
_KEPT_ENTRIES = 1 << 16
# the cells whose stream states lone elements keep under one master seed, up to D = 16
# and 16 / D as many above: 32 bytes of state a cell (512 KiB) and its index entry;
# read when a master seed starts a store
_KEPT_STREAMS = 1 << 14
_KEEPING = threading.Lock()  # a room check and its keeping, as one step


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


@cache
def _stream_type() -> type:
    # built on first sampled use, so that importing this module does not
    # import numpy.random: exact runs never need it
    class _Stream(np.random.bit_generator.ISeedSequence):
        """A seed sequence whose generate_state(4, np.uint64), all PCG64 asks, is known."""

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return _Stream


def _rng(state: np.ndarray) -> np.random.Generator:
    # the generator default_rng(seq) gives for the SeedSequence seq with this state
    return np.random.Generator(np.random.PCG64(_stream_type()(state)))


def _hash_keys(cells) -> np.ndarray:
    # each (row prefix, column tail) cell's key words, read-only (cells, 4) uint32: the first
    # 16 bytes, as 4 little-endian uint32, of a copy of its row's hashed prefix finished
    # with its tail
    digests = []
    for prefix, tail in cells:
        (cell := prefix.copy()).update(tail)
        digests.append(cell.digest()[:16])
    # frombuffer over bytes is already read-only
    return np.frombuffer(b"".join(digests), dtype="<u4").reshape(-1, 4)


def _output_states(channel: QuantumChannel, kets: np.ndarray) -> np.ndarray:
    """eps(|psi><psi|) = sum_m (E_m psi)(E_m psi)^dagger = A^T A* for each psi of kets (n, D, 1).

    A's rows are the kets E_m psi.  Stacked calls over blocks of kets, 2 rank D
    entries a ket (channels._blocks), each slice the gemv over the stacked
    Kraus operators and the D x rank x D gemm that one ket makes alone: O(rank D^2)
    a ket, where sum_m E_m rho E_m^dagger on rho = |psi><psi| is O(rank D^3).
    """
    rank, dim, _ = channel.kraus_stack().shape
    stack = channel.kraus_stack().reshape(-1, dim)
    outs = np.empty((len(kets), dim, dim), dtype=complex)
    for block in _blocks(len(kets), 2 * rank * dim):
        amps = (stack @ kets[block]).reshape(-1, rank, dim)
        np.matmul(amps.transpose(0, 2, 1), amps.conj(), out=outs[block])
    return outs


def _kept_output_states(channel: QuantumChannel, kets: np.ndarray, keys) -> np.ndarray:
    """_output_states of kets (n, D, 1), keyed by their bytes, taking those the channel keeps.

    The kets not kept are applied in one _output_states call, so every state has
    the bits a fresh read gives, and kept, each as a copy owning its entries,
    while the channel then keeps at most _KEPT_ENTRIES entries; none is evicted.
    """
    kept = channel._kept
    states = [kept.get(key) for key in keys]
    missing = [k for k, state in enumerate(states) if state is None]
    if not missing:
        return np.array(states)
    fresh = _output_states(channel, kets[missing])
    room = _KEPT_ENTRIES // kets.shape[1] ** 2  # the states a channel keeps
    with _KEEPING:
        for k, state in zip(missing, fresh):
            states[k] = state
            if len(kept) < room:
                kept.setdefault(keys[k], _frozen(state))  # a copy: a view would pin fresh
    return fresh if len(missing) == len(keys) else np.array(states)


class _Streams:
    """The stream states of lone elements' cells under one master seed: states[index[key]] for
    the key (input ket bytes, observable ket bytes), rows filled in order and never evicted.
    Only filled rows are written, so only their pages are touched."""

    def __init__(self, master_seed: int | None, cells: int):
        self.seed, self.index, self.filled = master_seed, {}, 0
        self.states = np.empty((cells, 4), np.uint64)


_streams = _Streams(None, 0)  # the last master seed's; a read under another replaces it


def _kept_seed_states(master_seed: int, rows: _Side, cols: _Side, block: slice) -> np.ndarray:
    """_seed_states of the cells rows[block] x cols (rows, cols, 4), by their kets' bytes,
    taking those kept under master_seed: the table of a lone element, whose sides hold kets.

    Only the missing cells are hashed and mixed, and kept while the store then fills at
    most rows // max(1, D // 16) of its rows.  A read under another master seed starts a
    new store of _KEPT_STREAMS rows.  A key derived twice, by racing reads, takes a second
    row of its one state.
    """
    global _streams
    n_cols = len(cols.keys)
    keys = list(itertools.product(rows.keys[block], cols.keys))
    with _KEEPING:
        store = _streams
        at = [store.index.get(key) for key in keys] if store.seed == master_seed else []
        missing = [n for n, row in enumerate(at) if row is None]
        # the kept rows, if any: a missing cell's row is overwritten below
        found = store.states[[row or 0 for row in at]] if len(missing) < len(at) else None
    if found is not None and not missing:
        return found.reshape(-1, n_cols, 4)
    prefixes = rows.prefixes[block]
    if found is None:
        cells = itertools.product(prefixes, cols.tails)
    else:
        cells = [(prefixes[n // n_cols], cols.tails[n % n_cols]) for n in missing]
        keys = [keys[n] for n in missing]
    fresh = _seed_states(master_seed, _hash_keys(cells).T)
    with _KEEPING:
        if _streams.seed != master_seed:
            _streams = _Streams(master_seed, _KEPT_STREAMS)
        kept, start = _streams, _streams.filled
        new = max(0, min(len(fresh), len(kept.states) // max(1, rows.kets.shape[1] // 16) - start))
        kept.states[start : start + new] = fresh[:new]
        kept.index.update(zip(keys, range(start, start + new)))
        kept.filled += new
    if found is None:
        return fresh.reshape(-1, n_cols, 4)
    found[missing] = fresh
    return found.reshape(-1, n_cols, 4)


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
    # two reductions a kind tell whether any probability lies outside [0, 1]
    clamp = any(x.size and (x.min() < 0.0 or x.max() > 1.0) for x in (p, q) if x is not None)
    if herm:
        probs = _clamped(q) if clamp else q
        totals = probs.sum(axis=2, keepdims=True)
    if clamp or herm and (np.abs(totals - 1.0) > PROB_BAND).any():
        # the cells in row-major order, only once a probability is outside or a sum is off
        unphysical = np.zeros((len(p), len(proj) + len(herm)), dtype=bool)
        unphysical[:, proj] = _outside(p)
        if herm:
            off = np.abs(totals[..., 0] - 1.0) > PROB_BAND
            unphysical[:, herm] = _outside(q).any(axis=2) | off
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
    return (_clamped(p) if clamp else p), (probs / totals if herm else None)


class _Side:
    """A table side: vectors its builder has checked, split by kind and stacked read-only.

    proj and herm index the 1-d and 2-d vectors, stacked as kets and ops.  A side
    built with keep, a lone element's, holds kets only; it reads its rows' output states
    through the channel's kept states and, with its columns, a sampled read's stream states
    through the kept ones, by its kets' bytes (keys, built on that first read).  The first read
    to use it builds a column's bras, for the exact backend the ops' nonzeros, or for the
    sampled backend a column's tails (each vector's _key_tail, in order) and eigs (the
    ops' evals, evecs, evecs_h) or a row's prefixes (each ket's _key_prefix hashed, one
    sha256 state, derived from its tail).
    """

    def __init__(self, vectors, dim: int, keep: bool = False):
        self.keep = keep
        self.proj = tuple(k for k, v in enumerate(vectors) if v.ndim == 1)
        self.herm = tuple(k for k, v in enumerate(vectors) if v.ndim == 2)
        self.kets = _frozen([vectors[k] for k in self.proj]).reshape(-1, dim, 1)
        self.ops = _frozen([vectors[k] for k in self.herm]).reshape(-1, dim, dim)

    @cached_property
    def keys(self) -> tuple[bytes, ...]:
        return tuple(ket.tobytes() for ket in self.kets)

    @cached_property
    def bras(self) -> np.ndarray:
        return _frozen(self.kets.conj()).transpose(0, 2, 1)

    @cached_property
    def nonzeros(self) -> tuple[np.ndarray, np.ndarray] | None:
        # each op row's one nonzero as (flat index k*D + i of rho[k, i], value O[i, k]),
        # (0, 0) for an empty row; None unless every row has at most one, real or imaginary
        nonzero = self.ops != 0
        cols = nonzero.argmax(axis=2)
        values = np.take_along_axis(self.ops, cols[..., None], 2)[..., 0]
        if (nonzero.sum(axis=2) > 1).any() or ((values.real != 0) & (values.imag != 0)).any():
            return None
        dim = self.ops.shape[2]
        return _frozen(cols * dim + np.arange(dim), np.intp), _frozen(values)

    @cached_property
    def tails(self) -> tuple[bytes, ...]:
        by_index = dict(zip(self.proj + self.herm, [*self.kets[..., 0], *self.ops]))
        vectors = (v for _, v in sorted(by_index.items()))
        return tuple(_key_tail(v.ndim == 1, _canon_complex(v)) for v in vectors)

    @cached_property
    def prefixes(self) -> tuple:
        dim = self.kets.shape[1]
        return tuple(hashlib.sha256(_key_prefix(dim, t[2:].decode("ascii"))) for t in self.tails)

    @cached_property
    def eigs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        pairs = [np.linalg.eigh(o) for o in self.ops]
        evals = _frozen([e for e, _ in pairs], float).reshape(-1, 1, self.ops.shape[2])
        evecs = _frozen([v for _, v in pairs]).reshape(self.ops.shape)
        return evals, evecs, _frozen(evecs.conj()).transpose(0, 2, 1)


class _Table:
    """The cells rows x cols of two sides.  The first sampled read builds digests, each
    cell's canonical_key words (_hash_keys of the rows' prefixes and the columns' tails),
    which depend on neither channel nor seed; a lone element's table, whose rows are built
    with keep, takes the kept stream states instead (_kept_seed_states) and builds none.
    """

    def __init__(self, rows: _Side, cols: _Side):
        self.rows, self.cols = rows, cols

    @cached_property
    def digests(self) -> np.ndarray:
        cells = itertools.product(self.rows.prefixes, self.cols.tails)
        return _hash_keys(cells).reshape(len(self.rows.prefixes), len(self.cols.tails), 4)


def measure_table(
    channel: QuantumChannel,
    states: Sequence[np.ndarray],
    observables: Sequence[np.ndarray],
    config: BackendConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Values and standard errors of every (input state, observable) cell.

    Cell (m, k) estimates Tr[O eps(|psi><psi|)] for psi = states[m] and O =
    observables[k] (a 1-d phi is |phi><phi|), bit for bit as its 1 x 1 table
    would.  Each vector is checked once per call, before any is read: the
    observables against the first state, then each state against the
    channel.  On the sampled backend each is also encoded and eigendecomposed once.
    """
    _instance(channel, QuantumChannel, "channel")
    _instance(config, BackendConfig, "config")
    first = len(np.atleast_1d(states[0])) if len(states) else channel.dim
    observables = [_checked_observable(obs, first) for obs in observables]
    rows = _Side([_checked_state(state, channel.dim) for state in states], channel.dim)
    return _read_table(channel, _Table(rows, _Side(observables, channel.dim)), config)


def _read_table(
    channel: QuantumChannel, table: _Table, config: BackendConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Values and standard errors of every cell of a table, its sides checked at the channel's D.

    Rows are read in blocks of stacked entries (channels._blocks).
    On the sampled backend each cell draws from default_rng(SeedSequence(
    [master_seed, *its digest words])); only the draws are made cell by cell.
    """
    rows, cols = table.rows, table.cols
    proj, herm, kets = cols.proj, cols.herm, cols.kets
    n_rows, dim = rows.kets.shape[:2]
    values = np.zeros((n_rows, len(proj) + len(herm)))
    errs = np.zeros(values.shape)
    if not values.shape[1]:
        return values, errs
    sampled, shots = config.mode == "sampled", config.shots
    evals, evecs, evecs_h = cols.eigs if sampled and herm else (None, None, None)
    # a kind's columns, a slice when it fills the row: a store through basic indexing
    at_proj, at_herm = (proj if herm else slice(None)), (herm if proj else slice(None))
    # per row: its output state, and in the stacked products a D-vector per projector and
    # a D x D matrix per Hermitian observable, or D products where the exact read gathers it
    per_herm = dim if herm and not sampled and cols.nonzeros is not None else dim * dim
    for block in _blocks(n_rows, dim * dim + len(herm) * per_herm + len(proj) * dim):
        if rows.keep:
            outs = _kept_output_states(channel, rows.kets[block], rows.keys[block])[:, None]
        else:
            outs = _output_states(channel, rows.kets[block])[:, None]
        p = ((cols.bras @ outs) @ kets)[..., 0, 0].real if proj or sampled else None
        if not sampled:
            if proj:
                values[block, at_proj] = p
            if herm:
                values[block, at_herm] = _traces(cols, outs)
            continue
        q = np.diagonal(evecs_h @ outs @ evecs, axis1=2, axis2=3).real if herm else None
        p, pvals = _probabilities(p, q, proj, herm)
        if rows.keep:
            streams = _kept_seed_states(config.master_seed, rows, cols, block)
        else:
            words = table.digests[block]
            streams = _seed_states(config.master_seed, words.reshape(-1, 4).T).reshape(words.shape)
        if proj:
            est = np.array([
                [_rng(row[k]).binomial(shots, pk) / shots for k, pk in zip(proj, row_p)]
                for row, row_p in zip(streams, p.tolist())
            ])
            values[block, at_proj] = est
            errs[block, at_proj] = np.sqrt(est * (1.0 - est) / shots)
        if herm:
            counts = [
                [_rng(row[k]).multinomial(shots, pv) for k, pv in zip(herm, row_p)]
                for row, row_p in zip(streams, pvals)
            ]
            freq = (np.array(counts) / shots)[..., None]
            est = (evals @ freq)[..., 0, 0]
            var = (np.square(evals) @ freq)[..., 0, 0] - est * est
            values[block, at_herm] = est
            errs[block, at_herm] = np.sqrt(np.maximum(var, 0.0) / shots)
    return values, errs


def _traces(cols: _Side, outs: np.ndarray) -> np.ndarray:
    """Tr[O rho] for each output state rho of outs (n, 1, D, D) and op O of cols: the bits
    of np.trace(O @ rho).real.

    A side whose op rows have at most one nonzero each, as every generalized
    Gell-Mann generator, tensor product of them and the identity, gathers
    sum_i O[i, k_i] rho[k_i, i]: each product has one real or imaginary factor,
    so it rounds once, as the gemm's row sum of it and zeros does, and the D
    products are reduced over a strided view, as np.trace reduces its
    diagonal.  Any other side forms O @ rho.
    """
    if cols.nonzeros is None:
        return np.trace(cols.ops @ outs, axis1=2, axis2=3).real
    index, weights = cols.nonzeros
    products = np.empty((len(outs), *index.shape, 2), dtype=complex)[..., 0]
    np.multiply(outs.reshape(len(outs), -1)[:, index], weights, out=products)
    return products.sum(axis=-1).real


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


# 1 x 1 views of measure_table, outside the package API and unused by the library: they
# remain only because bench/tracer.py wraps them by name, and go with it (ROADMAP item 1).


@dataclass(frozen=True, eq=False)
class MeasurementSetting:
    """One (input pure state, observable) cell; a 1-d observable phi is |phi><phi|."""

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
        state, obs = _canon_complex(self.input_state), _canon_complex(self.observable)
        return _setting_key(self.dim, state, self.is_projector, obs)


@dataclass(frozen=True)
class MeasurementOutcome:
    """An expectation-value estimate with its statistical uncertainty."""

    value: float
    std_error: float
    shots: int


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
    """Finite-shot estimate of Tr[O eps(|psi><psi|)], fixed by (master_seed, setting)."""
    if config.mode != "sampled":
        raise ValueError("sampled_expectation needs a sampled-mode config")
    return measure_setting(channel, setting, config)
