"""Write tests/data/bit_manifest.json: one digest per case of the results' bits.

A case is a full reconstruction or a lone element on a random-cptp channel;
its digest is the first 16 hex characters of the sha256 of chi, the standard
errors and the settings counts.  test_bit_manifest checks every digest, so a
change of any bit in these cases names the case it changed.  After a change
of bits made on purpose, rerun

    PYTHONPATH=src python tests/make_bit_manifest.py

which prints each case whose digest changed and rewrites the file.  The file
records numpy's version and BLAS build, the likely cause of a mismatch
between machines.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

from choi_sqpt import BackendConfig, full_sqpt, plan_element, preset_channel, reconstruct_element

MANIFEST = Path(__file__).resolve().parent / "data" / "bit_manifest.json"

BACKENDS = {
    "exact": BackendConfig(),
    "sampled-7": BackendConfig("sampled", 1000, 7),
    "sampled-2^40+11": BackendConfig("sampled", 1000, 2**40 + 11),
}
# (name, strategy, tp_shortcut); product-hermitian needs D >= 2
STRATEGIES = [
    ("choi-four", "choi-four", False),
    ("choi-four-tp", "choi-four", True),
    ("product-hermitian", "product-hermitian", False),
]


def _digest(*parts: bytes) -> str:
    return hashlib.sha256(b"".join(parts)).hexdigest()[:16]


def _counts(*counts: int) -> bytes:
    return ",".join(map(str, counts)).encode("ascii")


def _full(channel, config, strategy, tp_shortcut, sites=(None, None)) -> str:
    r = full_sqpt(channel, config, strategy, tp_shortcut, *sites)
    counts = _counts(r.settings_total, r.settings_measured, r.settings_inferred)
    return _digest(r.chi.tobytes(), r.std_errors.tobytes(), counts)


def _element(target, channel, config) -> str:
    est = reconstruct_element(plan_element(*target, channel.dim), channel, config)
    value = np.array([est.value.real, est.value.imag, est.std_error])
    return _digest(value.tobytes(), _counts(est.settings_used))


def cases():
    """Every case as (name, digest thunk), in a fixed order."""
    for dim in range(1, 7):
        for rank in sorted({1, 2, dim * dim}):
            channel = preset_channel("random-cptp", [dim, rank], dim)
            for (label, strategy, tp), (backend, config) in itertools.product(
                STRATEGIES, BACKENDS.items()
            ):
                if dim > 1 or strategy == "choi-four":
                    name = f"full/{label}/D{dim}/rank{rank}/{backend}"
                    yield name, lambda c=channel, s=strategy, t=tp, b=config: _full(c, b, s, t)
    for rank in (1, 2, 16):
        channel = preset_channel("random-cptp", [4, rank], 4)
        for backend, config in BACKENDS.items():
            name = f"full/product-hermitian/2x2-sites/rank{rank}/{backend}"
            yield name, lambda c=channel, b=config: _full(c, b, "product-hermitian", False, (2, 2))
    for dim in (2, 3):
        channel = preset_channel("random-cptp", [dim, 2], dim)
        for target in itertools.product(range(dim), repeat=4):
            for backend, config in BACKENDS.items():
                name = f"element/D{dim}/rank2/{','.join(map(str, target))}/{backend}"
                yield name, lambda t=target, c=channel, b=config: _element(t, c, b)


def digests() -> dict[str, str]:
    return {name: digest() for name, digest in cases()}


def build() -> dict:
    """The manifest of this numpy build: its version, its BLAS and every case's digest."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cases": digests(),
    }


def changed(old: dict, new: dict) -> list[str]:
    """The cases of either manifest whose digest differs from, or is missing in, the other."""
    names = dict.fromkeys([*old["cases"], *new["cases"]])
    return [n for n in names if old["cases"].get(n) != new["cases"].get(n)]


def main() -> None:
    manifest = build()
    if MANIFEST.exists():
        for name in changed(json.loads(MANIFEST.read_text()), manifest):
            print(f"changed: {name}")
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest['cases'])} cases to {MANIFEST.name}")


if __name__ == "__main__":
    main()
