import json

import numpy as np

import make_bit_manifest


def test_bit_manifest_matches():
    # every case of tests/data/bit_manifest.json keeps its bits; after a change
    # of bits made on purpose, rerun tests/make_bit_manifest.py
    frozen = json.loads(make_bit_manifest.MANIFEST.read_text())
    current = make_bit_manifest.build()
    changed = make_bit_manifest.changed(frozen, current)
    builds = {k: (frozen[k], current[k]) for k in ("numpy", "blas") if frozen[k] != current[k]}
    assert not changed, (
        f"{len(changed)} of {len(frozen['cases'])} cases changed bits, first {changed[:5]}; "
        + (f"the build differs from the manifest's (frozen, here): {builds}" if builds
           else f"on the manifest's build, numpy {np.__version__}")
    )
