"""Mutation gate over the code whose order and signs decide the reported bits.

Run from the repository root:

    python tests/mutants.py          # every mutant
    python tests/mutants.py NAME...  # the named ones

Each mutant below replaces one exact text, which must occur exactly once in
its file, in a temporary copy of src/, and runs the tests named beside it on
that copy (PYTHONPATH set to it).  The tests kill the mutant when they fail.
The gate first runs every named test on an unmutated copy, which must pass.
It fails when a mutant no longer applies, when its tests cannot run, or when a
mutant survives that the list does not record as equivalent, with the reason
(R. A. DeMillo, R. J. Lipton and F. G. Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978).  A recorded equivalent is run too; if
its tests kill it on this numpy, that is reported, and the gate still passes.
Standard library only; pytest runs in the child processes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300  # per pytest run; the whole gate takes about 30 s on 2 vCPUs


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/choi_sqpt
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, from the repository root
    equivalent: str | None = None  # why no test can kill it, if none can


MUTANTS = [
    Mutant(
        "combine-without-initial",
        "tomo.py",
        "out=sums[block, :floats], initial=0.0)",
        "out=sums[block, :floats])",
        ("tests/test_tomo.py::test_combine_matches_the_per_term_sum",
         "tests/test_tomo.py::test_lone_elements_give_their_full_entries_bytes_on_exact_zeros_and_ones",
         "tests/test_bit_manifest.py"),
        equivalent="numpy 2's add.reduce into out already starts from +0.0 (rows of -0.0 "
        "sum to +0.0); initial=0.0 states that start for the numpy >= 1.23 pyproject.toml "
        "allows, whose reduce may start from the first row",
    ),
    Mutant(
        "kept-streams-derived-reversed",
        "measure.py",
        ".reshape(-1, 4)[missing].T)",
        ".reshape(-1, 4)[missing[::-1]].T)",
        ("tests/test_tomo.py::test_a_lone_element_with_some_cells_kept_gets_its_cold_bytes",),
    ),
    Mutant(
        "new-seed-reads-old-store",
        "measure.py",
        "    if seed != master_seed:",
        "    if seed is None:",
        ("tests/test_tomo.py::test_kept_streams_give_every_sampled_element_its_cold_bytes",),
    ),
    Mutant(
        "stream-room-without-dimension-rule",
        "measure.py",
        "room = store.cap // max(1, table.rows.kets.shape[1] // 16)",
        "room = store.cap",
        ("tests/test_tomo.py::test_the_stream_store_keeps_its_budget_and_a_new_seed_frees_it",),
    ),
    Mutant(
        "store-ignores-room",
        "measure.py",
        "[: max(0, room - self.filled)]",
        "[: max(0, self.cap - self.filled)]",
        ("tests/test_measure.py::test_a_store_keeps_rows_first_come_within_its_room",),
    ),
    Mutant(
        "racing-key-takes-a-second-row",
        "measure.py",
        "new = [key for key in in_fresh if key not in self.index]",
        "new = list(in_fresh)",
        ("tests/test_measure.py::test_a_key_two_racing_reads_derive_keeps_its_first_row",),
    ),
    Mutant(
        "prob-band-1e-8",
        "measure.py",
        "PROB_BAND = 1e-9",
        "PROB_BAND = 1e-8",
        ("tests/test_measure.py::test_probabilities_beyond_the_band_raise",),
    ),
    Mutant(
        "clamp-to-negative-zero",
        "measure.py",
        "return (np.clip(p, 0.0, 1.0) if clamp else p)",
        "return (np.clip(p, -0.0, 1.0) if clamp else p)",
        ("tests/test_measure.py::test_probabilities_within_the_band_are_clamped_as_before",),
    ),
    Mutant(
        "canon-floats-keeps-negative-zero",
        "measure.py",
        "round(float(values[k]), 12) + 0.0,",
        "round(float(values[k]), 12),",
        ("tests/test_measure.py::test_canon_floats_matches_the_reference_format",),
    ),
    Mutant(
        "key-tail-kinds-swapped",
        "measure.py",
        "{'p' if projector else 'h'}",
        "{'h' if projector else 'p'}",
        ("tests/test_bit_manifest.py",),
    ),
    Mutant(
        "seed-high-word-always",
        "measure.py",
        "([master_seed >> 32] if master_seed >> 32 else [])",
        "[master_seed >> 32]",
        ("tests/test_measure.py::test_seed_states_match_seed_sequence",),
    ),
    Mutant(
        "cell-pools-strict",
        "measure.py",
        "if words.shape[1] <= _CELL_POOLS:",
        "if words.shape[1] < _CELL_POOLS:",
        ("tests/test_measure.py::test_seed_states_match_seed_sequence",),
    ),
    Mutant(
        "element-variance-pow",
        "tomo.py",
        "variance + size * size * (e * e)",
        "variance + size * size * (e ** 2)",
        ("tests/test_tomo.py::test_combine_matches_the_per_term_sum",),
    ),
    Mutant(
        "element-sum-from-negative-zero",
        "tomo.py",
        "re = im = variance = 0.0",
        "re = im = variance = -0.0",
        ("tests/test_tomo.py::test_combine_matches_the_per_term_sum",),
    ),
    Mutant(
        "combine-observable-outer",
        "tomo.py",
        "rows_pq = terms.reshape(n_in * width, *terms.shape[2:])",
        "rows_pq = terms.swapaxes(0, 1).reshape(n_in * width, *terms.shape[2:])",
        ("tests/test_tomo.py::test_combine_matches_the_per_term_sum",),
    ),
]


def _copy(tmp: str, mutant: Mutant | None = None) -> Path:
    # src/ without its bytecode, so no stale .pyc stands in for the mutated file
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = src / "choi_sqpt" / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return src


def _run(mutant: Mutant | None, tests) -> tuple[str, str]:
    """('killed' | 'survived' | 'error', the output's last line) of one copy."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            src = _copy(tmp, mutant)
        except ValueError as exc:
            return "error", str(exc)
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        probe = [sys.executable, "-c", "import choi_sqpt; print(choi_sqpt.__file__)"]
        where = subprocess.run(probe, env=env, capture_output=True, text=True).stdout
        if not where.startswith(str(src)):
            return "error", f"choi_sqpt imports from {where.strip() or 'nowhere'}, not the copy"
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    last = (run.stdout.strip().splitlines() or [""])[-1]
    # pytest exits 1 when tests ran and failed; any other failure is not a kill
    return {0: "survived", 1: "killed"}.get(run.returncode, "error"), last


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    tests = sorted({t for m in chosen for t in m.tests})
    outcome, last = _run(None, tests)
    print(f"baseline: {len(tests)} test ids, {last}")
    if outcome != "survived":
        print("the named tests fail on unmutated src/; no mutant can be judged")
        return 1
    failed = 0
    for mutant in chosen:
        start = time.perf_counter()
        outcome, last = _run(mutant, mutant.tests)
        verdict = outcome
        if outcome == "survived" and mutant.equivalent:
            verdict = "equivalent"
        elif outcome == "killed" and mutant.equivalent:
            verdict = "killed (recorded equivalent)"
        print(f"{mutant.name}: {verdict} in {time.perf_counter() - start:.1f} s  [{last}]")
        if verdict == "equivalent":
            print(f"    {mutant.equivalent}")
        failed += verdict in ("survived", "error")
    print(f"{len(chosen)} mutants, {failed} failing the gate")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
