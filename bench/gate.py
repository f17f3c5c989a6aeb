"""Correctness gate applied to every benchmark request.

A request fails when it raises, when the CLI exits nonzero or writes a
report that does not parse, or when one of the checks below reports a
problem.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import numpy as np

# exact chi must match the oracle computed from the Kraus operators
EXACT_TOL = 1e-12
# sampled elements must lie within this many standard errors of the oracle;
# at 10^4 shots and outcome probabilities >= 0.05 a 6-sigma excursion has
# odds below 1e-8 per element
Z_BOUND = 6.0
PLAN_SIZES = (1, 4, 16)


def exact_problems(chi: np.ndarray, oracle: np.ndarray) -> tuple[list[str], float]:
    """Compare an exact-backend chi with the oracle; also return the deviation."""
    chi = np.asarray(chi)
    if chi.shape != oracle.shape:
        return [f"chi has shape {chi.shape}, oracle {oracle.shape}"], float("inf")
    dev = float(np.max(np.abs(chi - oracle)))
    if not dev <= EXACT_TOL:
        return [f"exact chi deviates from the oracle by {dev:.3e} > {EXACT_TOL:.0e}"], dev
    return [], dev


def sampled_problems(
    values: np.ndarray, std_errors: np.ndarray, oracle: np.ndarray, shots: int
) -> tuple[list[str], int]:
    """z-test sampled elements against the oracle.

    Elements whose reported (Wald) error is 0 are counted and returned, not
    dropped: they are tested against a floor of one count in `shots`.
    """
    values = np.asarray(values)
    std_errors = np.asarray(std_errors, dtype=float)
    if values.shape != oracle.shape or std_errors.shape != oracle.shape:
        return [f"sampled chi has shape {values.shape}, oracle {oracle.shape}"], 0
    sigma_zero = int(np.count_nonzero(std_errors == 0.0))
    scale = np.maximum(std_errors, 1.0 / shots)
    z = np.abs(values - oracle) / scale
    worst = float(np.max(z))
    if not worst <= Z_BOUND:
        bad = int(np.count_nonzero(~(z <= Z_BOUND)))
        return [f"{bad} sampled elements beyond {Z_BOUND} sigma (worst z = {worst:.2f})"], sigma_zero
    return [], sigma_zero


def full_settings_problems(
    dim: int, total: int, measured: int, inferred: int, tp_shortcut: bool
) -> list[str]:
    """A full reconstruction uses D^4 settings; the TP shortcut infers D^2."""
    want_inferred = dim * dim if tp_shortcut else 0
    if (total, measured, inferred) != (dim**4, dim**4 - want_inferred, want_inferred):
        return [
            f"settings total/measured/inferred = {total}/{measured}/{inferred}, "
            f"expected {dim**4}/{dim**4 - want_inferred}/{want_inferred}"
        ]
    return []


def element_settings_problems(expected: int, plan_settings: int, used: int) -> list[str]:
    """An element uses 1, 4 or 16 settings, as its target class dictates."""
    if plan_settings not in PLAN_SIZES or used != plan_settings or used != expected:
        return [f"element used {used} settings (plan {plan_settings}), expected {expected}"]
    return []
