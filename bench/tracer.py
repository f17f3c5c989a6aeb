"""Span tracing of the library's public functions, from outside the library.

Each traced function is replaced, for the duration of a `Tracer.installed()`
block, at every `choi_sqpt` module that binds it (and methods on their
class), so calls the library makes internally are seen as well as calls
from the benchmark.  Spans (name, start, end, parent, request) are kept in
memory; a span's self time is its duration minus the time its child spans
cover.  Nothing in the library itself is changed.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
from collections import defaultdict
from time import perf_counter

MODULES = ("choi_sqpt", "choi_sqpt.basis", "choi_sqpt.channels",
           "choi_sqpt.measure", "choi_sqpt.tomo", "choi_sqpt.cli")

# span name -> (defining module, attribute path)
TRACED = {
    "channels.apply_channel": ("choi_sqpt.channels", "apply_channel"),
    "channels.preset_channel": ("choi_sqpt.channels", "preset_channel"),
    "basis.expand_choi_four": ("choi_sqpt.basis", "expand_choi_four"),
    "basis.sud_generators": ("choi_sqpt.basis", "sud_generators"),
    # construction and validation of a setting
    "measure.MeasurementSetting": ("choi_sqpt.measure", "MeasurementSetting.__post_init__"),
    "measure.canonical_key": ("choi_sqpt.measure", "MeasurementSetting.canonical_key"),
    "measure.measure_setting": ("choi_sqpt.measure", "measure_setting"),
    "measure.exact_expectation": ("choi_sqpt.measure", "exact_expectation"),
    # includes deriving the per-setting RNG and drawing the samples
    "measure.sampled_expectation": ("choi_sqpt.measure", "sampled_expectation"),
    "measure.tp_complete": ("choi_sqpt.measure", "tp_complete"),
    "tomo.full_sqpt": ("choi_sqpt.tomo", "full_sqpt"),
    "tomo.plan_element": ("choi_sqpt.tomo", "plan_element"),
    "tomo.reconstruct_element": ("choi_sqpt.tomo", "reconstruct_element"),
    "tomo.chi_to_json": ("choi_sqpt.tomo", "chi_to_json"),
    "cli.main": ("choi_sqpt.cli", "main"),
}


class Tracer:
    """Collects spans of traced calls; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.request = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding of the traced functions; restore on exit."""
        modules = [importlib.import_module(m) for m in MODULES]
        patches = []  # (owner, attribute, original)
        for name, (module, path) in TRACED.items():
            owner = importlib.import_module(module)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            if classes:
                sites = [(owner, attr)]
            else:
                sites = [(m, a) for m in modules for a, v in vars(m).items() if v is original]
            wrapped = self._wrap(name, original)
            for site, site_attr in sites:
                patches.append((site, site_attr, original))
                setattr(site, site_attr, wrapped)
        try:
            yield self
        finally:
            for site, site_attr, original in reversed(patches):
                setattr(site, site_attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self time per span name (names never called included)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in TRACED}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name]["calls"] += 1
            out[name]["self_s"] += end - start - child
        return out

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per module (the part of a span name before the dot)."""
        totals: dict[str, float] = defaultdict(float)
        for name, stats in self.summary().items():
            totals[name.split(".")[0]] += stats["self_s"]
        return dict(totals)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent", "request"])
            writer.writerows(self.spans)
