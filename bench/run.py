"""Benchmark of choi-sqpt: end-to-end metrics per workload, per-layer traces.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py; each is a closed loop with one client):

* ``full-exact``: in-process ``full_sqpt`` on the exact backend, D = 2..6.
* ``cli-sampled``: ``choi_sqpt.cli.main(["full", ..., "--backend",
  "sampled", "--output", ...])`` in-process, D = 2..5; each report is
  parsed back.  What a CLI user pays on top, a fresh interpreter and the
  import, is this workload's ``setup_s``.
* ``element-stream``: in-process ``plan_element`` + ``reconstruct_element``
  on the sampled backend, D in {2, 4, 8, 16}.

``--trace 0`` measures the end-to-end metrics: it runs whole request cycles
until ``--seconds`` have passed and at least MIN_REQUESTS requests are done,
and measures set-up in SETUP_REPEATS fresh interpreters spread over the run.

Times are scaled to a reference speed (see speed.py): the machine's speed
swings up to twofold, unseen by the guest, so every request is timed
between two runs of a fixed kernel and scaled by CAL_REF_MS over the
kernel's mean time, and every set-up probe between two bare interpreter
starts, scaled by START_REF_MS over their mean time.  Latency percentiles
and throughput use, for every request, the median scaled latency of its
cost class (see class_medians).  The text report also gives the raw
wall-clock figures and the kernel's median time.

``--trace 1`` runs a fixed request list (so its counts repeat exactly;
``--seconds`` is not used) once untraced and once traced, and reports
per-layer calls and raw self times plus the tracing overhead.  The
end-to-end metrics never come from a traced run.

Every request passes the correctness gate in gate.py or counts as failed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit, including ``error_rate``, and the machine
record.  A fuller record, and the spans of a traced run, go to bench/out/;
bench/baseline/ keeps such records for the commit named in them.

The harness does not pin CPUs, drop caches or change machine settings;
other load on the machine shows up in the raw figures, and in the scaled
ones as far as it slows the library and the kernel unequally.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import gate
import workloads
from speed import START_REF_MS, scale, speed_kernel
from tracer import TRACED, Tracer
from workloads import SHOTS, Request

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_REQUESTS = 100  # so the p90 has at least ten samples beyond it
SETUP_REPEATS = 11
WARMUP_S = 1.0
# request cycles of a traced run, about 4 s of untraced work per workload
TRACE_CYCLES = {"full-exact": 2, "cli-sampled": 3, "element-stream": 40}

# self times emitted in the result line: functions every workload calls,
# so none reads 0.  The other self times are listed in the text report.
SELF_TIMES_REPORTED = (
    "channels.apply_channel", "channels.preset_channel", "basis.expand_choi_four",
    "measure.MeasurementSetting", "measure.canonical_key", "measure.measure_setting",
    "tomo.plan_element",
)
LAYERS = ("channels", "basis", "measure", "tomo")

UNITS = {
    "setup_s": "s", "chi_elements_per_s": "1/s", "request_ms_p50": "ms",
    "request_ms_p90": "ms", "peak_rss_mb": "MB", "success_rate": "ratio",
}


def import_library():
    """Import choi_sqpt from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import choi_sqpt
    import choi_sqpt.cli  # noqa: F401  (traced and driven in-process)

    if not Path(choi_sqpt.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"choi_sqpt imported from {choi_sqpt.__file__}, not from {SRC}")
    return choi_sqpt


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def bare_start() -> float:
    """Seconds to spawn and wait for `python -c pass`, set-up's reference work."""
    spawned = time.monotonic()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True, timeout=60)
    return time.monotonic() - spawned


def setup_probe(requests: list[Request]) -> tuple[float, float, float]:
    """(set-up seconds, import seconds, set-up seconds at the reference speed)
    of one fresh interpreter, which starts between two bare interpreters."""
    specs = sorted({f"{r.dim}:{r.channel_seed}" for r in requests})
    before = bare_start()
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), *specs],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-800:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    after = bare_start()
    if not Path(record["library"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up probe imported choi_sqpt from {record['library']}")
    setup = record["ready"] - spawned
    return setup, record["import_end"] - record["import_start"], scale(setup, before, after, START_REF_MS)


@dataclass
class Outcome:
    """What the gate learned from one request."""

    elements: int = 0
    problems: list[str] = field(default_factory=list)
    fingerprint: bytes = b""
    sigma_zero: int = 0
    oracle_dev: float | None = None
    settings_measured: int = 0
    settings_inferred: int = 0
    report_bytes: int = 0
    cli_overhead_s: float | None = None


class Executor:
    """Runs one workload's requests against the library and gates them."""

    def __init__(self, lib):
        self.lib = lib
        self.exact = lib.BackendConfig("exact")
        self.channels: dict[tuple[int, int], tuple] = {}
        self.report = OUT / "cli-report.json"

    def prepare(self, requests: list[Request]) -> None:
        """Build (channel, oracle) for these requests; keep reused ones."""
        old, self.channels = self.channels, {}
        for r in requests:
            key = (r.dim, r.channel_seed)
            if key not in self.channels:
                if key in old:
                    self.channels[key] = old[key]
                else:
                    channel = self.lib.preset_channel("random-cptp", [r.channel_seed], r.dim)
                    self.channels[key] = (channel, self.lib.chi_oracle(channel))

    def run(self, req: Request) -> tuple[float, Outcome]:
        """Execute and time one request, then gate it (untimed)."""
        channel, oracle = self.channels[(req.dim, req.channel_seed)]
        try:
            start = perf_counter()
            raw = self._execute(req, channel)
            latency = perf_counter() - start
            outcome = self._check(req, raw, oracle, latency)
        except Exception as exc:  # a failed request is counted, not fatal
            return perf_counter() - start, Outcome(problems=[f"{type(exc).__name__}: {exc}"])
        if not outcome.problems:
            outcome.elements = req.elements
        return latency, outcome

    def _execute(self, req: Request, channel):
        lib = self.lib
        if req.kind == "full":
            return lib.full_sqpt(
                channel, self.exact, req.strategy, req.tp_shortcut, req.local_dim, req.n_sites
            )
        if req.kind == "element":
            plan = lib.plan_element(*req.target, req.dim)
            config = lib.BackendConfig("sampled", SHOTS, req.master_seed)
            return plan, lib.reconstruct_element(plan, channel, config)
        return lib.cli.main(req.cli_argv(str(self.report)))

    def _check(self, req: Request, raw, oracle, latency: float) -> Outcome:
        if req.kind == "full":
            problems, dev = gate.exact_problems(raw.chi, oracle)
            problems += gate.full_settings_problems(
                req.dim, raw.settings_total, raw.settings_measured,
                raw.settings_inferred, req.tp_shortcut,
            )
            return Outcome(
                problems=problems, fingerprint=raw.chi.tobytes() + raw.std_errors.tobytes(),
                oracle_dev=dev, settings_measured=raw.settings_measured,
                settings_inferred=raw.settings_inferred,
            )
        if req.kind == "element":
            plan, est = raw
            e, f, g, h = req.target
            value = np.array([est.value])
            sigma = np.array([est.std_error])
            problems = gate.element_settings_problems(
                req.settings, plan.settings_count, est.settings_used
            )
            truth = np.array([oracle[e * req.dim + f, g * req.dim + h]])
            z_problems, sigma_zero = gate.sampled_problems(value, sigma, truth, SHOTS)
            return Outcome(
                problems=problems + z_problems, sigma_zero=sigma_zero,
                fingerprint=value.tobytes() + sigma.tobytes(),
                settings_measured=est.settings_used,
            )
        if raw != 0:
            return Outcome(problems=[f"CLI exited with {raw}"])
        text = self.report.read_bytes()
        report = json.loads(text)
        chi_doc = report["results"]["chi"]
        entries = np.asarray(chi_doc["entries"], dtype=float)
        n = req.dim * req.dim
        chi = (entries[:, 0] + 1j * entries[:, 1]).reshape(n, n)
        errs = np.asarray(chi_doc["std_errors"], dtype=float).reshape(n, n)
        counts = report["settings"]
        problems = gate.full_settings_problems(
            req.dim, counts["total"], counts["measured"], counts["inferred"], req.tp_shortcut
        )
        z_problems, sigma_zero = gate.sampled_problems(chi, errs, oracle, SHOTS)
        return Outcome(
            problems=problems + z_problems, sigma_zero=sigma_zero,
            fingerprint=json.dumps(chi_doc, sort_keys=True).encode(),
            settings_measured=counts["measured"], settings_inferred=counts["inferred"],
            report_bytes=len(text), cli_overhead_s=latency - report["duration_seconds"],
        )


def repeat_check(reference: Outcome, outcomes: list[Outcome]) -> None:
    """The first request ran twice (warm-up, then timed): outputs must match."""
    first = outcomes[0]
    if not first.problems and first.fingerprint != reference.fingerprint:
        first.problems.append("repeated request gave different chi bytes")
        first.elements = 0


def class_medians(requests: list[Request], latencies: list[float], outcomes: list[Outcome]):
    """Each request's latency replaced by the median of its cost class.

    The mix is fixed per cycle, so a percentile then reads the same cost
    class in every run, and one request slowed by the machine between its
    two kernel times cannot move it.  Failed requests count only when their
    class has no successful one.
    """
    groups: dict[tuple, list[float]] = {}
    for req, latency, outcome in zip(requests, latencies, outcomes):
        groups.setdefault((req.cost_class, bool(outcome.problems)), []).append(latency)
    median = {key: statistics.median(values) for key, values in groups.items()}
    return [median.get((r.cost_class, False), median.get((r.cost_class, True))) for r in requests]


def percentile_ms(latencies: list[float], q: int) -> float:
    """q-th percentile (linear interpolation between order statistics), in ms."""
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def end_to_end(workload: str, seed: int, seconds: float, min_requests: int = MIN_REQUESTS):
    gen = workloads.cycles(workload, seed)
    cycle = next(gen)
    probes = [setup_probe(cycle)]  # also fails fast when the library is missing
    lib = import_library()
    ex = Executor(lib)
    ex.prepare(cycle)
    # warm-up on the first cycle's requests, which the timed loop repeats
    warm_start = perf_counter()
    for req in cycle:
        _, outcome = ex.run(req)
        if req is cycle[0]:
            reference = outcome
        if perf_counter() - warm_start >= WARMUP_S:
            break

    requests: list[Request] = []
    latencies: list[float] = []
    scaled: list[float] = []
    kernel_s: list[float] = []
    outcomes: list[Outcome] = []
    n_cycles = 0
    before = speed_kernel()
    start = perf_counter()
    while True:
        for req in cycle:
            latency, outcome = ex.run(req)
            after = speed_kernel()
            requests.append(req)
            latencies.append(latency)
            scaled.append(scale(latency, before, after))
            kernel_s.append(after)
            outcomes.append(outcome)
            before = after
        n_cycles += 1
        elapsed = perf_counter() - start
        # set-up probes are spread over the run so that one slow spell of
        # the machine cannot cover all of them
        due = SETUP_REPEATS if elapsed >= seconds else 1 + int(elapsed / seconds * SETUP_REPEATS)
        while len(probes) < due:
            probes.append(setup_probe(cycle))
        if elapsed >= seconds and len(outcomes) >= min_requests:
            break
        cycle = next(gen)
        ex.prepare(cycle)
        before = speed_kernel()  # probes and set-up ran since the last one
    wall = perf_counter() - start
    repeat_check(reference, outcomes)
    while len(probes) < SETUP_REPEATS:
        probes.append(setup_probe(cycle))
    typical = class_medians(requests, scaled, outcomes)

    failed = sum(1 for o in outcomes if o.problems)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(p[2] for p in probes),
        "chi_elements_per_s": sum(o.elements for o in outcomes) / sum(typical),
        "request_ms_p50": percentile_ms(typical, 50),
        "request_ms_p90": percentile_ms(typical, 90),
        "peak_rss_mb": rss_kb / 1024,
        "success_rate": 1.0 - failed / len(outcomes),
    }
    extra = {
        "error_rate": (failed / len(outcomes), "ratio"),
        "requests": (len(outcomes), "count"),
        "cycles": (n_cycles, "count"),
        "request_phase_s": (wall, "s"),
        "speed_kernel_ms_p50": (statistics.median(kernel_s) * 1e3, "ms"),
        # the same figures from each request's own wall-clock latency
        "setup_s_raw": (statistics.median(p[0] for p in probes), "s"),
        "chi_elements_per_s_raw": (sum(o.elements for o in outcomes) / sum(latencies), "1/s"),
        "request_ms_p50_raw": (percentile_ms(latencies, 50), "ms"),
        "request_ms_p90_raw": (percentile_ms(latencies, 90), "ms"),
        "cli.import_s": (statistics.median(p[1] for p in probes), "s"),
    }
    overheads = [o.cli_overhead_s for o in outcomes if o.cli_overhead_s is not None]
    if overheads:
        extra["cli.overhead_ms_p50"] = (statistics.median(overheads) * 1e3, "ms")
    extra["setup_probes_s"] = [p[0] for p in probes]
    extra["setup_probes_scaled_s"] = [p[2] for p in probes]
    extra["problems"] = [p for o in outcomes for p in o.problems][:20]
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    }
    return result, extra


def traced(workload: str, seed: int, n_cycles: int | None = None):
    gen = workloads.cycles(workload, seed)
    requests = [r for _ in range(n_cycles or TRACE_CYCLES[workload]) for r in next(gen)]
    import_s = statistics.median(setup_probe(requests[:1])[1] for _ in range(SETUP_REPEATS))
    lib = import_library()
    ex = Executor(lib)
    tracer = Tracer()
    with tracer.installed():
        ex.prepare(requests)  # set-up under the trace: preset_channel spans
    ex.run(requests[0])  # warm-up
    # each request runs untraced, then traced: the pair shares the machine's
    # state, so the median ratio is the tracing overhead
    untraced_s = traced_s = 0.0
    ratios: list[float] = []
    outcomes: list[Outcome] = []
    for i, req in enumerate(requests, 1):
        untraced, _ = ex.run(req)
        tracer.request = i
        with tracer.installed():
            traced, outcome = ex.run(req)
        outcomes.append(outcome)
        ratios.append(traced / untraced)
        untraced_s += untraced
        traced_s += traced

    summary = tracer.summary()
    layers = tracer.layer_self_s()
    failed = sum(1 for o in outcomes if o.problems)
    calls = {name: stats["calls"] for name, stats in summary.items()}
    exact_devs = [o.oracle_dev for o in outcomes if o.oracle_dev is not None]
    metrics = {f"{name}.calls": (n, "count") for name, n in calls.items()}
    metrics.update({f"{name}.self_s": (summary[name]["self_s"], "s") for name in SELF_TIMES_REPORTED})
    metrics.update({f"{layer}.self_s": (layers[layer], "s") for layer in LAYERS})
    metrics.update({
        "measure.canonical_key.per_setting": (
            calls["measure.canonical_key"] / max(calls["measure.measure_setting"], 1), "ratio"),
        "tomo.settings_measured": (sum(o.settings_measured for o in outcomes), "count"),
        "tomo.settings_inferred": (sum(o.settings_inferred for o in outcomes), "count"),
        "tomo.sigma_zero_elements": (sum(o.sigma_zero for o in outcomes), "count"),
        "tomo.oracle_dev_max": (max(exact_devs, default=0.0), "abs"),
        "cli.import_s": (import_s, "s"),
        "cli.report_bytes": (sum(o.report_bytes for o in outcomes), "bytes"),
        "trace.overhead": (statistics.median(ratios) - 1.0, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    extra = {
        "untraced_s": (untraced_s, "s"),
        "traced_s": (traced_s, "s"),
        **{f"{name}.self_s": (summary[name]["self_s"], "s")
           for name in TRACED if name not in SELF_TIMES_REPORTED},
        "cli.self_s": (layers["cli"], "s"),
        "problems": [p for o in outcomes for p in o.problems][:20],
    }
    return result, extra, tracer


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, read through its own API."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def environment() -> dict:
    """What the figures were measured on; the harness controls none of it."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        src_lines += data.count(b"\n")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "uncontrolled": "no CPU pinning, no cache dropping, no changes to machine "
                        "settings; other load on the machine is not excluded",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            result, extra, tracer = traced(args.workload, args.seed)
            tracer.write_csv(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
        else:
            result, extra = end_to_end(args.workload, args.seed, args.seconds)
    except (ImportError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "extra": extra, "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    for name, value in extra.items():
        if isinstance(value, tuple):
            print(f"{name:40s} {value[0]:.6g} {value[1]}")
        else:
            print(f"{name:40s} {json.dumps(value)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
