"""Tests of the benchmark itself: the correctness gate, the tracer and a
small smoke run of each workload.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gate
import run
import speed
import workloads
from tracer import Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
lib = run.import_library()


def _channel(dim=3, seed=5):
    return lib.preset_channel("random-cptp", [seed], dim)


def test_gate_rejects_corrupted_exact_chi():
    channel = _channel()
    oracle = lib.chi_oracle(channel)
    chi = lib.full_sqpt(channel, lib.BackendConfig("exact")).chi
    assert gate.exact_problems(chi, oracle)[0] == []
    corrupted = chi.copy()
    corrupted[1, 4] += 1e-9
    assert gate.exact_problems(corrupted, oracle)[0]
    assert gate.exact_problems(chi.T, oracle)[0]


def test_gate_rejects_corrupted_sampled_chi():
    channel = _channel()
    oracle = lib.chi_oracle(channel)
    config = lib.BackendConfig("sampled", workloads.SHOTS, 9)
    result = lib.full_sqpt(channel, config, tp_shortcut=True)
    problems, sigma_zero = gate.sampled_problems(result.chi, result.std_errors, oracle, workloads.SHOTS)
    assert problems == [] and sigma_zero == 0
    corrupted = result.chi.copy()
    corrupted[2, 7] += 0.2  # about 15 reported standard errors
    assert gate.sampled_problems(corrupted, result.std_errors, oracle, workloads.SHOTS)[0]


def test_gate_counts_sigma_zero_elements_without_dropping_them():
    oracle = np.array([[0.5, 0.25]])
    values = np.array([[0.5, 0.9]])
    problems, sigma_zero = gate.sampled_problems(values, np.zeros((1, 2)), oracle, 1000)
    assert sigma_zero == 2
    assert problems


def test_gate_checks_settings_counts():
    assert gate.full_settings_problems(3, 81, 72, 9, True) == []
    assert gate.full_settings_problems(3, 81, 81, 0, False) == []
    assert gate.full_settings_problems(3, 81, 81, 0, True)
    assert gate.element_settings_problems(16, 16, 16) == []
    assert gate.element_settings_problems(4, 16, 16)
    assert gate.element_settings_problems(9, 9, 9)


def test_repeat_check_flags_differing_bytes():
    reference = run.Outcome(fingerprint=b"a", elements=1)
    same, other = run.Outcome(fingerprint=b"a", elements=1), run.Outcome(fingerprint=b"b", elements=1)
    run.repeat_check(reference, [same])
    run.repeat_check(reference, [other])
    assert same.problems == [] and other.problems and other.elements == 0


def test_class_medians_replace_latencies_by_their_class_median():
    small = workloads.Request("full", 2, 1)
    large = workloads.Request("full", 3, 1)
    ok, bad = run.Outcome(), run.Outcome(problems=["x"])
    requests = [small, small, small, large, large]
    latencies = [1.0, 3.0, 9.0, 5.0, 7.0]
    outcomes = [ok, ok, bad, bad, bad]
    assert run.class_medians(requests, latencies, outcomes) == [2.0, 2.0, 2.0, 6.0, 6.0]


def test_scale_divides_by_the_kernel_time():
    ref = speed.CAL_REF_MS * 1e-3
    assert run.scale(1.0, ref, ref) == pytest.approx(1.0)
    assert run.scale(1.0, ref, 3 * ref) == pytest.approx(0.5)
    assert speed.speed_kernel() > 0


def test_schedule_depends_only_on_seed():
    for name in workloads.WORKLOADS:
        a, b, c = (workloads.cycles(name, s) for s in (3, 3, 4))
        first = next(a)
        assert first == next(b) and first != next(c)
        assert next(a) != first


def test_element_targets_need_their_settings_count():
    cycle = next(workloads.cycles("element-stream", 7))
    for req in cycle:
        assert lib.plan_element(*req.target, req.dim).settings_count == req.settings


def test_canonical_key_calls_per_setting_for_choi_four_d5():
    channel = _channel(dim=5)
    original, original_plan = lib.full_sqpt, lib.tomo.plan_element
    tracer = Tracer()
    with tracer.installed():
        lib.full_sqpt(channel, lib.BackendConfig("exact"))
    summary = tracer.summary()
    assert summary["measure.canonical_key"]["calls"] == 21_675
    assert summary["measure.measure_setting"]["calls"] == 625
    assert lib.full_sqpt is original and lib.tomo.plan_element is original_plan


def _check_metrics(result, declared):
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_end_to_end(name):
    result, extra = run.end_to_end(name, seed=1, seconds=0, min_requests=1)
    _check_metrics(result, SPEC["end_to_end"])
    assert extra["error_rate"] == (0.0, "ratio")
    assert all(result["metrics"][k]["value"] > 0 for k in result["metrics"])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_traced(name):
    result, extra, tracer = run.traced(name, seed=1, n_cycles=1)
    _check_metrics(result, SPEC["per_layer"])
    assert tracer.spans and extra["traced_s"][0] > 0


def test_command_prints_result_as_last_line():
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "element-stream",
         "--seed", "2", "--seconds", "0.2", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= run.MIN_REQUESTS
    assert any(line.startswith("error_rate") for line in lines)


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "full-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
