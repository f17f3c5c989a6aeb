import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import choi_sqpt
from choi_sqpt import (
    BackendConfig,
    channel_to_json,
    chi_oracle,
    plan_element,
    preset_channel,
    reconstruct_element,
    save_channel,
)
from choi_sqpt.cli import _json, build_parser, main


def _run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--output", str(out)])
    report = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
    return code, report


def test_element_diagonal_bit_flip(tmp_path):
    code, report = _run(
        tmp_path,
        "element", "--preset", "bit-flip", "--param", "0.25",
        "--target", "0,1,0,1", "--backend", "exact",
    )
    assert code == 0
    assert report["results"]["value"] == [pytest.approx(0.25), pytest.approx(0.0)]
    assert report["results"]["std_error"] == 0.0
    assert report["settings"]["plan_settings"] == 1


def test_element_identity_off_diagonal(tmp_path):
    code, report = _run(
        tmp_path,
        "element", "--preset", "identity", "--dim", "2",
        "--target", "0,0,1,1", "--backend", "exact",
    )
    assert code == 0
    assert report["results"]["value"] == [pytest.approx(1.0), pytest.approx(0.0)]
    assert report["settings"]["plan_settings"] == 16


def test_element_sampled_deterministic(tmp_path):
    ch_path = tmp_path / "ch.json"
    save_channel(preset_channel("random-cptp", [8, 2], 2), ch_path)
    argv = [
        "element", "--channel", str(ch_path), "--target", "0,0,1,1",
        "--backend", "sampled", "--shots", "100000", "--seed", "42",
    ]
    code1, rep1 = _run(tmp_path, *argv)
    code2, rep2 = _run(tmp_path, *argv)
    assert code1 == code2 == 0
    assert rep1["results"]["std_error"] > 0
    rep1.pop("duration_seconds")
    rep2.pop("duration_seconds")
    assert rep1 == rep2


def test_element_lambda_indexing(tmp_path):
    # lambda indices a,b,c,d address chi at (c,a,d,b)
    code, report = _run(
        tmp_path,
        "element", "--preset", "amplitude-damping", "--param", "0.3",
        "--target", "1,1,0,0", "--lambda",
    )
    assert code == 0
    assert report["results"]["target"]["chi"] == [0, 1, 0, 1]
    assert report["results"]["value"][0] == pytest.approx(0.3)


def test_element_revalidates_against_library(tmp_path):
    code, report = _run(
        tmp_path,
        "element", "--preset", "random-cptp", "--param", "5", "--param", "2",
        "--dim", "3", "--target", "0,1,2,2",
    )
    assert code == 0
    ch = preset_channel("random-cptp", [5, 2], 3)
    est = reconstruct_element(plan_element(0, 1, 2, 2, 3), ch, BackendConfig())
    assert report["results"]["value"] == [est.value.real, est.value.imag]
    assert report["settings"]["plan_settings"] == est.settings_used


def test_exit_2_on_bad_target(tmp_path):
    code, _ = _run(tmp_path, "element", "--preset", "identity", "--dim", "2",
                   "--target", "0,0,5,0")
    assert code == 2
    code, _ = _run(tmp_path, "element", "--preset", "identity", "--dim", "2",
                   "--target", "0,0")
    assert code == 2


def test_exit_2_on_unknown_preset(tmp_path):
    code, _ = _run(tmp_path, "element", "--preset", "wibble", "--target", "0,0,0,0")
    assert code == 2


def test_exit_2_on_bad_flag():
    assert main(["element", "--nonsense"]) == 2


# nested deeper than the interpreter's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_exit_3_on_unparseable_channel(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, _ = _run(tmp_path, "element", "--channel", str(bad), "--target", "0,0,0,0")
    assert code == 3
    code, _ = _run(tmp_path, "element", "--channel", str(tmp_path / "missing.json"),
                   "--target", "0,0,0,0")
    assert code == 3
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    code, _ = _run(tmp_path, "validate", "--channel", str(not_utf8))
    assert code == 3
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON, encoding="utf-8")
    code, _ = _run(tmp_path, "validate", "--channel", str(deep))
    assert code == 3


@pytest.mark.parametrize("argv", [["element", "--target", "0,0,0,0"],
                                  ["plan", "--dim", "2", "--target", "0,0,0,0"]],
                         ids=["element", "plan"])
def test_exit_3_on_empty_channel_path(tmp_path, capsys, argv):
    # a given --channel is a path to read, even an empty one: it is neither
    # read as a missing preset nor ignored
    code, report = _run(tmp_path, argv[0], "--channel", "", *argv[1:])
    assert (code, report) == (3, None)
    assert capsys.readouterr().err.startswith("error: cannot read : ")


def test_exit_2_on_product_args_for_choi_four(tmp_path, capsys):
    code, report = _run(tmp_path, "full", "--preset", "identity", "--dim", "4",
                        "--local-dim", "3", "--sites", "2")
    assert code == 2
    assert report is None
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("shots, code", [("9223372036854775807", 0), ("9223372036854775808", 2)])
def test_exit_2_on_shots_past_int64(tmp_path, capsys, shots, code):
    # numpy's binomial and multinomial draws take the shot count as an int64
    assert _run(tmp_path, "full", "--preset", "bit-flip", "--param", "0.1",
                "--backend", "sampled", "--shots", shots)[0] == code
    if code:
        assert capsys.readouterr().err.startswith("error: shots must be at most")


@pytest.mark.parametrize("dim", ["0", "-2"])
@pytest.mark.parametrize("preset", [["identity"], ["depolarizing", "--param", "0.1"],
                                    ["random-cptp", "--param", "5"]], ids=lambda p: p[0])
def test_exit_2_on_non_positive_preset_dim(tmp_path, capsys, preset, dim):
    code, report = _run(tmp_path, "full", "--preset", *preset, "--dim", dim)
    assert code == 2
    assert report is None
    assert capsys.readouterr().err == f"error: dimension must be positive, got {dim}\n"


@pytest.mark.parametrize("value, form", [
    ("inf", "joined"), ("-inf", "joined"), ("nan", "joined"),
    ("inf", "separate"), ("-inf", "separate"), ("nan", "separate"),
], ids=["inf", "-inf", "nan", "inf-separate", "-inf-separate", "nan-separate"])
@pytest.mark.parametrize("slot", ["seed", "rank"])
def test_exit_2_on_non_finite_random_cptp_parameter(tmp_path, capsys, slot, value, form):
    # "--param -inf" reaches the preset as "--param=-inf" does, although
    # argparse on its own reads a lone "-inf" as an option
    last = [f"--param={value}"] if form == "joined" else ["--param", value]
    params = last if slot == "seed" else ["--param", "3", *last]
    code, report = _run(tmp_path, "full", "--preset", "random-cptp", *params)
    assert code == 2
    assert report is None
    kind = "a non-negative" if slot == "seed" else "a positive"
    assert capsys.readouterr().err == (
        f"error: random-cptp {slot} must be {kind} integer, got {float(value)}\n"
    )


@pytest.mark.parametrize("params", [["--param", "--dim", "3"], ["--param", "3", "--param"]])
def test_exit_2_usage_error_on_param_without_number(tmp_path, capsys, params):
    code, report = _run(tmp_path, "full", "--preset", "random-cptp", *params)
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert err.startswith("usage: choi-sqpt full")
    assert err.endswith("error: argument --param: expected one argument\n")


def test_exit_4_on_tp_shortcut_for_non_tp(tmp_path):
    ch_path = tmp_path / "nontp.json"
    doc = {
        "dim": 2,
        "kraus": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]],
    }
    ch_path.write_text(json.dumps(doc), encoding="utf-8")
    code, _ = _run(tmp_path, "full", "--channel", str(ch_path), "--tp-shortcut")
    assert code == 4


def test_full_identity_matches_oracle(tmp_path):
    code, report = _run(tmp_path, "full", "--preset", "identity", "--dim", "2")
    assert code == 0
    chi = chi_oracle(preset_channel("identity", dim=2))
    entries = np.array(report["results"]["chi"]["entries"])
    loaded = (entries[:, 0] + 1j * entries[:, 1]).reshape(4, 4)
    assert np.max(np.abs(loaded - chi)) < 1e-12
    assert report["settings"] == {"total": 16, "measured": 16, "inferred": 0}


def test_full_random_cptp_matches_oracle(tmp_path):
    code, report = _run(
        tmp_path,
        "full", "--preset", "random-cptp", "--param", "7", "--param", "4",
        "--dim", "4",
    )
    assert code == 0
    chi = chi_oracle(preset_channel("random-cptp", [7, 4], 4))
    entries = np.array(report["results"]["chi"]["entries"])
    loaded = (entries[:, 0] + 1j * entries[:, 1]).reshape(16, 16)
    assert np.max(np.abs(loaded - chi)) < 1e-10


def test_full_tp_shortcut_counts(tmp_path):
    code, report = _run(
        tmp_path,
        "full", "--preset", "amplitude-damping", "--param", "0.3", "--tp-shortcut",
    )
    assert code == 0
    assert report["settings"] == {"total": 16, "measured": 12, "inferred": 4}


@pytest.mark.parametrize("backend", [["--backend", "exact"], ["--backend", "sampled", "--shots", "100"]],
                         ids=["exact", "sampled"])
def test_full_tp_shortcut_at_dimension_one(tmp_path, backend):
    # the one projector |0><0| is inferred, so the table has no measured column
    code, report = _run(tmp_path, "full", "--preset", "identity", "--dim", "1",
                        "--tp-shortcut", *backend)
    assert code == 0
    chi = report["results"]["chi"]
    assert (chi["entries"], chi["std_errors"]) == ([[1.0, 0.0]], [0.0])
    assert report["settings"] == {"total": 1, "measured": 0, "inferred": 1}


def test_full_product_hermitian_strategy(tmp_path):
    code, report = _run(
        tmp_path,
        "full", "--preset", "random-cptp", "--param", "9", "--dim", "3",
        "--strategy", "product-hermitian",
    )
    assert code == 0
    chi = chi_oracle(preset_channel("random-cptp", [9], 3))
    entries = np.array(report["results"]["chi"]["entries"])
    loaded = (entries[:, 0] + 1j * entries[:, 1]).reshape(9, 9)
    assert np.max(np.abs(loaded - chi)) < 1e-10


def test_validate_identity_passes(tmp_path):
    code, report = _run(tmp_path, "validate", "--preset", "identity", "--dim", "2")
    assert code == 0
    assert report["results"]["cptp"] is True
    assert report["results"]["trace_law_delta"] < 1e-10


def test_validate_truncated_kraus_fails(tmp_path):
    ch_path = tmp_path / "nontp.json"
    # lone Kraus block of an amplitude-damping channel: CP but not TP
    doc = {
        "dim": 2,
        "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.8366600265340756, 0.0]]]],
    }
    ch_path.write_text(json.dumps(doc), encoding="utf-8")
    code, report = _run(tmp_path, "validate", "--channel", str(ch_path))
    assert code == 4
    assert report["results"]["trace_preserving"] is False
    assert "min_chi_eigenvalue" in report["results"]


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_validate_rejects_non_finite_tol(tmp_path, tol, capsys):
    # 2 I is not trace preserving: an infinite tolerance would call it CPTP
    ch_path = tmp_path / "double.json"
    doc = {"dim": 2, "kraus": [[[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]]}
    ch_path.write_text(json.dumps(doc), encoding="utf-8")
    code, report = _run(tmp_path, "validate", "--channel", str(ch_path), "--tol", tol)
    assert (code, report) == (2, None)
    assert capsys.readouterr().err.startswith("error: --tol")


@pytest.mark.parametrize("argv", [
    ["full", "--preset", "identity", "--dim", "2"],
    ["plan", "--dim", "2", "--target", "0,0,0,0"],
])
def test_unwritable_output_exits_2(tmp_path, argv, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(argv + ["--output", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write --output {out}: No such file or directory\n"
    assert captured.out == ""
    assert main(argv + ["--output", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write --output {tmp_path}: Is a directory\n"
    assert captured.out == ""


def test_plan_counts(tmp_path):
    code, report = _run(tmp_path, "plan", "--dim", "3", "--target", "0,0,0,0")
    assert code == 0
    assert report["settings"]["plan_settings"] == 1
    code, report = _run(tmp_path, "plan", "--dim", "3", "--target", "0,1,2,0")
    assert code == 0
    assert report["settings"]["plan_settings"] == 16
    code, report = _run(tmp_path, "plan", "--dim", "3", "--target", "0,1,0,2")
    assert code == 0
    assert report["settings"]["plan_settings"] == 4
    assert len(report["results"]["terms"]) == 4


def test_plan_requires_dim_or_channel(tmp_path):
    code, _ = _run(tmp_path, "plan", "--target", "0,0,0,0")
    assert code == 2


def test_plan_accepts_dimension_one(tmp_path):
    # the one-level system has the single chi element chi[0,0;0,0]
    code, report = _run(tmp_path, "plan", "--dim", "1", "--target", "0,0,0,0")
    assert code == 0
    assert report["settings"]["plan_settings"] == 1


@pytest.mark.parametrize("dim", ["0", "-2"])
def test_plan_exit_2_on_non_positive_dim(tmp_path, capsys, dim):
    code, report = _run(tmp_path, "plan", f"--dim={dim}", "--target", "0,0,0,0")
    assert (code, report) == (2, None)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"got {dim}\n")


# (argv, $CHOI_SQPT_SEED, exit code, stderr): ch2.json holds a D = 2 channel,
# ch3.json a D = 3 one, and missing.json does not exist
_REQUEST_CHECKS = [
    (["element", "--channel", "ch2.json", "--dim", "3", "--target", "0,0,0,0"], None, 2,
     "error: --dim 3 contradicts channel file dimension 2\n"),
    (["element", "--preset", "identity", "--target", "0,0,0,0"], "forty-two", 2,
     "error: $CHOI_SQPT_SEED must be an integer, got 'forty-two'\n"),
    (["full", "--preset", "identity", "--backend", "sampled"], None, 2,
     "error: --backend sampled requires --shots\n"),
    (["element", "--preset", "identity", "--target", "0,x,0,0"], None, 2,
     "error: --target indices must be integers, got '0,x,0,0'\n"),
    (["convert", "--chi", "missing.json", "--channel", "ch2.json"], None, 2,
     "error: pass either --chi or a channel source, not both\n"),
    (["convert", "--chi", "missing.json"], None, 3,
     "error: cannot read chi file missing.json: [Errno 2] No such file or directory: "
     "'missing.json'\n"),
    (["convert", "--channel", "ch2.json", "--to", "choi"], None, 2,
     "error: a channel source already yields the Choi form\n"),
    (["convert"], None, 2, "error: convert needs --chi or a channel source\n"),
    # the dimension comes from the file: index 2 exists only at D = 3
    (["plan", "--channel", "ch3.json", "--target", "0,0,2,0"], None, 0, ""),
]


@pytest.mark.parametrize("argv, seed, code, err", _REQUEST_CHECKS,
                         ids=[" ".join(c[0]) for c in _REQUEST_CHECKS])
def test_request_checks_exit_codes_and_messages(argv, seed, code, err, tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    if seed is None:
        monkeypatch.delenv("CHOI_SQPT_SEED", raising=False)
    else:
        monkeypatch.setenv("CHOI_SQPT_SEED", seed)
    save_channel(preset_channel("bit-flip", [0.25]), "ch2.json")
    save_channel(preset_channel("depolarizing", [0.1], 3), "ch3.json")
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == err
    if code == 0:
        assert json.loads(captured.out)["channel"] == {"source": "file", "path": "ch3.json", "dim": 3}
    else:
        assert captured.out == ""


def test_convert_round_trip(tmp_path):
    code, report = _run(
        tmp_path, "convert", "--preset", "bit-flip", "--param", "0.25", "--to", "pauli"
    )
    assert code == 0
    assert report["results"]["chi"]["convention"] == "pauli-row-ixyz"
    entries = np.array(report["results"]["chi"]["entries"])
    loaded = (entries[:, 0] + 1j * entries[:, 1]).reshape(4, 4)
    np.testing.assert_allclose(loaded, np.diag([0.75, 0.25, 0, 0]), atol=1e-12)

    pauli_path = tmp_path / "pauli.json"
    pauli_path.write_text(json.dumps(report["results"]["chi"]), encoding="utf-8")
    code, back = _run(tmp_path, "convert", "--chi", str(pauli_path), "--to", "choi")
    assert code == 0
    entries = np.array(back["results"]["chi"]["entries"])
    loaded = (entries[:, 0] + 1j * entries[:, 1]).reshape(4, 4)
    chi = chi_oracle(preset_channel("bit-flip", [0.25]))
    assert np.max(np.abs(loaded - chi)) < 1e-12


@pytest.mark.parametrize("dim", [1, 3])
def test_convert_rejects_odd_dimension(tmp_path, capsys, dim):
    # D = 1 is 2**0, so the message names the qubit lower bound, not powers of two
    code, report = _run(tmp_path, "convert", "--preset", "identity", "--dim", str(dim),
                        "--to", "pauli")
    assert code == 2 and report is None
    assert capsys.readouterr().err == (
        "error: basis conversion is defined for systems of one or more qubits "
        f"(D = 2, 4, 8, ...); got dimension {dim}\n"
    )


@pytest.mark.parametrize("content", [b"\xff\xfe{}", DEEP_JSON.encode()],
                         ids=["non-utf8", "deep-nesting"])
def test_convert_exit_3_on_non_utf8_chi_file(tmp_path, content):
    chi_path = tmp_path / "chi.json"
    chi_path.write_bytes(content)
    code, report = _run(tmp_path, "convert", "--chi", str(chi_path), "--to", "pauli")
    assert code == 3
    assert report is None


def test_convert_rejects_wrong_convention(tmp_path):
    code, report = _run(tmp_path, "convert", "--preset", "identity", "--dim", "2")
    pauli_path = tmp_path / "pauli.json"
    pauli_path.write_text(json.dumps(report["results"]["chi"]), encoding="utf-8")
    code, _ = _run(tmp_path, "convert", "--chi", str(pauli_path), "--to", "pauli")
    assert code == 2


# json reads NaN, Infinity and integers of any size; none is a float entry
NON_FLOAT_ENTRIES = [float("nan"), float("inf"), 10**400]
NON_FLOAT_IDS = ["nan", "inf", "huge-int"]


@pytest.mark.parametrize("bad", [None, "0.5", True] + NON_FLOAT_ENTRIES,
                         ids=["null", "string", "bool"] + NON_FLOAT_IDS)
def test_exit_3_on_malformed_chi_entry(tmp_path, bad):
    doc = {"dim": 2, "convention": "choi-row-ef", "entries": [[bad, 0]] + [[0, 0]] * 15}
    chi_path = tmp_path / "chi.json"
    chi_path.write_text(json.dumps(doc), encoding="utf-8")
    code, report = _run(tmp_path, "convert", "--chi", str(chi_path), "--to", "pauli")
    assert code == 3
    assert report is None


@pytest.mark.parametrize("bad", [None, "1", False] + NON_FLOAT_ENTRIES,
                         ids=["null", "string", "bool"] + NON_FLOAT_IDS)
def test_exit_3_on_malformed_channel_entry(tmp_path, bad):
    doc = channel_to_json(preset_channel("identity", dim=2))
    doc["kraus"][0][1][1] = [bad, 0.0]
    ch_path = tmp_path / "ch.json"
    ch_path.write_text(json.dumps(doc), encoding="utf-8")
    code, report = _run(tmp_path, "full", "--channel", str(ch_path))
    assert code == 3
    assert report is None


def test_seed_env_var(tmp_path, monkeypatch):
    argv = [
        "element", "--preset", "bit-flip", "--param", "0.25",
        "--target", "0,0,1,1", "--backend", "sampled", "--shots", "10000",
    ]
    monkeypatch.setenv("CHOI_SQPT_SEED", "42")
    _, from_env = _run(tmp_path, *argv)
    monkeypatch.delenv("CHOI_SQPT_SEED")
    _, explicit = _run(tmp_path, *(argv + ["--seed", "42"]))
    assert from_env["backend"]["seed"] == 42
    assert from_env["results"]["value"] == explicit["results"]["value"]


def test_reports_are_byte_identical_modulo_duration(tmp_path):
    argv = [
        "full", "--preset", "random-cptp", "--param", "6", "--dim", "2",
        "--backend", "sampled", "--shots", "4096", "--seed", "13",
    ]
    out = tmp_path / "report.json"
    argv = argv + ["--output", str(out)]
    assert main(argv) == 0
    blob1 = out.read_bytes()
    assert main(argv) == 0  # written over the first report
    blob2 = out.read_bytes()
    assert _masked_duration(blob1) == _masked_duration(blob2)
    assert blob2.decode() == json.dumps(json.loads(blob2), sort_keys=True, indent=2) + "\n"


_DURATION = re.compile(rb'"duration_seconds": [^,\n]+')


def _masked_duration(blob: bytes) -> bytes:
    # the duration as a golden file stores it
    masked, count = _DURATION.subn(b'"duration_seconds": 0.0', blob)
    assert count == 1
    return masked


def test_output_over_a_longer_report_leaves_only_the_new_one(tmp_path, monkeypatch):
    # the same relative --output in two directories, so the argv echo matches
    long = ["full", "--preset", "random-cptp", "--param", "5", "--dim", "3",
            "--strategy", "product-hermitian", "--output", "report.json"]
    short = ["plan", "--dim", "2", "--target", "0,1,0,1", "--output", "report.json"]
    (tmp_path / "reused").mkdir()
    (tmp_path / "fresh").mkdir()
    monkeypatch.chdir(tmp_path / "reused")
    assert main(long) == 0
    long_size = Path("report.json").stat().st_size
    assert main(short) == 0
    monkeypatch.chdir(tmp_path / "fresh")
    assert main(short) == 0
    reused, fresh = (tmp_path / d / "report.json" for d in ("reused", "fresh"))
    assert reused.stat().st_size < long_size
    assert _masked_duration(reused.read_bytes()) == _masked_duration(fresh.read_bytes())


def test_output_to_devnull(capsys):
    # not a regular file: written, never truncated
    assert main(["plan", "--dim", "2", "--target", "0,0,0,0", "--output", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


# the emitter's corner cases: empty and nested-empty containers, a tuple,
# float reprs, non-finite floats (which JSON spells NaN and Infinity), ints,
# bools, None, a float subclass, and strings json escapes, a lone surrogate
# among them (argv decoded from undecodable bytes)
_EMITTER_CASES = [
    [], {}, [[]], [{}], {"a": [], "b": {}}, (), (1.5, -2.0), [(), [[]]],
    -0.0, [-0.0, 0.0], 5e-324, [5e-324, 1e16, 1e-7, 1e22, 0.1 + 0.2], 1e16, 1e-7,
    math.inf, -math.inf, math.nan, [math.inf, 1.0], [1.0, -math.inf], [math.nan],
    0, -3, [3, 1.0], [1.0, 3], True, [False, 1.0], None, [None, 1.0],
    np.float64(0.1), [np.float64(0.1), 0.2],
    "\u00e9\u4e2d\x00\x1f\t\n\"\\/", "\udcff", ["\udcff", 1.0],
    {"\udcff": "\udcfe", "\u00e9": [1.0, "s"], "": None, "B": True, "a": 0},
    {"z": 1, "a": {"m": [[1.0, 2.0], [3.0, math.nan]], "n": [[], [1]]}},
]


@pytest.mark.parametrize("obj", _EMITTER_CASES, ids=repr)
def test_report_emitter_matches_json_dumps(obj):
    assert _json(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_report_emitter_matches_json_dumps_on_every_golden():
    for path in sorted((Path(__file__).parent / "data").glob("*.json")):
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert _json(obj) == json.dumps(obj, sort_keys=True, indent=2), path.name


# consecutive requests of one process: --param values, then the append
# default [] (a parser that kept the values would hand them on), and every
# subcommand
_CONSECUTIVE = [
    ["full", "--preset", "random-cptp", "--param", "5", "--param", "2", "--dim", "3",
     "--backend", "sampled", "--shots", "1000", "--seed", "4"],
    ["full", "--preset", "identity", "--dim", "2", "--tp-shortcut"],
    ["element", "--preset", "amplitude-damping", "--param", "0.3", "--target", "0,1,0,1"],
    ["element", "--preset", "identity", "--dim", "3", "--target", "0,1,2,0"],
    ["plan", "--dim", "3", "--target", "0,1,2,0"],
    ["validate", "--preset", "bit-flip", "--param", "0.25"],
    ["convert", "--preset", "depolarizing", "--param", "0.1", "--to", "pauli"],
]


def _report_text(argv, capsys) -> str:
    assert main(list(argv)) == 0
    report = json.loads(capsys.readouterr().out)
    report["duration_seconds"] = 0.0
    return json.dumps(report, sort_keys=True)


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
def test_consecutive_requests_match_a_fresh_parser(order, capsys):
    # main builds its parser once per process; each report is the one a
    # fresh parser gives, whichever request came before it
    requests = _CONSECUTIVE[::order]
    fresh = []
    for argv in requests:
        build_parser.cache_clear()
        fresh.append(_report_text(argv, capsys))
    build_parser.cache_clear()
    assert [_report_text(argv, capsys) for argv in requests] == fresh
    assert build_parser.cache_info().misses == 1


_SAMPLED = ["--backend", "sampled", "--shots", "10000", "--seed", "7"]

# (golden file, argv); each pins the whole report, chi.std_errors included
SAMPLED_GOLDENS = [
    ("golden_full_sampled_d2.json",
     ["full", "--preset", "random-cptp", "--param", "31", "--dim", "2", *_SAMPLED]),
    ("golden_full_sampled_d2_tp_shortcut.json",
     ["full", "--preset", "random-cptp", "--param", "31", "--dim", "2",
      "--tp-shortcut", *_SAMPLED]),
    ("golden_full_sampled_d3.json",
     ["full", "--preset", "random-cptp", "--param", "32", "--dim", "3", *_SAMPLED]),
    ("golden_full_sampled_d3_tp_shortcut.json",
     ["full", "--preset", "random-cptp", "--param", "32", "--dim", "3",
      "--tp-shortcut", *_SAMPLED]),
    ("golden_full_sampled_d4_tp_shortcut.json",
     ["full", "--preset", "random-cptp", "--param", "36", "--dim", "4",
      "--tp-shortcut", *_SAMPLED]),
    ("golden_full_sampled_product_hermitian.json",
     ["full", "--preset", "random-cptp", "--param", "33", "--dim", "4",
      "--strategy", "product-hermitian", "--local-dim", "2", "--sites", "2",
      *_SAMPLED]),
    ("golden_element_sampled_off_diagonal.json",
     ["element", "--preset", "random-cptp", "--param", "34", "--dim", "3",
      "--target", "0,1,2,0", *_SAMPLED]),
    # a master seed of 2**32 or more enters the streams as two entropy words
    ("golden_full_sampled_d3_seed_2_40_plus_11.json",
     ["full", "--preset", "random-cptp", "--param", "37", "--dim", "3",
      "--backend", "sampled", "--shots", "10000", "--seed", "1099511627787"]),
    ("golden_full_sampled_d2_product_hermitian_seed_2_64_minus_1.json",
     ["full", "--preset", "random-cptp", "--param", "38", "--dim", "2",
      "--strategy", "product-hermitian",
      "--backend", "sampled", "--shots", "10000", "--seed", "18446744073709551615"]),
]


def golden_report_text(argv, capsys, code=0) -> str:
    """The CLI report for argv, its bytes as printed, as a golden file stores it."""
    assert main(list(argv)) == code
    return _masked_duration(capsys.readouterr().out.encode()).decode()


def test_golden_report_regenerates_identically(capsys):
    golden_path = Path(__file__).parent / "data" / "golden_full_bit_flip.json"
    golden = golden_path.read_text(encoding="utf-8")
    argv = ["full", "--preset", "bit-flip", "--param", "0.25",
            "--backend", "exact", "--seed", "0"]
    assert golden_report_text(argv, capsys) == golden
    # and the frozen numbers still agree with the oracle
    chi = chi_oracle(preset_channel("bit-flip", [0.25]))
    entries = np.array(json.loads(golden)["results"]["chi"]["entries"])
    loaded = (entries[:, 0] + 1j * entries[:, 1]).reshape(4, 4)
    assert np.max(np.abs(loaded - chi)) < 1e-12


@pytest.mark.parametrize("name, argv", SAMPLED_GOLDENS, ids=[g[0] for g in SAMPLED_GOLDENS])
def test_sampled_golden_reports_regenerate_identically(name, argv, capsys):
    golden = (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")
    assert golden_report_text(argv, capsys) == golden


_EXACT = ["--backend", "exact", "--seed", "0"]
_D3 = ["full", "--preset", "random-cptp", "--param", "35", "--dim", "3"]

# exact goldens at D = 3 pin the last bits of every chi entry, where the
# summation order of the table and of the lambda combine shows
EXACT_GOLDENS = [
    ("golden_full_exact_d3.json", [*_D3, *_EXACT]),
    ("golden_full_exact_d3_tp_shortcut.json", [*_D3, "--tp-shortcut", *_EXACT]),
    ("golden_full_exact_d3_product_hermitian.json",
     [*_D3, "--strategy", "product-hermitian", *_EXACT]),
]


@pytest.mark.parametrize("name, argv", EXACT_GOLDENS, ids=[g[0] for g in EXACT_GOLDENS])
def test_exact_golden_reports_regenerate_identically(name, argv, capsys):
    golden = (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")
    assert golden_report_text(argv, capsys) == golden
    chi = chi_oracle(preset_channel("random-cptp", [35], 3))
    entries = np.array(json.loads(golden)["results"]["chi"]["entries"])
    loaded = (entries[:, 0] + 1j * entries[:, 1]).reshape(9, 9)
    assert np.max(np.abs(loaded - chi)) < 1e-12


# a file channel with the single Kraus operator |0><0|: CP but not TP
_PROJECTOR = {"dim": 2, "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}
_BIT_FLIP = ["--preset", "bit-flip", "--param", "0.25"]
_TO_PAULI = ["convert", *_BIT_FLIP, "--to", "pauli"]
_PLAN = ["plan", "--dim", "3", "--target", "0,1,2,0"]

# (golden file, argv, exit code): the reports of plan, validate and convert,
# and the --pretty summary of every subcommand.  Both validate channels have
# a diagonal chi, so min_chi_eigenvalue carries no LAPACK rounding, and no
# other field comes from an eigendecomposition.  The paths are relative to
# the working directory, which holds projector.json and pauli.json (the
# to-pauli golden's chi).
CLI_GOLDENS = [
    ("golden_plan_d3.json", _PLAN, 0),
    ("golden_plan_d3_lambda.json", [*_PLAN, "--lambda"], 0),
    ("golden_validate_amplitude_damping_1.json",
     ["validate", "--preset", "amplitude-damping", "--param", "1"], 0),
    ("golden_validate_projector.json", ["validate", "--channel", "projector.json"], 4),
    ("golden_convert_bit_flip_to_pauli.json", _TO_PAULI, 0),
    ("golden_convert_bit_flip_to_choi.json", ["convert", "--chi", "pauli.json", "--to", "choi"], 0),
    ("golden_pretty_element.txt", ["element", *_BIT_FLIP, "--target", "0,0,1,1", "--pretty"], 0),
    ("golden_pretty_full.txt", ["full", *_BIT_FLIP, "--pretty"], 0),
    ("golden_pretty_validate.txt", ["validate", "--channel", "projector.json", "--pretty"], 4),
    ("golden_pretty_plan.txt", [*_PLAN, "--pretty"], 0),
    ("golden_pretty_convert.txt", [*_TO_PAULI, "--pretty"], 0),
]


@pytest.mark.parametrize("name, argv, code", CLI_GOLDENS, ids=[g[0] for g in CLI_GOLDENS])
def test_cli_golden_outputs_regenerate_identically(name, argv, code, tmp_path, monkeypatch, capsys):
    data = Path(__file__).parent / "data"
    monkeypatch.chdir(tmp_path)
    Path("projector.json").write_text(json.dumps(_PROJECTOR), encoding="utf-8")
    pauli = json.loads((data / "golden_convert_bit_flip_to_pauli.json").read_text(encoding="utf-8"))
    Path("pauli.json").write_text(json.dumps(pauli["results"]["chi"]), encoding="utf-8")
    golden = (data / name).read_text(encoding="utf-8")
    if name.endswith(".txt"):
        assert main(list(argv)) == code
        assert capsys.readouterr().out == golden
    else:
        assert golden_report_text(argv, capsys, code) == golden


def test_stdout_json_when_no_output(capsys):
    code = main(["plan", "--dim", "2", "--target", "0,0,0,0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["settings"]["plan_settings"] == 1


def test_pretty_prints_summary(capsys):
    code = main([
        "element", "--preset", "bit-flip", "--param", "0.25",
        "--target", "0,1,0,1", "--pretty",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "chi[0,1;0,1]" in out
    assert "settings: 1" in out


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip()


_IMPORT_PROBE = """
import sys
import choi_sqpt, choi_sqpt.cli
from choi_sqpt import BackendConfig, full_sqpt, preset_channel
full_sqpt(preset_channel("identity", dim=2), BackendConfig())
print("numpy.random" in sys.modules)
"""


def test_exact_run_does_not_import_numpy_random():
    # only the sampled backend and the random presets import numpy.random, so
    # importing the package and the CLI and an exact run do not pay for it
    src = str(Path(choi_sqpt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert run.stdout == "False\n"
