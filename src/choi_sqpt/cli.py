"""Command-line frontend emitting JSON run reports.

Subcommands: element, full, validate, plan, convert.  A report is the bytes
of json.dumps(report, sort_keys=True, indent=2) + "\n", produced by _json, so
identical invocations (with identical seeds) produce byte-identical output
apart from the duration field.  --output overwrites an existing file in
place and then truncates it to the report's length.

Every request takes one path: main resolves its channel source once, and its
subparser names its handler, which takes the channel and its descriptor, times
its library call with _timed and returns (exit code, report fields, --pretty
lines); main adds the tool and command header, emits the report with _emit
and maps a ValueError to its exit code.

Exit codes: 0 success, 2 bad arguments, 3 channel or chi file parse
failure, 4 physicality validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .basis import chi_choi_to_pauli, chi_pauli_to_choi
from .channels import (
    ChannelFormatError,
    QuantumChannel,
    _complex_to_pair,
    _read_json,
    chi_oracle,
    load_channel,
    preset_channel,
    validate_cptp,
)
from .measure import BackendConfig, PhysicalityError
from .tomo import (
    CHI_CONVENTION,
    PAULI_CONVENTION,
    chi_from_json,
    chi_index,
    chi_to_json,
    full_sqpt,
    lambda_index,
    plan_element,
    reconstruct_element,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_PHYSICALITY = 4

SEED_ENV_VAR = "CHOI_SQPT_SEED"


def _add_command(sub, name: str, help_text: str, run, backend: bool = False,
                 channel_required: bool = True) -> argparse.ArgumentParser:
    # a subcommand's channel source, backend (element and full) and output
    # flags, in that order, and the handler that serves it
    parser = sub.add_parser(name, help=help_text)
    group = parser.add_mutually_exclusive_group(required=channel_required)
    group.add_argument("--channel", metavar="PATH", help="channel JSON file")
    group.add_argument("--preset", metavar="NAME", help="named preset channel")
    parser.add_argument(
        "--param",
        metavar="V",
        type=float,
        action="append",
        default=[],
        help="preset parameter (repeatable)",
    )
    parser.add_argument("--dim", type=int, default=None, help="system dimension")
    if backend:
        parser.add_argument(
            "--backend", choices=("exact", "sampled"), default="exact"
        )
        parser.add_argument("--shots", type=int, default=None, help="shots per setting")
        parser.add_argument(
            "--seed",
            type=int,
            default=None,
            help=f"master seed (default: ${SEED_ENV_VAR} or 0)",
        )
    parser.add_argument("--output", metavar="PATH", help="write the JSON report here")
    parser.add_argument(
        "--pretty", action="store_true", help="print a human-readable summary"
    )
    parser.set_defaults(run=run)
    return parser


def _add_target_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--target", required=True, metavar="e,f,g,h")
    parser.add_argument(
        "--lambda",
        dest="lambda_indices",
        action="store_true",
        help="interpret --target as data-matrix (lambda) indices a,b,c,d",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # one parser per process: parsing leaves it unchanged, so main reuses it
    parser = argparse.ArgumentParser(
        prog="choi-sqpt",
        description=(
            "Partial standard quantum process tomography in the matrix-unit "
            "(Choi) operator basis."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_element = _add_command(
        sub, "element", "reconstruct a single chi matrix element", _cmd_element, backend=True
    )
    _add_target_args(p_element)

    p_full = _add_command(
        sub, "full", "reconstruct the complete chi matrix", _cmd_full, backend=True
    )
    p_full.add_argument(
        "--strategy",
        choices=("choi-four", "product-hermitian"),
        default="choi-four",
    )
    p_full.add_argument("--tp-shortcut", action="store_true")
    p_full.add_argument("--local-dim", type=int, default=None)
    p_full.add_argument("--sites", type=int, default=None)

    p_validate = _add_command(sub, "validate", "check a channel's physicality", _cmd_validate)
    p_validate.add_argument("--tol", type=float, default=1e-10)

    p_plan = _add_command(
        sub, "plan", "print the measurement plan for one element", _cmd_plan,
        channel_required=False,
    )
    _add_target_args(p_plan)

    p_convert = _add_command(
        sub, "convert", "convert a chi matrix between Choi and Pauli bases", _cmd_convert,
        channel_required=False,
    )
    p_convert.add_argument("--chi", metavar="PATH", help="chi JSON file to convert")
    p_convert.add_argument("--to", choices=("pauli", "choi"), default="pauli")

    return parser


def _numbers_joined_to_param(argv: list[str]) -> list[str]:
    # argparse reads a value such as "-inf" as an option, so each number after
    # --param is passed as --param=V; argparse still rejects a non-number
    out: list[str] = []
    for arg in argv:
        if out[-1:] == ["--param"]:
            with contextlib.suppress(ValueError):
                float(arg)
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def _resolve_channel(args) -> tuple[QuantumChannel | None, dict | None]:
    # (None, None) when the request names no channel source
    if args.channel is not None:
        try:
            channel = load_channel(args.channel)
        except OSError as exc:
            raise ChannelFormatError(f"cannot read {args.channel}: {exc}") from exc
        if args.dim is not None and args.dim != channel.dim:
            raise ValueError(
                f"--dim {args.dim} contradicts channel file dimension {channel.dim}"
            )
        descriptor = {"source": "file", "path": args.channel, "dim": channel.dim}
        return channel, descriptor
    if args.preset is None:
        return None, None
    dim = args.dim if args.dim is not None else 2
    channel = preset_channel(args.preset, args.param, dim)
    descriptor = {
        "source": "preset",
        "name": args.preset,
        "params": [float(p) for p in args.param],
        "dim": channel.dim,
    }
    return channel, descriptor


def _resolve_backend(args) -> tuple[BackendConfig, dict]:
    if args.seed is not None:
        seed = args.seed
    else:
        raw = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(raw)
        except ValueError as exc:
            raise ValueError(f"${SEED_ENV_VAR} must be an integer, got {raw!r}") from exc
    if args.backend == "sampled":
        if args.shots is None:
            raise ValueError("--backend sampled requires --shots")
        config = BackendConfig("sampled", args.shots, seed)
    else:
        config = BackendConfig("exact", 0, seed)
    echo = {"mode": config.mode, "shots": config.shots, "seed": config.master_seed}
    return config, echo


def _parse_target(text: str, as_lambda: bool) -> tuple[int, int, int, int]:
    # the indices' range is plan_element's check
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--target needs four comma-separated indices, got {text!r}")
    try:
        indices = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"--target indices must be integers, got {text!r}") from exc
    return chi_index(indices) if as_lambda else indices


def _chi_payload(chi: np.ndarray, std_errors: np.ndarray, convention: str) -> dict:
    payload = chi_to_json(chi, convention)
    payload["std_errors"] = np.asarray(std_errors, dtype=float).reshape(-1).tolist()
    return payload


def _json(obj, pad: str = "\n") -> str:
    # json.dumps(obj, sort_keys=True, indent=2) for string keys, without the
    # pure-Python encoder that indent selects: nan, inf, bools and None are
    # json's to spell, and a list of finite floats is one join of their reprs
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if type(obj) is int or type(obj) is float and math.isfinite(obj):
        return repr(obj)
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = [encode_basestring_ascii(k) + ": " + _json(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if not isinstance(obj, (list, tuple)) or not obj:
        return json.dumps(obj)
    try:
        body = ("," + inner).join(map(float.__repr__, obj))
    except TypeError:  # an item that is not a float
        body = "n"
    if "n" in body:  # from the line above, or "inf" or "nan"
        body = ("," + inner).join([_json(v, inner) for v in obj])
    return "[" + inner + body + pad + "]"


def _emit(report: dict, args, pretty_lines: list[str]) -> None:
    text = _json(report) + "\n"
    if args.output:
        try:
            # written over, then cut to length: a truncate to zero, as "w" does,
            # starts ext4's writeback on close, which the next truncate waits for
            with open(args.output, "w", encoding="utf-8",
                      opener=lambda path, flags: os.open(path, flags & ~os.O_TRUNC, 0o666)) as fh:
                fh.write(text)
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # not a FIFO or /dev/null
                    fh.truncate()
        except OSError as exc:
            raise ValueError(f"cannot write --output {args.output}: {exc.strerror}") from exc
    if args.pretty:
        print("\n".join(pretty_lines))
    elif not args.output:
        sys.stdout.write(text)


def _timed(fn, *args, **kwargs):
    # fn's result and the seconds the call took, the report's duration_seconds
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def _cmd_element(args, channel, descriptor) -> tuple[int, dict, list[str]]:
    config, backend_echo = _resolve_backend(args)
    target = _parse_target(args.target, args.lambda_indices)
    plan = plan_element(*target, channel.dim)
    estimate, duration = _timed(reconstruct_element, plan, channel, config)
    e, f, g, h = target
    fields = dict(
        channel=descriptor,
        backend=backend_echo,
        results={
            "target": {"chi": list(target), "lambda": list(lambda_index(target))},
            "value": _complex_to_pair(estimate.value),
            "std_error": estimate.std_error,
            "settings_used": estimate.settings_used,
            "backend": estimate.backend,
        },
        settings={"plan_settings": plan.settings_count},
        duration_seconds=duration,
    )
    lines = [
        f"chi[{e},{f};{g},{h}] = {estimate.value.real:+.9f} "
        f"{estimate.value.imag:+.9f}i  ± {estimate.std_error:.3e}",
        f"settings: {plan.settings_count}  backend: {estimate.backend}",
    ]
    return EXIT_OK, fields, lines


def _cmd_full(args, channel, descriptor) -> tuple[int, dict, list[str]]:
    config, backend_echo = _resolve_backend(args)
    result, duration = _timed(
        full_sqpt,
        channel,
        config,
        strategy=args.strategy,
        tp_shortcut=args.tp_shortcut,
        local_dim=args.local_dim,
        n_sites=args.sites,
    )
    fields = dict(
        channel=descriptor,
        backend=backend_echo,
        results={
            "strategy": result.strategy,
            "tp_shortcut": args.tp_shortcut,
            "chi": _chi_payload(result.chi, result.std_errors, CHI_CONVENTION),
        },
        settings={
            "total": result.settings_total,
            "measured": result.settings_measured,
            "inferred": result.settings_inferred,
        },
        duration_seconds=duration,
    )
    trace = complex(np.trace(result.chi))
    lines = [
        f"strategy: {result.strategy}  dim: {channel.dim}",
        f"settings: total {result.settings_total}, measured "
        f"{result.settings_measured}, inferred {result.settings_inferred}",
        f"trace(chi) = {trace.real:+.9f} {trace.imag:+.9f}i",
    ]
    return EXIT_OK, fields, lines


def _cmd_validate(args, channel, descriptor) -> tuple[int, dict, list[str]]:
    if not (np.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be a finite positive number, got {args.tol}")
    verdict, duration = _timed(validate_cptp, channel, args.tol)
    fields = dict(
        channel=descriptor,
        results={
            "tol": verdict.tol,
            "tp_deviation": verdict.tp_deviation,
            "trace_preserving": verdict.trace_preserving,
            "min_chi_eigenvalue": verdict.min_chi_eigenvalue,
            "completely_positive": verdict.completely_positive,
            "chi_trace": verdict.chi_trace,
            "trace_law_delta": abs(verdict.chi_trace - channel.dim),
            "cptp": verdict.cptp,
        },
        duration_seconds=duration,
    )
    lines = [
        f"trace-preserving: {verdict.trace_preserving} "
        f"(deviation {verdict.tp_deviation:.3e})",
        f"completely positive: {verdict.completely_positive} "
        f"(min chi eigenvalue {verdict.min_chi_eigenvalue:.3e})",
        f"trace(chi) = {verdict.chi_trace:.12f} (expect {channel.dim} if TP)",
    ]
    return EXIT_OK if verdict.cptp else EXIT_PHYSICALITY, fields, lines


def _cmd_plan(args, channel, descriptor) -> tuple[int, dict, list[str]]:
    if channel is not None:
        dim = channel.dim
    elif args.dim is not None:
        dim, descriptor = args.dim, {"source": "none", "dim": args.dim}
    else:
        raise ValueError("plan needs --dim or a channel source")
    target = _parse_target(args.target, args.lambda_indices)
    plan, duration = _timed(plan_element, *target, dim)
    # a plan's observables are projectors |phi><phi|, listed by phi
    settings_json = [
        {
            "input": [_complex_to_pair(z) for z in psi],
            "observable": {"kind": "projector", "data": [_complex_to_pair(z) for z in phi]},
        }
        for psi in plan.inputs.states
        for phi in plan.observables.states
    ]
    lam = lambda_index(target)
    fields = dict(
        channel=descriptor,
        results={
            "target": {"chi": list(target), "lambda": list(lam)},
            "settings": settings_json,
            "terms": [
                {"weight": _complex_to_pair(w), "setting": idx} for w, idx in plan.terms
            ],
        },
        settings={"plan_settings": plan.settings_count},
        duration_seconds=duration,
    )
    lines = [
        "target chi[{},{};{},{}]  (lambda[{},{};{},{}])".format(*target, *lam),
        f"settings: {plan.settings_count}, terms: {len(plan.terms)}",
    ]
    return EXIT_OK, fields, lines


def _cmd_convert(args, channel, descriptor) -> tuple[int, dict, list[str]]:
    if args.chi and channel is not None:
        raise ValueError("pass either --chi or a channel source, not both")
    if args.chi:
        try:
            chi, convention = chi_from_json(_read_json(args.chi))
        except OSError as exc:
            raise ChannelFormatError(f"cannot read chi file {args.chi}: {exc}") from exc
        except ValueError as exc:  # a malformed document, or _read_json's invalid JSON
            raise ChannelFormatError(str(exc)) from exc
        descriptor = {"source": "chi-file", "path": args.chi}
        expected = CHI_CONVENTION if args.to == "pauli" else PAULI_CONVENTION
        if convention != expected:
            raise ValueError(
                f"conversion to {args.to} needs a {expected} input, got {convention}"
            )
        dim = int(np.sqrt(chi.shape[0]))
    elif channel is not None:
        if args.to != "pauli":
            raise ValueError("a channel source already yields the Choi form")
        chi = chi_oracle(channel)
        dim = channel.dim
    else:
        raise ValueError("convert needs --chi or a channel source")

    n_qubits = dim.bit_length() - 1
    if dim < 2 or 2**n_qubits != dim:
        raise ValueError(
            "basis conversion is defined for systems of one or more qubits "
            f"(D = 2, 4, 8, ...); got dimension {dim}"
        )
    if args.to == "pauli":
        convert, out_convention = chi_choi_to_pauli, PAULI_CONVENTION
    else:
        convert, out_convention = chi_pauli_to_choi, CHI_CONVENTION
    converted, duration = _timed(convert, chi, n_qubits)
    fields = dict(
        channel=descriptor,
        results={
            "direction": args.to,
            "n_qubits": n_qubits,
            "chi": _chi_payload(converted, np.zeros(converted.shape), out_convention),
        },
        duration_seconds=duration,
    )
    lines = [
        f"converted {dim * dim} x {dim * dim} chi to {out_convention}",
    ]
    return EXIT_OK, fields, lines


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_numbers_joined_to_param(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        exit_code, fields, pretty_lines = args.run(args, *_resolve_channel(args))
        header = {"tool": {"name": "choi-sqpt", "version": __version__}, "command": list(argv)}
        _emit({**header, **fields}, args, pretty_lines)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ChannelFormatError):
            return EXIT_PARSE
        return EXIT_PHYSICALITY if isinstance(exc, PhysicalityError) else EXIT_USAGE
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
