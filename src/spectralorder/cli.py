"""File-based front end: ingest matrix sets, run comparisons, lattice
operations, limit formulas, and verification suites, and emit reports.

Document format (JSON, format_version "1")::

    {
      "format_version": "1",
      "dim": 2,
      "matrices": [
        {"name": "a", "re": [[1, 0], [0, 2]], "im": [[0, 0], [0, 0]]}
      ]
    }

"im" may be omitted for real matrices. Reports are JSON by default and are
byte-identical across reruns with the same flags and seed; wall-clock data
is isolated under a "timing" key so it can be stripped before comparison.

Exit codes: 0 evaluation succeeded (regardless of verdicts), 2 usage or
input error, 3 numerical backend failure, 4 non-convergence. The verify
subcommand additionally exits 1 when the suite ran but reported failures.
The codes come from the error classes themselves (see
:mod:`spectralorder.errors`), so a bad flag value, a non-integer seed
variable or a non-finite matrix entry exits 2 like any other input error,
and every failure ends in one ``error:`` line instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence

import numpy as np

from . import errors
from .core import HermitianMatrix, Tolerances, loewner_leq, make_hermitian, operator_norm
from .family import SpectralFamily, borderline_gap, reconstruct, spectral_leq
from .harness import (
    INSTANCE_KINDS,
    SUITE_IDS,
    InstanceSpec,
    gen_instances,
    monotone_probe,
    run_suite,
)
from .lattice import lattice_family, spectral_inf, spectral_sup
from .limits import orthogonal_sup, power_inf_iterates, power_sup_iterates, run_schedule

EXIT_OK = 0

SEED_ENV_VAR = "SPECTRAL_LATTICE_SEED"


class InputError(errors.InvalidInputError):
    """File, parse, name lookup or environment problem (exit code 2)."""


def _matrix_to_doc_entry(name: str, h: HermitianMatrix) -> dict:
    return {
        "name": name,
        "re": np.real(h.entries).tolist(),
        "im": np.imag(h.entries).tolist(),
    }


def matrices_to_document(named: Sequence[tuple[str, HermitianMatrix]]) -> dict:
    dims = {h.dim for _, h in named}
    if len(dims) != 1:
        raise InputError("matrices in one document must share a dimension")
    return {
        "format_version": "1",
        "dim": named[0][1].dim,
        "matrices": [_matrix_to_doc_entry(name, h) for name, h in named],
    }


def load_document(path: str, tol: Tolerances) -> dict[str, HermitianMatrix]:
    """Parse a matrix-set document; raises InputError on any defect."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format_version") != "1":
        raise InputError(f"{path}: expected format_version \"1\"")
    try:
        dim = int(doc["dim"])
        entries = doc["matrices"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: missing or malformed dim/matrices") from exc
    if not isinstance(entries, list):
        raise InputError(f"{path}: matrices must be a list")
    out: dict[str, HermitianMatrix] = {}
    for item in entries:
        try:
            name = str(item["name"])
            re = np.asarray(item["re"], dtype=float)
            im = np.asarray(item.get("im", np.zeros_like(re)), dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: malformed matrix entry") from exc
        if name in out:
            raise InputError(f"{path}: duplicate matrix name {name!r}")
        if re.shape != (dim, dim) or im.shape != (dim, dim):
            raise InputError(f"{path}: matrix {name!r} is not {dim}x{dim}")
        try:
            out[name] = make_hermitian(re + 1j * im, tol)
        except errors.SpectralOrderError as exc:
            raise InputError(f"{path}: matrix {name!r}: {exc}") from exc
    if not out:
        raise InputError(f"{path}: document contains no matrices")
    return out


def _pick(named: dict[str, HermitianMatrix], names: list[str]) -> list[HermitianMatrix]:
    missing = [n for n in names if n not in named]
    if missing:
        raise InputError(f"names not found in document: {', '.join(missing)}")
    return [named[n] for n in names]


def _tolerances(args) -> Tolerances:
    return Tolerances(
        cluster_tol=args.tol_cluster,
        psd_tol=args.tol_psd,
        conv_tol=args.tol_conv,
        max_power_doublings=args.max_doublings,
    )


def _family_summary(sf: SpectralFamily) -> dict:
    return {
        "breakpoints": [float(b) for b in sf.breakpoints],
        "ranks": [int(r) for r in sf.ranks],
    }


def _emit(report: dict, args, stream=None) -> None:
    stream = stream or sys.stdout
    if args.format == "json":
        stream.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
        return
    _emit_text(report, stream)


def _emit_text(report: dict, stream, indent: str = "") -> None:
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            stream.write(f"{indent}{key}:\n")
            _emit_text(value, stream, indent + "  ")
        elif isinstance(value, list):
            stream.write(f"{indent}{key}: {json.dumps(value)}\n")
        else:
            stream.write(f"{indent}{key}: {value}\n")


def _verdict_dict(verdict) -> dict:
    out = {"holds": verdict.holds}
    if not verdict.holds:
        out["witness_lambda"] = float(verdict.witness_lambda)
        out["defect"] = float(verdict.defect)
    return out


def cmd_compare(args) -> int:
    tol = _tolerances(args)
    named = load_document(args.input, tol)
    names = args.names.split(",")
    if len(names) != 2:
        raise InputError("compare needs exactly two names, e.g. --names a,b")
    x, y = _pick(named, names)
    start = time.perf_counter()
    verdict = spectral_leq(x, y, tol)
    probe = monotone_probe(x, y, probes=args.probes, seed=args.seed, tol=tol)
    report = {
        "command": "compare",
        "names": names,
        "loewner_leq": loewner_leq(x, y, tol),
        "spectral_leq": _verdict_dict(verdict),
        "borderline_clustering": borderline_gap(x, y, tol),
        "monotone_probe": {
            "status": probe.status,
            "probes_run": probe.probes_run,
            **({"witness": probe.witness} if probe.refuted else {}),
        },
        "timing": {"wall_time_s": time.perf_counter() - start},
    }
    _emit(report, args)
    return EXIT_OK


def cmd_lattice(args) -> int:
    tol = _tolerances(args)
    named = load_document(args.input, tol)
    names = args.names.split(",") if args.names else list(named)
    mats = _pick(named, names)
    start = time.perf_counter()
    sf = lattice_family(mats, args.mode, tol)
    doc = matrices_to_document([(args.mode, reconstruct(sf, tol))])
    report = {
        "command": "lattice",
        "mode": args.mode,
        "names": names,
        "result_family": _family_summary(sf),
        "timing": {"wall_time_s": time.perf_counter() - start},
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        report["output"] = args.output
    else:
        report["result_document"] = doc
    _emit(report, args)
    return EXIT_OK


def _trace_entries(trace: list[tuple[int, float]]) -> list[dict]:
    return [{"n": n, "residual": r} for n, r in trace]


def cmd_limits(args) -> int:
    tol = _tolerances(args)
    named = load_document(args.input, tol)
    names = args.names.split(",") if args.names else list(named)
    mats = _pick(named, names)
    start = time.perf_counter()
    trace: list[tuple[int, float]] = []
    if args.formula == "orthosum":
        result = orthogonal_sup(mats)
        reference = spectral_sup(mats, tol)
    else:
        # Run the iterates here rather than through shifted_power_sup or
        # inverse_power_inf: the report needs the residual trace they drop.
        if args.formula in ("kato", "shifted"):
            delta = 0.0 if args.formula == "kato" else args.delta
            iterates = power_sup_iterates(mats, delta, args.normalize, tol)
            what, lattice_op = "power-mean supremum", spectral_sup
        elif args.formula == "inverse":
            iterates = power_inf_iterates(mats, args.delta, args.normalize, tol)
            what, lattice_op = "power-mean infimum", spectral_inf
        else:  # harmonic
            if len(mats) != 2:
                raise InputError("harmonic needs exactly two matrices")
            iterates = power_inf_iterates(mats, 0.0, True, tol)
            what, lattice_op = "power-mean infimum", spectral_inf
        try:
            result, trace = run_schedule(iterates, what)
        except errors.NoConvergenceError as exc:
            return _no_convergence_report(args, exc, start)
        reference = lattice_op(mats, tol)
    deviation = operator_norm(result - reference)
    report = {
        "command": "limits",
        "formula": args.formula,
        "names": names,
        "residual_trace": _trace_entries(trace),
        "limit_route": _matrix_to_doc_entry("limit", result),
        "lattice_route": _matrix_to_doc_entry("lattice", reference),
        "route_deviation": deviation,
        "timing": {"wall_time_s": time.perf_counter() - start},
    }
    _emit(report, args)
    return EXIT_OK


def _no_convergence_report(args, exc: errors.NoConvergenceError, start: float) -> int:
    report = {
        "command": "limits",
        "formula": args.formula,
        "error": {
            "type": "NoConvergence",
            "message": str(exc),
            "residual": exc.residual,
            "residual_trace": _trace_entries(exc.trace),
        },
        "timing": {"wall_time_s": time.perf_counter() - start},
    }
    _emit(report, args, stream=sys.stderr if args.format == "text" else sys.stdout)
    return exc.exit_code


def cmd_verify(args) -> int:
    tol = _tolerances(args)
    spec = InstanceSpec(
        dim=args.dim,
        seed=args.seed,
        kind="generic",
        count=1,
        spectrum_spread=args.spread,
    )
    report_obj = run_suite(args.suite, spec, args.cases, tol)
    report = {
        "command": "verify",
        "dim": args.dim,
        "seed": args.seed,
        "cases": args.cases,
        **report_obj.to_dict(include_timing=True),
    }
    _emit(report, args)
    return EXIT_OK if report_obj.ok else 1


def cmd_gen(args) -> int:
    spec = InstanceSpec(
        dim=args.dim,
        seed=args.seed,
        kind=args.kind,
        count=args.count,
        spectrum_spread=args.spread,
    )
    mats = gen_instances(spec)
    doc = matrices_to_document([(f"m{i}", m) for i, m in enumerate(mats)])
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    else:
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return EXIT_OK


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"${SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-cluster", type=float, default=1e-8, help="eigenvalue clustering width")
    parser.add_argument("--tol-psd", type=float, default=1e-9, help="PSD slack base rate")
    parser.add_argument("--tol-conv", type=float, default=1e-8, help="iteration stopping threshold")
    parser.add_argument("--max-doublings", type=int, default=48, help="cap on exponent doublings")
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"master seed (default from ${SEED_ENV_VAR}, else 0)",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json", help="report format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-lattice",
        description="Spectral-order comparisons, lattice suprema/infima, "
        "power-mean limit formulas, and verification suites for Hermitian matrix sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compare = sub.add_parser("compare", help="compare two named matrices in both orders")
    p_compare.add_argument("--input", required=True, help="matrix-set document (JSON)")
    p_compare.add_argument("--names", required=True, help="two comma-separated names")
    p_compare.add_argument("--probes", type=int, default=24, help="monotone probe count")
    _add_common(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_lattice = sub.add_parser("lattice", help="supremum or infimum of named matrices")
    p_lattice.add_argument("--input", required=True)
    p_lattice.add_argument("--names", default=None, help="comma-separated names (default: all)")
    p_lattice.add_argument("--mode", choices=("sup", "inf"), required=True)
    p_lattice.add_argument("--output", default=None, help="write result document here")
    _add_common(p_lattice)
    p_lattice.set_defaults(func=cmd_lattice)

    p_limits = sub.add_parser("limits", help="run an iterative limit formula and report residuals")
    p_limits.add_argument("--input", required=True)
    p_limits.add_argument("--names", default=None)
    p_limits.add_argument(
        "--formula", choices=("kato", "shifted", "inverse", "harmonic", "orthosum"), required=True
    )
    p_limits.add_argument("--delta", type=float, default=None, help="shift override")
    p_limits.add_argument("--normalize", action="store_true", help="use the arithmetic-mean variant")
    _add_common(p_limits)
    p_limits.set_defaults(func=cmd_limits)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(SUITE_IDS)}")
    p_verify.add_argument("--dim", type=int, default=4)
    p_verify.add_argument("--cases", type=int, default=50)
    p_verify.add_argument("--spread", type=float, default=0.1, help="minimum eigenvalue gap")
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a seeded matrix-set document")
    p_gen.add_argument("--kind", choices=INSTANCE_KINDS, required=True)
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--spread", type=float, default=0.1)
    p_gen.add_argument("--output", default=None, help="write document here (default stdout)")
    _add_common(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except (errors.InvalidInputError, errors.NumericalError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
