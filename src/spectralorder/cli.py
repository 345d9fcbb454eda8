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

"im" may be omitted for real matrices. Each report command turns its
operands into a report; :func:`main` runs every one through one pipeline:
parse, build the tolerances (a command takes the flags of the fields it
reads, the library defaults fill the rest), time the whole command (document
loading included), add the one "timing" key and emit. Reports are JSON by
default and are byte-identical across reruns with the same flags and seed
apart from "timing", which holds only the wall time and can be stripped
before comparison. ``gen`` writes a document, not a report, outside the pipeline.

Exit codes: 0 evaluation succeeded (regardless of verdicts), 2 usage or
input error, 3 numerical backend failure, 4 non-convergence. The verify
subcommand additionally exits 1 when the suite ran but reported failures.
The codes come from the error classes themselves (see
:mod:`spectralorder.errors`), so a bad flag value, a non-integer seed
variable, a non-finite matrix entry or a file that cannot be read, decoded
or written exits 2 like any other input error, and every failure ends in
one ``error:`` line instead of a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Sequence

import numpy as np

from . import errors
from .core import DEFAULT_TOL, HermitianMatrix, Tolerances, loewner_leq, make_hermitian, operator_norm
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
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
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


def _operands(args, tol: Tolerances) -> tuple[list[str], list[HermitianMatrix]]:
    """The matrices that ``--names`` picks from ``--input`` (default: all), and their names."""
    named = load_document(args.input, tol)
    names = args.names.split(",") if args.names else list(named)
    missing = [n for n in names if n not in named]
    if missing:
        raise InputError(f"names not found in document: {', '.join(missing)}")
    return names, [named[n] for n in names]


def _family_summary(sf: SpectralFamily) -> dict:
    return {
        "breakpoints": [float(b) for b in sf.breakpoints],
        "ranks": [int(r) for r in sf.ranks],
    }


def _write_json(obj: dict, path: str | None = None) -> None:
    """Write ``obj`` as compact JSON with sorted keys and a newline, to
    ``path`` or, without one, to stdout."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


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


def cmd_compare(args, tol: Tolerances) -> tuple[dict, int]:
    if len(args.names.split(",")) != 2:
        raise InputError("compare needs exactly two names, e.g. --names a,b")
    names, (x, y) = _operands(args, tol)
    verdict = spectral_leq(x, y, tol)
    probe = monotone_probe(x, y, probes=args.probes, seed=args.seed, tol=tol)
    return {
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
    }, EXIT_OK


def cmd_lattice(args, tol: Tolerances) -> tuple[dict, int]:
    names, mats = _operands(args, tol)
    sf = lattice_family(mats, args.mode, tol)
    doc = matrices_to_document([(args.mode, reconstruct(sf, tol))])
    report = {
        "command": "lattice",
        "mode": args.mode,
        "names": names,
        "result_family": _family_summary(sf),
    }
    if args.output:
        _write_json(doc, args.output)
        report["output"] = args.output
    else:
        report["result_document"] = doc
    return report, EXIT_OK


def _trace_entries(trace: list[tuple[int, float, float | None]]) -> list[dict]:
    return [{"n": n, "residual": r, "extrapolant_residual": e} for n, r, e in trace]


def cmd_limits(args, tol: Tolerances) -> tuple[dict, int]:
    for flag, given, readers in (
        ("--delta", args.delta is not None, ("shifted", "inverse")),
        ("--normalize", args.normalize, ("kato", "shifted", "inverse")),
    ):
        if given and args.formula not in readers:
            raise InputError(f"--formula {args.formula} does not read {flag}")
    names, mats = _operands(args, tol)
    trace: list[tuple[int, float, float | None]] = []
    if args.formula == "orthosum":
        result = orthogonal_sup(mats)
        reference = spectral_sup(mats, tol)
    else:
        # Run the iterates here rather than through shifted_power_sup or
        # inverse_power_inf: the report needs the residual trace they drop.
        # kato and harmonic are the zero-shift routes, harmonic normalized.
        if args.formula == "harmonic" and len(mats) != 2:
            raise InputError("harmonic needs exactly two matrices")
        delta = 0.0 if args.formula in ("kato", "harmonic") else args.delta
        normalize = args.normalize or args.formula == "harmonic"
        sup = args.formula in ("kato", "shifted")
        iterates = (power_sup_iterates if sup else power_inf_iterates)(mats, delta, normalize, tol)
        lattice_op = spectral_sup if sup else spectral_inf
        try:
            result, trace = run_schedule(iterates, f"power-mean {'supremum' if sup else 'infimum'}")
        except errors.NoConvergenceError as exc:
            error = {
                "type": "NoConvergence",
                "message": str(exc),
                "residual": exc.residual,
                "residual_trace": _trace_entries(exc.trace),
            }
            return {"command": "limits", "formula": args.formula, "error": error}, exc.exit_code
        reference = lattice_op(mats, tol)
    return {
        "command": "limits",
        "formula": args.formula,
        "names": names,
        "residual_trace": _trace_entries(trace),
        "limit_route": _matrix_to_doc_entry("limit", result),
        "lattice_route": _matrix_to_doc_entry("lattice", reference),
        "route_deviation": operator_norm(result - reference),
    }, EXIT_OK


def cmd_verify(args, tol: Tolerances) -> tuple[dict, int]:
    spec = InstanceSpec(
        dim=args.dim,
        seed=args.seed,
        kind="generic",
        count=1,
        spectrum_spread=args.spread,
    )
    suite = run_suite(args.suite, spec, args.cases, tol)
    report = {"command": "verify", "dim": args.dim, "seed": args.seed, "cases": args.cases}
    return {**report, **suite.to_dict()}, EXIT_OK if suite.ok else 1


def cmd_gen(args) -> int:
    spec = InstanceSpec(
        dim=args.dim,
        seed=args.seed,
        kind=args.kind,
        count=args.count,
        spectrum_spread=args.spread,
    )
    mats = gen_instances(spec)
    _write_json(matrices_to_document([(f"m{i}", m) for i, m in enumerate(mats)]), args.output)
    return EXIT_OK


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"${SEED_ENV_VAR} must be an integer, got {raw!r}") from None


# The flag of each Tolerances field. A report command takes the flags of the
# fields it reads; main fills the others from the library defaults.
_TOL_FLAGS = {
    "cluster_tol": ("--tol-cluster", float, "relative eigenvalue clustering width"),
    "psd_tol": ("--tol-psd", float, "PSD slack base rate"),
    "conv_tol": ("--tol-conv", float, "iteration stopping threshold"),
    "max_power_doublings": ("--max-doublings", int, "cap on exponent doublings"),
}


def _add_report_flags(parser: argparse.ArgumentParser, *fields: str) -> None:
    for field in fields:
        flag, kind, text = _TOL_FLAGS[field]
        parser.add_argument(flag, dest=field, type=kind, default=getattr(DEFAULT_TOL, field), help=text)
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
    _add_report_flags(p_compare, "cluster_tol", "psd_tol")
    p_compare.set_defaults(func=cmd_compare)

    p_lattice = sub.add_parser("lattice", help="supremum or infimum of named matrices")
    p_lattice.add_argument("--input", required=True)
    p_lattice.add_argument("--names", default=None, help="comma-separated names (default: all)")
    p_lattice.add_argument("--mode", choices=("sup", "inf"), required=True)
    p_lattice.add_argument("--output", default=None, help="write result document here")
    _add_report_flags(p_lattice, "cluster_tol", "psd_tol")
    p_lattice.set_defaults(func=cmd_lattice)

    p_limits = sub.add_parser("limits", help="run an iterative limit formula and report residuals")
    p_limits.add_argument("--input", required=True)
    p_limits.add_argument("--names", default=None)
    p_limits.add_argument(
        "--formula", choices=("kato", "shifted", "inverse", "harmonic", "orthosum"), required=True
    )
    p_limits.add_argument("--delta", type=float, default=None, help="shift override (shifted, inverse)")
    p_limits.add_argument("--normalize", action="store_true", help="arithmetic mean (kato, shifted, inverse)")
    _add_report_flags(p_limits, "cluster_tol", "psd_tol", "max_power_doublings")
    p_limits.set_defaults(func=cmd_limits)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(SUITE_IDS)}")
    p_verify.add_argument("--dim", type=int, default=4)
    p_verify.add_argument("--cases", type=int, default=50)
    p_verify.add_argument("--spread", type=float, default=0.1, help="minimum eigenvalue gap")
    _add_report_flags(p_verify, *_TOL_FLAGS)
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a seeded matrix-set document")
    p_gen.add_argument("--kind", choices=INSTANCE_KINDS, required=True)
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--spread", type=float, default=0.1)
    p_gen.add_argument("--output", default=None, help="write document here (default stdout)")

    for p in sub.choices.values():  # the one flag gen shares with the report commands
        p.add_argument(
            "--seed", type=int, default=None, help=f"master seed (default from ${SEED_ENV_VAR}, else 0)"
        )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call rather than at import. Parsing leaves
    it unchanged: each call gets a fresh namespace, and the seed default is
    read from the environment per call, in :func:`main`."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        if args.command == "gen":
            return cmd_gen(args)
        start = time.perf_counter()
        tol = Tolerances(**{field: v for field, v in vars(args).items() if field in _TOL_FLAGS})
        report, code = args.func(args, tol)
        report["timing"] = {"wall_time_s": time.perf_counter() - start}
    except (errors.InvalidInputError, errors.NumericalError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    if args.format == "json":
        _write_json(report)
    else:  # a text report of an error goes to stderr
        _emit_text(report, sys.stderr if "error" in report else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
