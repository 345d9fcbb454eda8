"""Operation lists of the three benchmark workloads.

Each workload is a fixed list of operations built from the seed during
set-up. An operation's ``run`` is the timed call into the package; its
``check`` runs untimed afterwards and returns a description of what is wrong
with the answer, or None. Inputs come only from ``harness.gen_instances``
with seeds derived from the workload seed, so one seed gives one list.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import spectralorder as so
from spectralorder import cli

# Lattice-route answers against the structure oracles, as in the
# acceptance criteria for commuting families and projections.
ORACLE_TOL = 1e-8
# Power-mean answers against the lattice route: the acceptance bound.
ROUTE_TOL = 1e-6
# Two answers of one route, e.g. the CLI against the library.
SAME_TOL = 1e-9

# (kind, d, k, mode) of every lattice operation. d=16 covers every kind,
# set size and mode; d=32 and d=64 rotate set size and mode per kind so a
# pass stays a few seconds long (a generic d=64 inf with k=4 alone takes
# about 4 s at the seed commit).
LATTICE_PLAN = tuple(
    (kind, 16, k, mode)
    for kind in ("generic", "positive", "commuting_family", "orthogonal_family", "projection")
    for k in (2, 3, 4)
    for mode in ("sup", "inf")
) + (
    ("generic", 32, 3, "sup"),
    ("generic", 32, 2, "inf"),
    ("positive", 32, 2, "sup"),
    ("positive", 32, 3, "inf"),
    ("commuting_family", 32, 4, "sup"),
    ("commuting_family", 32, 2, "inf"),
    ("orthogonal_family", 32, 2, "sup"),
    ("orthogonal_family", 32, 3, "inf"),
    ("projection", 32, 2, "sup"),
    ("projection", 32, 3, "inf"),
    ("projection", 32, 4, "sup"),
    ("projection", 32, 4, "inf"),
    ("generic", 64, 2, "sup"),
    ("orthogonal_family", 64, 4, "sup"),
    ("projection", 64, 2, "sup"),
    ("projection", 64, 3, "inf"),
    ("projection", 64, 4, "inf"),
)

# (d, k) of every power-mean set; each set gives four operations. Latency
# grows with d in steps, so the sets per d are chosen to put the median
# operation inside the d=16 group (24 of 60 operations are cheaper) and the
# tail, with ten operations beyond it, inside the d=32 group, never on the
# edge between two groups.
LIMITS_PLAN = (
    tuple((d, k) for d in (4, 8) for k in (2, 3, 4))
    + tuple((16, k) for k in (2, 3, 4, 2))
    + tuple((32, k) for k in (2, 3, 4, 2, 3))
)

CLI_DIMS = (2, 3, 4, 5, 6, 7, 8)
CLI_VERIFY_CASES = 4
CLI_VERIFY_DIMS = (3, 4)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclass
class Stats:
    """Figures the checks collect for the per-layer metrics."""

    max_route_dev: float = 0.0
    report_bytes: int = 0


@dataclass
class Workload:
    ops: list[Op]
    stats: Stats = field(default_factory=Stats)


def _gen(seed: int, index: int, kind: str, dim: int, count: int):
    spec = so.InstanceSpec(dim=dim, seed=so.case_seed(seed, index), kind=kind, count=count)
    return so.gen_instances(spec)


def _dev(a, b) -> float:
    return float(np.linalg.norm(a.entries - b.entries, 2))


def _equal(a, b) -> bool:
    return _dev(a, b) <= 1e-8 * (1.0 + float(np.linalg.norm(b.entries, 2)))


# -- lattice ------------------------------------------------------------------


def _lattice_oracle(kind: str, mode: str, mats):
    if kind == "commuting_family":
        return so.commuting_oracle(mats, mode)
    if kind == "orthogonal_family":
        return (so.orthogonal_sup if mode == "sup" else so.orthogonal_inf)(mats)
    if kind == "projection":
        ps = [so.Projection(m) for m in mats]
        return (so.proj_join(ps) if mode == "sup" else so.proj_meet(ps)).matrix
    return None


def _lattice_op(kind: str, dim: int, count: int, mode: str, mats, oracle) -> Op:
    def run():
        if mode == "sup":
            result = so.spectral_sup(mats)
            below = [so.spectral_leq(m, result) for m in mats]
            above = [so.spectral_leq(result, m) for m in mats]
        else:
            result = so.spectral_inf(mats)
            below = [so.spectral_leq(result, m) for m in mats]
            above = [so.spectral_leq(m, result) for m in mats]
        return result, below, above

    def check(payload) -> str | None:
        result, below, above = payload
        for i, (bound, reverse) in enumerate(zip(below, above)):
            if not bound.holds:
                return f"input {i} is not bounded by the {mode}"
            if reverse.holds and not _equal(result, mats[i]):
                return f"reversed comparison with input {i} holds but the matrices differ"
        if oracle is not None:
            dev = _dev(result, oracle)
            if dev >= ORACLE_TOL:
                return f"deviation {dev:.3e} from the structure oracle"
        return None

    return Op(f"{mode} {kind} d={dim} k={count}", run, check)


def build_lattice(seed: int, workdir: str, plan=LATTICE_PLAN) -> Workload:
    ops = []
    for i, (kind, dim, count, mode) in enumerate(plan):
        mats = _gen(seed, i, kind, dim, count)
        ops.append(_lattice_op(kind, dim, count, mode, mats, _lattice_oracle(kind, mode, mats)))
    return Workload(ops)


# -- limits -------------------------------------------------------------------


def _limit_op(label: str, compute: Callable[[], object], reference, stats: Stats) -> Op:
    def check(result) -> str | None:
        dev = _dev(result, reference)
        stats.max_route_dev = max(stats.max_route_dev, dev)
        if dev >= ROUTE_TOL:
            return f"deviation {dev:.3e} from the lattice route"
        return None

    return Op(label, compute, check)


def build_limits(seed: int, workdir: str, plan=LIMITS_PLAN) -> Workload:
    stats = Stats()
    ops = []
    for i, (dim, count) in enumerate(plan):
        pos = _gen(seed, 2 * i, "positive", dim, count)
        pd = _gen(seed, 2 * i + 1, "positive_definite", dim, count)
        sup_ref = so.spectral_sup(pos)
        inf_ref = so.spectral_inf(pd)
        pair_ref = inf_ref if count == 2 else so.spectral_inf(pd[:2])
        tag = f"d={dim} k={count}"
        ops += [
            _limit_op(f"kato {tag}", lambda m=pos: so.shifted_power_sup(m, delta=0.0), sup_ref, stats),
            _limit_op(f"shifted {tag}", lambda m=pos: so.shifted_power_sup(m), sup_ref, stats),
            _limit_op(f"inverse {tag}", lambda m=pd: so.inverse_power_inf(m, delta=0.0), inf_ref, stats),
            _limit_op(
                f"harmonic {tag}", lambda m=pd: so.harmonic_pair_inf(m[0], m[1]), pair_ref, stats
            ),
        ]
    return Workload(ops, stats)


# -- cli ----------------------------------------------------------------------


def _write_doc(path: str, named) -> str:
    doc = cli.matrices_to_document(named)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
    return path


def _call_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_op(label: str, argv: list[str], judge: Callable[[dict], "str | None"], stats: Stats) -> Op:
    def check(payload) -> str | None:
        code, out, err = payload
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return "report is not JSON"
        # wall-clock data lives under the top-level "timing" key only
        stable = {k: v for k, v in report.items() if k != "timing"}
        stable = json.dumps(stable, sort_keys=True, separators=(",", ":"))
        stats.report_bytes += len(stable.encode()) + 1
        return judge(report)

    return Op(label, lambda: _call_cli(argv), check)


def _doc_matrix(entry: dict) -> np.ndarray:
    return np.asarray(entry["re"]) + 1j * np.asarray(entry["im"])


def _expect_compare(holds: bool):
    def judge(report: dict) -> str | None:
        verdict = report["spectral_leq"]["holds"]
        if verdict != holds:
            return f"spectral_leq verdict {verdict}, expected {holds}"
        if holds and not report["loewner_leq"]:
            return "spectral order holds but the Loewner order fails"
        if holds and report["monotone_probe"]["status"] != "consistent":
            return "monotone probe refuted a pair that is ordered"
        return None

    return judge


def _expect_lattice(reference):
    def judge(report: dict) -> str | None:
        got = _doc_matrix(report["result_document"]["matrices"][0])
        dev = float(np.linalg.norm(got - reference.entries, 2))
        if dev > SAME_TOL * (1.0 + float(np.linalg.norm(reference.entries, 2))):
            return f"CLI result deviates from the library by {dev:.3e}"
        return None

    return judge


def _expect_limits(stats: Stats):
    def judge(report: dict) -> str | None:
        dev = float(report["route_deviation"])
        stats.max_route_dev = max(stats.max_route_dev, dev)
        if not dev < ROUTE_TOL:
            return f"route_deviation {dev:.3e}"
        return None

    return judge


def _expect_suite(report: dict) -> str | None:
    if report["failures"]:
        first = report["failures"][0]
        return f"{len(report['failures'])} suite failures, first {first['property']} (seed {first['seed']})"
    return None


def build_cli(seed: int, workdir: str, rounds: int = 3) -> Workload:
    """Per round 4 compare, 4 lattice and 4 limits commands on documents of
    rotating dimension; after the rounds, every verify suite once."""
    stats = Stats()
    ops: list[Op] = []
    n = 0

    def dim_for(i: int) -> int:
        return CLI_DIMS[i % len(CLI_DIMS)]

    def path(name: str) -> str:
        return os.path.join(workdir, name)

    seed_flag = ["--seed", str(seed)]
    for _ in range(rounds):
        # compare: x <= sup(x, r), x <= x + I/2, not x <= x - I/2, and
        # sup(x, r) <= x only when the two are equal.
        for shape in ("sup", "shift_up", "shift_down", "reverse"):
            n += 1
            dim = dim_for(n)
            x, other = _gen(seed, n, "generic", dim, 2)
            if shape == "sup":
                pair, holds = (x, so.spectral_sup([x, other])), True
            elif shape == "shift_up":
                pair, holds = (x, x + 0.5 * so.identity(dim)), True
            elif shape == "shift_down":
                pair, holds = (x, x - 0.5 * so.identity(dim)), False
            else:
                top = so.spectral_sup([x, other])
                pair, holds = (top, x), _equal(top, x)
            doc = _write_doc(path(f"compare{n}.json"), [("x", pair[0]), ("y", pair[1])])
            argv = ["compare", "--input", doc, "--names", "x,y", *seed_flag]
            ops.append(_cli_op(f"compare {shape} d={dim}", argv, _expect_compare(holds), stats))
        # lattice: sup and inf of generic and positive sets
        for kind, mode in (("generic", "sup"), ("generic", "inf"), ("positive", "sup"), ("positive", "inf")):
            n += 1
            dim, count = dim_for(n), 2 + n % 3
            mats = _gen(seed, n, kind, dim, count)
            reference = (so.spectral_sup if mode == "sup" else so.spectral_inf)(mats)
            doc = _write_doc(path(f"lattice{n}.json"), [(f"m{i}", m) for i, m in enumerate(mats)])
            argv = ["lattice", "--input", doc, "--mode", mode, *seed_flag]
            ops.append(
                _cli_op(f"lattice {mode} {kind} d={dim} k={count}", argv, _expect_lattice(reference), stats)
            )
        # limits: one document per formula
        for formula, kind in (
            ("kato", "positive"),
            ("inverse", "positive_definite"),
            ("harmonic", "positive_definite"),
            ("orthosum", "orthogonal_family"),
        ):
            n += 1
            dim = dim_for(n)
            count = 2 if formula == "harmonic" else min(dim, 2 + n % 3)
            mats = _gen(seed, n, kind, dim, count)
            doc = _write_doc(path(f"limits{n}.json"), [(f"m{i}", m) for i, m in enumerate(mats)])
            argv = ["limits", "--input", doc, "--formula", formula, *seed_flag]
            ops.append(_cli_op(f"limits {formula} d={dim} k={count}", argv, _expect_limits(stats), stats))
    for i, suite in enumerate(so.SUITE_IDS):
        dim = CLI_VERIFY_DIMS[i % len(CLI_VERIFY_DIMS)]
        argv = ["verify", suite, "--dim", str(dim), "--cases", str(CLI_VERIFY_CASES), *seed_flag]
        ops.append(_cli_op(f"verify {suite} d={dim}", argv, _expect_suite, stats))
    return Workload(ops, stats)


BUILDERS = {"lattice": build_lattice, "limits": build_limits, "cli": build_cli}
