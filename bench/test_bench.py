"""Tests of the benchmark itself: fault detection, self time, determinism.

Run from the root of a checkout::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import spectralorder as so  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS, Runner, tail  # noqa: E402

SMALL_LATTICE = (
    ("generic", 4, 2, "sup"),
    ("positive", 4, 3, "inf"),
    ("commuting_family", 4, 3, "sup"),
    ("orthogonal_family", 4, 2, "inf"),
    ("projection", 4, 2, "sup"),
    ("projection", 4, 3, "inf"),
)
SMALL_LIMITS = ((3, 2), (4, 3))


def small_workload(name: str, seed: int, workdir: str):
    if name == "lattice":
        return workloads.build_lattice(seed, workdir, plan=SMALL_LATTICE)
    if name == "limits":
        return workloads.build_limits(seed, workdir, plan=SMALL_LIMITS)
    return workloads.build_cli(seed, workdir, rounds=1)


def run_once(name: str, tmp_path) -> Runner:
    runner = Runner(small_workload(name, 3, str(tmp_path)))
    runner.run_pass()
    return runner


# -- an injected wrong answer is counted --------------------------------------


def _sup_below_first(mats, tol=so.DEFAULT_TOL):
    return mats[0] - 0.5 * so.identity(mats[0].dim)


def _perturbed_power_sup(original):
    def wrong(mats, *args, **kwargs):
        return original(mats, *args, **kwargs) + 1e-3 * so.identity(mats[0].dim)

    return wrong


def _never_ordered(x, y, tol=so.DEFAULT_TOL):
    return so.OrderVerdict(holds=False, witness_lambda=0.0, defect=1.0)


@pytest.mark.parametrize("name", WORKLOADS)
def test_correct_program_has_no_failures(name, tmp_path):
    runner = run_once(name, tmp_path)
    assert runner.failed == 0, runner.failures
    assert runner.attempted == len(runner.workload.ops)


@pytest.mark.parametrize("name", WORKLOADS)
def test_injected_wrong_answer_raises_fail_ratio(name, tmp_path, monkeypatch):
    if name == "lattice":
        monkeypatch.setattr(so, "spectral_sup", _sup_below_first)
    elif name == "limits":
        monkeypatch.setattr(so, "shifted_power_sup", _perturbed_power_sup(so.shifted_power_sup))
    else:
        monkeypatch.setattr(so.cli, "spectral_leq", _never_ordered)
    runner = run_once(name, tmp_path)
    assert runner.failed > 0
    assert runner.failed < runner.attempted  # only the affected operations fail


# -- self time ----------------------------------------------------------------


def test_self_time_of_synthetic_span_tree_is_exact():
    # root [0, 16) has children a [1, 5) and b [4, 10) that overlap, and c
    # [14, 20) that outlives it; a has child a1 [2, 3); b has b1 [6, 7) and
    # b2 [6.5, 8). Endpoints are binary fractions, so the arithmetic is exact.
    start = [0.0, 1.0, 2.0, 4.0, 6.0, 6.5, 14.0]
    end = [16.0, 5.0, 3.0, 10.0, 7.0, 8.0, 20.0]
    parent = [-1, 0, 1, 0, 3, 3, 0]
    got = tracing.self_times(start, end, parent)
    # root: 16 - |[1, 10) u [14, 16)| = 16 - 11; a: 4 - 1; b: 6 - |[6, 8)|
    assert got == [5.0, 3.0, 1.0, 4.0, 1.0, 1.5, 6.0]


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(40)]
    value, pct = tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == 75.0


# -- traced counters repeat -----------------------------------------------------

COUNT_UNITS = {"count", "1/op", "B", "1"}


def _traced_counts(name: str, workdir) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner = Runner(small_workload(name, 5, str(workdir)), tracer)
        runner.run_pass()
    finally:
        tracer.uninstall()
    stats = runner.workload.stats
    metrics = tracer.layer_metrics(len(runner.workload.ops), stats.max_route_dev, stats.report_bytes)
    return {k: v for k, (v, unit) in metrics.items() if unit in COUNT_UNITS}


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counters_repeat_in_process(name, tmp_path):
    first = _traced_counts(name, tmp_path)
    second = _traced_counts(name, tmp_path)
    assert first == second
    assert first["kernel.eigh.calls_per_op"] > 0


def test_tracer_uninstall_restores_bindings():
    before = (so.spectral_leq, so.lattice.proj_meet, so.cli.spectral_sup, so.limits.power_sup_iterates)
    tracer = tracing.Tracer()
    tracer.install()
    assert so.lattice.proj_meet is not before[1]
    tracer.uninstall()
    after = (so.spectral_leq, so.lattice.proj_meet, so.cli.spectral_sup, so.limits.power_sup_iterates)
    assert after == before


def _bench(args, cwd=ROOT, **kwargs):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, **kwargs)


def test_two_traced_runs_print_identical_counters():
    results = []
    for _ in range(2):
        proc = _bench(["--workload", "cli", "--seed", "7", "--seconds", "1", "--trace", "1"])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"]
        results.append(
            {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in COUNT_UNITS}
        )
    first, second = results
    first.pop("trace_overhead")
    second.pop("trace_overhead")
    assert first == second


# -- refusals -------------------------------------------------------------------


def test_refuses_when_numpy_was_imported_first():
    code = (
        "import sys, runpy, numpy\n"
        "sys.argv = ['run.py', '--workload', 'cli', '--seed', '1']\n"
        "runpy.run_path('bench/run.py', run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert "numpy was imported" in proc.stderr
    assert proc.stdout == ""


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench(["--workload", "lattice", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
