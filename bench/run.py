"""spectralorder benchmark: one workload, end to end or traced per layer.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it also wraps every layer and prints the per-layer metrics. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run's
record (environment, tail percentile, failures). See bench/README.md.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> dict:
    """Pin BLAS/OpenMP to one thread; refuse if numpy is already loaded,
    since the thread count is read when numpy initialises BLAS."""
    if "numpy" in sys.modules:
        raise SystemExit("bench: numpy was imported before the thread variables were set")
    before = {v: os.environ.get(v) for v in THREAD_VARS}
    for v in THREAD_VARS:
        os.environ[v] = "1"
    return {"before": before, "applied": {v: os.environ[v] for v in THREAD_VARS}}


THREADS = pin_threads() if __name__ == "__main__" else None

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 3
WORKLOADS = ("lattice", "limits", "cli")
TAIL_BEYOND = 10


def import_package():
    """Import spectralorder from this checkout's src/, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import spectralorder
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import spectralorder from {src}: {exc}")
    if not Path(spectralorder.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: spectralorder was loaded from {spectralorder.__file__}, not {src}")
    return spectralorder


def environment(threads: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "assertions": __debug__,
        "platform": platform.platform(),
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND samples above it,
    and that percentile."""
    s = sorted(samples)
    k = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[k], 100.0 * (k + 1) / len(s)


class Runner:
    """Runs passes over one workload's fixed operation list, closed loop."""

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.latencies: list[list[float]] = [[] for _ in workload.ops]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.pass_s: list[float] = []
        self.pass_ok: list[int] = []

    def run_pass(self) -> None:
        tracer = self.tracer
        timed = 0.0
        ok = 0
        for i, op in enumerate(self.workload.ops):
            if tracer:
                tracer.current_phase = tracing.OP
                span = tracer.open("op")
            start = time.perf_counter()
            try:
                payload, problem = op.run(), None
            except Exception as exc:  # a typed error where an answer is due
                payload, problem = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.close(span)
                tracer.current_phase = tracing.CHECK
            if problem is None:
                try:
                    problem = op.check(payload)
                except Exception as exc:  # malformed answer
                    problem = f"check raised {type(exc).__name__}: {exc}"
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{op.label}: {problem}")
            else:
                ok += 1
            self.latencies[i].append(elapsed)
            timed += elapsed
        self.pass_s.append(timed)
        self.pass_ok.append(ok)

    def run_for(self, seconds: float) -> int:
        """Whole passes while another pass of average length still fits."""
        begin = time.perf_counter()
        passes = 0
        while True:
            self.run_pass()
            passes += 1
            spent = time.perf_counter() - begin
            if spent + spent / passes > seconds:
                return passes

    def summary(self) -> dict:
        """Medians over passes: each operation's latency is its median, and
        throughput is the median of the passes' throughputs."""
        per_op = [statistics.median(lat) for lat in self.latencies]
        tail_s, pct = tail(per_op)
        return {
            "ops_per_s": statistics.median(ok / t for ok, t in zip(self.pass_ok, self.pass_s)),
            "op_p50_ms": 1e3 * statistics.median(per_op),
            "op_tail_ms": 1e3 * tail_s,
            "tail_percentile": pct,
            "samples": len(per_op),
            "op_ms": [[op.label, 1e3 * t] for op, t in zip(self.workload.ops, per_op)],
        }


def measure_setup(args) -> list[float]:
    """Process start to ready, in fresh interpreters that import the
    package and build the workload's inputs, then exit."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        t0 = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up process failed: {proc.stderr.strip()}")
        samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["ready"]) - t0)
    return samples


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not __debug__:
        raise SystemExit("bench: assertions are off (-O); the package's debug checks are part of the cost")

    import_package()
    import workloads

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        build = workloads.BUILDERS[args.workload]
        if args.setup_only:
            build(args.seed, workdir)
            print(json.dumps({"ready": time.time()}))
            return 0

        setup = [] if args.trace else measure_setup(args)
        runner = Runner(build(args.seed, workdir))
        passes = runner.run_for(args.seconds)
        summary = runner.summary()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed = runner.attempted, runner.failed
        failures = list(runner.failures)

        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = Runner(build(args.seed, workdir), tracer)
                traced.run_pass()
            finally:
                tracer.uninstall()
            attempted += traced.attempted
            failed += traced.failed
            failures += traced.failures
            stats = traced.workload.stats
            layers = tracer.layer_metrics(
                len(traced.workload.ops), stats.max_route_dev, stats.report_bytes
            )
            overhead = traced.pass_s[0] / statistics.median(runner.pass_s) - 1.0
            metrics = {name: metric(v, unit) for name, (v, unit) in layers.items()}
            metrics["trace_overhead"] = metric(overhead, "1")
        else:
            metrics = {
                "ops_per_s": metric(summary["ops_per_s"], "op/s"),
                "op_p50_ms": metric(summary["op_p50_ms"], "ms"),
                "op_tail_ms": metric(summary["op_tail_ms"], "ms"),
                "setup_s": metric(statistics.median(setup), "s"),
                "peak_rss_mb": metric(peak_rss_mb, "MiB"),
            }

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "passes": passes,
            "pass_s": runner.pass_s,
            "ops_per_pass": len(runner.workload.ops),
            "tail_percentile": summary["tail_percentile"],
            "tail_samples": summary["samples"],
            "fail_ratio": failed / attempted,
            "setup_samples_s": setup,
            "op_ms": summary["op_ms"],
            "failures": failures,
            "environment": environment(THREADS),
        }
        print(json.dumps({"record": record}, sort_keys=True))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()


if __name__ == "__main__":
    sys.exit(main())
