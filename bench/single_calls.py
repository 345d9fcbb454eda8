"""Single-call timings of the cases listed in ROADMAP open item 1, with
BLAS threads pinned as in the benchmark. Each figure is the best of a few
repeats on seed 1. Run from the root of a checkout::

    python3 bench/single_calls.py
"""

from __future__ import annotations

import time

import run


def best_ms(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def main() -> None:
    run.pin_threads()
    so = run.import_package()
    cases = (
        ("spectral_sup of 3 generic", "generic", 3, so.spectral_sup, ((4, 20), (16, 5), (64, 3), (128, 1))),
        ("spectral_leq of a generic pair", "generic", 2, lambda m: so.spectral_leq(*m), ((4, 20), (128, 3))),
        ("shifted_power_sup of 3 positive", "positive", 3, so.shifted_power_sup, ((16, 5), (64, 3))),
    )
    for title, kind, count, call, sizes in cases:
        for dim, repeats in sizes:
            mats = so.gen_instances(so.InstanceSpec(dim=dim, seed=1, kind=kind, count=count))
            print(f"{title}, d={dim}: {best_ms(lambda: call(mats), repeats):.2f} ms", flush=True)


if __name__ == "__main__":
    main()
