#!/usr/bin/env python3
"""Benchmark the compiled cycle kernel against its pure-Python twin.

Run from the repository root after `python setup.py build_ext --inplace`:

    PYTHONPATH=src python benchmarks/bench_kernels.py

Each workload is run on both backends; results must agree exactly.
"""

import time

from cubeturan.core import full_cube
from cubeturan.constructions import conder_graph
from cubeturan._kernels import _cycles_py

try:
    from cubeturan._kernels import _cycles_c
except ImportError:
    _cycles_c = None


def workloads():
    q4 = full_cube(4)
    q5 = full_cube(5)
    c8 = conder_graph(8)
    yield "count C_8 in Q_4", lambda k: k.count_cycles_kernel(q4, 8)
    yield "count C_12 in Q_4", lambda k: k.count_cycles_kernel(q4, 12)
    yield "count C_8 in Q_5", lambda k: k.count_cycles_kernel(q5, 8)
    yield "count C_10 in Q_5", lambda k: k.count_cycles_kernel(q5, 10)
    yield "count C_8 in conder(8)", lambda k: k.count_cycles_kernel(c8, 8)
    yield "prove conder(8) C_6-free", lambda k: k.find_cycle_kernel(c8, 6)[0]


def run(reps: int = 3) -> None:
    if _cycles_c is None:
        print("compiled kernel not available; showing pure-Python timings only")
    print(f"{'workload':<40} {'pure':>10} {'compiled':>10} {'speedup':>8}")
    for name, job in workloads():
        t0 = time.perf_counter()
        for _ in range(reps):
            pure = job(_cycles_py)
        t_py = (time.perf_counter() - t0) / reps
        if _cycles_c is None:
            print(f"{name:<40} {t_py * 1e3:>8.1f}ms {'-':>10} {'-':>8}")
            continue
        t0 = time.perf_counter()
        for _ in range(reps):
            fast = job(_cycles_c)
        t_c = (time.perf_counter() - t0) / reps
        assert fast == pure, (name, fast, pure)
        print(f"{name:<40} {t_py * 1e3:>8.1f}ms {t_c * 1e3:>8.2f}ms {t_py / t_c:>7.1f}x")


if __name__ == "__main__":
    run()
