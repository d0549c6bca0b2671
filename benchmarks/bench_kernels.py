#!/usr/bin/env python3
"""Benchmark the compiled kernels against their pure-Python twins: the cycle
kernels, and the edge-file reader and writer on Q_12 and conder(16).

Run from the repository root after `python setup.py build_ext --inplace`:

    PYTHONPATH=src python benchmarks/bench_kernels.py

Each workload is run on both backends; results must agree exactly.
"""

import time
import zlib

from cubeturan.core import full_cube
from cubeturan.constructions import conder_graph
from cubeturan._kernels import _cycles_py

try:
    from cubeturan._kernels import _cycles_c
except ImportError:
    _cycles_c = None


#: (name, graph, body of its saved file) for Q_12 and conder(16), built at
#: import so that no backend's row pays for them
EDGE_FILES = [(name, g, _cycles_py.write_edges_kernel(g.n, g.masks))
              for name, g in (("Q_12", full_cube(12)), ("conder(16)", conder_graph(16)))]


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
    for name, g, body in EDGE_FILES:
        # short, exact-enough summaries: the rows are compared and stored as JSON
        yield f"save {name}", lambda k, g=g: zlib.crc32(k.write_edges_kernel(g.n, g.masks))
        yield f"load {name}", lambda k, g=g, body=body: hash(
            frozenset(k.read_edges_kernel(body, g.n).items()))


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
