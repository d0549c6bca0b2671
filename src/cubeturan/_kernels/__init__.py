"""Backend selection for the cycle-search kernel.

The compiled kernel (cycle_dfs.c, loaded with ctypes) is preferred; the
pure-Python twin is the fallback when the library is missing or fails to
load. Set CUBETURAN_PURE=1 to force the fallback (used by the benchmark and
tests).
"""

import os

if os.environ.get("CUBETURAN_PURE") == "1":
    from ._cycles_py import count_cycles_kernel, find_cycle_kernel
    BACKEND = "python"
else:
    try:
        from ._cycles_c import count_cycles_kernel, find_cycle_kernel
        BACKEND = "c"
    except ImportError:
        from ._cycles_py import count_cycles_kernel, find_cycle_kernel
        BACKEND = "python"


def backend_name() -> str:
    return BACKEND
