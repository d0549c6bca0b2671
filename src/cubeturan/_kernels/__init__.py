"""Backend selection for the compiled kernels.

The compiled kernels (kernels.c, loaded with ctypes) are preferred; the
pure-Python twins are the fallback when the library is missing, fails to load
or lacks a kernel. Set CUBETURAN_PURE=1 to force the fallback (used by the
benchmark and tests). The cycle kernels have their twins in _cycles_py;
bb_search_kernel is None on the pure backend, where search runs its own twin.
"""

import os

if os.environ.get("CUBETURAN_PURE") == "1":
    from ._cycles_py import count_cycles_kernel, find_cycle_kernel
    bb_search_kernel = None
    BACKEND = "python"
else:
    try:
        from ._cycles_c import bb_search_kernel, count_cycles_kernel, find_cycle_kernel
        BACKEND = "c"
    except ImportError:
        from ._cycles_py import count_cycles_kernel, find_cycle_kernel
        bb_search_kernel = None
        BACKEND = "python"


def backend_name() -> str:
    return BACKEND
