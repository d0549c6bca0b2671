"""Backend selection for the kernels, made once at import.

Every kernel (the cycle count and search, the branch-and-bound, the word
count, and the edge-file reader and writer) has a C function in kernels.c, a
ctypes binding in _cycles_c and a pure-Python twin of the same name and
signature in _cycles_py. The C bindings are selected; _cycles_py is selected
instead when CUBETURAN_PURE=1 (used by the benchmark and tests) or the library
is missing or will not load.
"""

import os

from . import _cycles_py

_selected = _cycles_py
if os.environ.get("CUBETURAN_PURE") != "1":
    try:
        from . import _cycles_c as _selected
    except ImportError:
        pass

BACKEND = "python" if _selected is _cycles_py else "c"
count_cycles_kernel = _selected.count_cycles_kernel
find_cycle_kernel = _selected.find_cycle_kernel
bb_search_kernel = _selected.bb_search_kernel
count_words_kernel = _selected.count_words_kernel
read_edges_kernel = _selected.read_edges_kernel
write_edges_kernel = _selected.write_edges_kernel


def backend_name() -> str:
    return BACKEND
