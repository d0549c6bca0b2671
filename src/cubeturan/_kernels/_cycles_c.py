"""ctypes binding of the compiled cycle kernel, cycle_dfs.c.

Importing raises ImportError when the library is not built or does not load.
ctypes releases the interpreter lock around every call, so threads counting
disjoint start residues run the kernel in parallel.
"""

import ctypes
import os
from importlib.machinery import EXTENSION_SUFFIXES


def _load():
    here = os.path.dirname(os.path.abspath(__file__))
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(here, "cycle_dfs" + suffix)
        if os.path.exists(path):
            try:
                return ctypes.CDLL(path).cycle_dfs
            except (OSError, AttributeError) as exc:
                raise ImportError(f"cannot load {path}: {exc}") from exc
    raise ImportError("compiled cycle kernel not built")


_dfs = _load()
_dfs.restype = ctypes.c_longlong
_dfs.argtypes = (
    ctypes.POINTER(ctypes.c_uint32), ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int,
    ctypes.c_int, ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_uint32),
    ctypes.POINTER(ctypes.c_ubyte), ctypes.POINTER(ctypes.c_longlong),
)


def _run(g, length, start, step, first):
    """(cycles found, path buffer, nodes) of one kernel call on fresh buffers."""
    if length < 4 or g.n > 31 or start < 0 or step < 1:
        raise ValueError(f"bad kernel call: n={g.n}, length={length}, start={start}, step={step}")
    nv = 1 << g.n
    masks = (ctypes.c_uint32 * nv)()
    for v, m in g.masks.items():
        masks[v] = m
    path = (ctypes.c_int * length)()
    iters = (ctypes.c_uint32 * length)()
    in_path = (ctypes.c_ubyte * nv)()
    nodes = ctypes.c_longlong(0)
    found = _dfs(masks, nv, length, start, step, first, path, iters, in_path, ctypes.byref(nodes))
    return found, path, nodes.value


def count_cycles_kernel(g, length, start=0, step=1):
    """Number of canonical cycles on `length` vertices whose minimum is in start::step."""
    return _run(g, length, start, step, 0)[0]


def find_cycle_kernel(g, length):
    """(first canonical cycle as a vertex tuple | None, nodes); see _cycles_py."""
    found, path, nodes = _run(g, length, 0, 1, 1)
    return (tuple(path) if found else None), nodes
