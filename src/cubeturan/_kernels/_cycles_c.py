"""ctypes binding of the compiled kernels in kernels.c: the cycle DFS, the
branch-and-bound, the z word count and the edge-file reader and writer.

Importing raises ImportError when the library is not built, does not load or
lacks any of the five symbols, so all kernels fall back to their pure twins
together.
ctypes releases the interpreter lock around every call, so threads counting
disjoint start residues run the cycle kernel in parallel.
"""

import ctypes
import os
from array import array
from importlib.machinery import EXTENSION_SUFFIXES

from ._cycles_py import budget_stop


def _load():
    here = os.path.dirname(os.path.abspath(__file__))
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(here, "kernels" + suffix)
        if os.path.exists(path):
            try:
                lib = ctypes.CDLL(path)
                return lib.cycle_dfs, lib.bb_search, lib.count_words, lib.read_edges, lib.write_edges
            except (OSError, AttributeError) as exc:
                raise ImportError(f"cannot load {path}: {exc}") from exc
    raise ImportError("compiled kernels not built")


_dfs, _bb, _words, _read, _write = _load()
_dfs.restype = ctypes.c_longlong
_dfs.argtypes = (
    ctypes.POINTER(ctypes.c_uint32), ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int,
    ctypes.c_int, ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_uint32),
    ctypes.POINTER(ctypes.c_ubyte), ctypes.POINTER(ctypes.c_longlong),
)
_bb.restype = ctypes.c_int
_bb.argtypes = (
    ctypes.c_int, ctypes.POINTER(ctypes.c_uint64), ctypes.c_int, ctypes.POINTER(ctypes.c_uint64),
    ctypes.c_int, ctypes.c_longlong, ctypes.c_int, ctypes.c_double,
    ctypes.POINTER(ctypes.c_longlong), ctypes.POINTER(ctypes.c_uint64),
)
_words.restype = ctypes.c_longlong
_words.argtypes = (ctypes.c_int, ctypes.c_int, ctypes.POINTER(ctypes.c_ubyte))
_read.restype = ctypes.c_longlong
_read.argtypes = (ctypes.c_char_p, ctypes.c_longlong, ctypes.c_int,
                  ctypes.POINTER(ctypes.c_uint32), ctypes.POINTER(ctypes.c_uint32))
_write.restype = ctypes.c_longlong
_write.argtypes = (ctypes.c_int, ctypes.POINTER(ctypes.c_uint32), ctypes.POINTER(ctypes.c_uint32),
                   ctypes.c_longlong, ctypes.c_char_p, ctypes.c_longlong)

MAX_BB_EDGES = 128
MAX_WORDS_K = 16  # the seen table has 2^k bytes
MAX_WORDS_L = (1 << 30) - 1  # 2l fits a C int
_LOW = (1 << 64) - 1
_NO_NODE_BUDGET = (1 << 63) - 1


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


def _pairs(masks):
    return (ctypes.c_uint64 * (2 * len(masks)))(*[w for m in masks for w in (m & _LOW, m >> 64)])


def bb_search_kernel(ne, tmasks, fmasks, budget_nodes, budget_seconds):
    """(value, kept mask, nodes) of _cycles_py.bb_search_kernel's search, or
    its budget stop with the same bounds and node count."""
    if not fmasks or ne > MAX_BB_EDGES or max([*tmasks, *fmasks]) >> ne:
        raise ValueError(f"bad kernel call: {ne} edges (at most {MAX_BB_EDGES}), "
                         f"{len(fmasks)} forbidden copies (at least 1), masks within the edges")
    out = (ctypes.c_longlong * 2)()
    kept = (ctypes.c_uint64 * 2)()
    spent = _bb(ne, _pairs(tmasks), len(tmasks), _pairs(fmasks), len(fmasks),
                _NO_NODE_BUDGET if budget_nodes is None else min(max(budget_nodes, 0), _NO_NODE_BUDGET),
                budget_seconds is not None, budget_seconds or 0.0, out, kept)
    if spent < 0:
        raise MemoryError("bb_search could not copy the masks")
    value, nodes = out
    if spent:
        raise budget_stop("node" if spent == 1 else "time", value, tmasks, nodes)
    return value, kept[0] | kept[1] << 64, nodes


def count_words_kernel(k, ell):
    """The canonical word count of _cycles_py.count_words_kernel."""
    if not 1 <= k <= MAX_WORDS_K or not 2 <= ell <= MAX_WORDS_L:
        raise ValueError(f"bad kernel call: k={k} (1..{MAX_WORDS_K}), l={ell} (2..{MAX_WORDS_L})")
    return _words(k, ell, (ctypes.c_ubyte * (1 << k))())


def read_edges_kernel(body, n):
    """The {vertex: direction mask} of an edge-file body as save_subgraph writes
    it, or None for any other body, which the pure twin then reads."""
    cap = 2 * min(len(body) // (n + 1), n << (n - 1))  # Q_n has n * 2^(n-1) edges
    verts, masks = (ctypes.c_uint32 * cap)(), (ctypes.c_uint32 * cap)()
    count = _read(body, len(body), n, verts, masks)
    if count == -2:
        raise MemoryError("read_edges could not sort the edges")
    return dict(zip(verts[:count], masks[:count])) if count >= 0 else None


def write_edges_kernel(n, masks):
    """The sorted edge lines of _cycles_py.write_edges_kernel."""
    verts, bits = array("I", masks), array("I", masks.values())
    args = (n, (ctypes.c_uint32 * len(verts)).from_buffer(verts),
            (ctypes.c_uint32 * len(bits)).from_buffer(bits), len(verts))
    out = ctypes.create_string_buffer(_write(*args, None, 0))
    if _write(*args, out, len(out)) < 0:
        raise MemoryError("write_edges could not sort the edges")
    return out.raw
