import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import random_subgraph

import cubeturan
from cubeturan import _kernels
from cubeturan._kernels import _cycles_py, backend_name
from cubeturan import core
from cubeturan.constructions import conder_graph
from cubeturan.core import full_cube
from cubeturan.errors import BudgetExceeded, CubeError
from cubeturan.patterns import parse_pattern
from cubeturan.search import search_instance
from cubeturan.zwords import z_positive

try:
    from cubeturan._kernels import _cycles_c
except ImportError:
    _cycles_c = None

needs_compiled = pytest.mark.skipif(_cycles_c is None, reason="compiled kernel not built")

PACKAGE = Path(cubeturan.__file__).parent


def _backend_in_child(pythonpath, pure: bool, prelude: str = "") -> str:
    env = {k: v for k, v in os.environ.items() if k != "CUBETURAN_PURE"}
    env["PYTHONPATH"] = str(pythonpath)
    if pure:
        env["CUBETURAN_PURE"] = "1"
    code = prelude + "import cubeturan; print(cubeturan.backend_name())"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return proc.stdout.strip()


def _agree(g, lengths):
    for length in lengths:
        if length > 1 << g.n:
            continue
        assert (_cycles_py.count_cycles_kernel(g, length)
                == _cycles_c.count_cycles_kernel(g, length)), (g, length)
        assert (_cycles_py.find_cycle_kernel(g, length)
                == _cycles_c.find_cycle_kernel(g, length)), (g, length)


def _bb_outcome(bb, ne, tmasks, fmasks, budget_nodes=None):
    """(value, kept, nodes) of one search, or the bounds and nodes of its budget stop."""
    try:
        return bb(ne, tmasks, fmasks, budget_nodes, None)
    except BudgetExceeded as exc:
        return "budget", exc.lower, exc.upper, exc.nodes_explored


def _bb_agree(n, target, forbid, budget_nodes=None, reverse=False):
    edges, tmasks, fmasks = search_instance(n, parse_pattern(target), parse_pattern(forbid))
    if reverse:  # the same instance with the edge order reversed
        top = len(edges) - 1
        tmasks, fmasks = ([sum(1 << top - i for i in range(top + 1) if m >> i & 1) for m in ms]
                          for ms in (tmasks, fmasks))
    pure = _bb_outcome(_cycles_py.bb_search_kernel, len(edges), tmasks, fmasks, budget_nodes)
    assert _bb_outcome(_cycles_c.bb_search_kernel, len(edges), tmasks, fmasks,
                       budget_nodes) == pure, (n, target, forbid, reverse)
    return pure


def test_some_backend_is_active():
    assert backend_name() in ("c", "python")


def test_every_kernel_comes_from_the_selected_module():
    module = {"c": _cycles_c, "python": _cycles_py}[backend_name()]
    for name in ("count_cycles_kernel", "find_cycle_kernel", "bb_search_kernel",
                 "count_words_kernel", "read_edges_kernel", "write_edges_kernel"):
        assert getattr(_kernels, name) is getattr(module, name)


def test_pure_environment_selects_python():
    assert _backend_in_child(PACKAGE.parent, pure=True) == "python"


def test_loader_falls_back_without_a_library(tmp_path):
    # a copy of the package with no built library in it
    shutil.copytree(PACKAGE, tmp_path / "cubeturan",
                    ignore=shutil.ignore_patterns("*.so", "*.pyd", "__pycache__"))
    assert _backend_in_child(tmp_path, pure=False) == "python"


def test_loader_falls_back_when_the_library_fails_to_load():
    prelude = ("import ctypes\n"
               "def refuse(*a, **k):\n"
               "    raise OSError('cannot open shared object')\n"
               "ctypes.CDLL = refuse\n")
    assert _backend_in_child(PACKAGE.parent, pure=False, prelude=prelude) == "python"


@needs_compiled
def test_loader_falls_back_when_the_library_lacks_the_word_count():
    prelude = ("import ctypes\n"
               "class NoWords(ctypes.CDLL):\n"
               "    def __getattr__(self, name):\n"
               "        if name == 'count_words':\n"
               "            raise AttributeError(name)\n"
               "        return super().__getattr__(name)\n"
               "ctypes.CDLL = NoWords\n")
    assert _backend_in_child(PACKAGE.parent, pure=False, prelude=prelude) == "python"


@needs_compiled
def test_loader_falls_back_when_the_library_lacks_the_edge_reader():
    prelude = ("import ctypes\n"
               "class NoReader(ctypes.CDLL):\n"
               "    def __getattr__(self, name):\n"
               "        if name == 'read_edges':\n"
               "            raise AttributeError(name)\n"
               "        return super().__getattr__(name)\n"
               "ctypes.CDLL = NoReader\n")
    assert _backend_in_child(PACKAGE.parent, pure=False, prelude=prelude) == "python"


@needs_compiled
def test_backends_agree_on_full_cubes():
    for n in (2, 3, 4, 5):
        _agree(full_cube(n), (4, 6, 8, 10))


@needs_compiled
def test_backends_agree_on_random_subgraphs():
    rng = random.Random(808)
    for _ in range(20):
        g = random_subgraph(rng.choice((3, 4, 5)), rng.uniform(0.3, 0.9), rng)
        _agree(g, (4, 6, 8))


@needs_compiled
def test_backends_agree_on_strided_starts():
    g = full_cube(5)
    for step in (1, 2, 3, 7):
        for start in range(step):
            assert (_cycles_py.count_cycles_kernel(g, 8, start, step)
                    == _cycles_c.count_cycles_kernel(g, 8, start, step))


def test_start_range_partition_sums_to_total():
    g = full_cube(4)
    total = _cycles_py.count_cycles_kernel(g, 6)
    for step in (2, 4, 5):
        assert sum(_cycles_py.count_cycles_kernel(g, 6, i, step) for i in range(step)) == total


BB_PATTERNS = ("e", "q1", "q2", "q3", "c4", "c6", "c8")


@needs_compiled
def test_branch_and_bound_backends_agree_at_n3():
    pairs = [(t, f) for t in BB_PATTERNS for f in BB_PATTERNS if t != f]
    assert len(pairs) == 42
    for target, forbid in pairs:
        _bb_agree(3, target, forbid)


# (lower, upper, nodes) of the budget stops at node budgets 10 and 1000,
# pinned from the search that kept a stack of open upper bounds, whose largest
# entry was always the number of target copies
N4_BUDGET_STOPS = {
    ("e", "c6"): {10: (0, 32, 11), 1000: (20, 32, 1001)},
    ("c4", "c6"): {10: (0, 24, 11), 1000: (4, 24, 1001)},
    ("c8", "c4"): {10: (0, 696, 11), 1000: (16, 696, 1001)},
    ("e", "c4"): {10: (0, 32, 11), 1000: (22, 32, 1001)},
    ("q2", "q3"): {10: (11, 24, 11), 1000: (15, 24, 1001)},
}


@needs_compiled
@pytest.mark.parametrize("target,forbid", list(N4_BUDGET_STOPS))
def test_branch_and_bound_backends_agree_at_n4(target, forbid):
    _bb_agree(4, target, forbid)
    for budget, stop in N4_BUDGET_STOPS[target, forbid].items():
        assert _bb_agree(4, target, forbid, budget_nodes=budget) == ("budget", *stop)


@needs_compiled
@pytest.mark.parametrize("target,forbid", [("e", "c4"), ("c6", "c4"), ("q2", "q3")])
def test_branch_and_bound_backends_agree_on_reversed_edge_order(target, forbid):
    _bb_agree(4, target, forbid, reverse=True)


@needs_compiled
def test_branch_and_bound_backends_agree_on_80_edges():
    # Q_5 has 80 edges, so the kept masks and copies use the high 64 bits
    value, kept, _ = _bb_agree(5, "e", "q4")
    assert value == 77 and kept >> 64
    assert _bb_agree(5, "e", "c4", budget_nodes=2000) == ("budget", 51, 80, 2001)


@needs_compiled
def test_compiled_branch_and_bound_refuses_more_than_128_edges():
    with pytest.raises(ValueError):
        _cycles_c.bb_search_kernel(129, [1], [1 << 128], None, None)


@needs_compiled
def test_compiled_branch_and_bound_c4_c8_at_n4():
    # about 15 s on the pure twin, so pinned on the compiled kernel only
    edges, tmasks, fmasks = search_instance(4, parse_pattern("c4"), parse_pattern("c8"))
    value, kept, nodes = _cycles_c.bb_search_kernel(len(edges), tmasks, fmasks, None, None)
    assert (value, nodes) == (7, 366966)
    assert sum(t & kept == t for t in tmasks) == 7
    assert not any(f & kept == f for f in fmasks)


WORD_CASES = [(k, ell) for ell in range(2, 8) for k in range(1, ell + 1) if z_positive(k, ell)]


@needs_compiled
@pytest.mark.parametrize("k, ell", [*WORD_CASES, (5, 8)])
def test_word_count_backends_agree(k, ell):
    assert _cycles_c.count_words_kernel(k, ell) == _cycles_py.count_words_kernel(k, ell) > 0


@pytest.mark.parametrize("k, ell", [(3, 6), (5, 4)])
def test_word_count_is_zero_where_no_cycle_fits_on_either_backend(k, ell):
    for module in filter(None, (_cycles_py, _cycles_c)):
        assert module.count_words_kernel(k, ell) == 0, module


@needs_compiled
def test_compiled_word_count_pinned_values():
    # 0.8 s and 2.6 s on the pure twin, so pinned on the compiled kernel only
    assert _cycles_c.count_words_kernel(8, 8) == 593859
    assert _cycles_c.count_words_kernel(6, 8) == 1994490


@needs_compiled
@pytest.mark.parametrize("k, ell", [(17, 9), (0, 9), (4, 1)])
def test_compiled_word_count_refuses_a_call_outside_its_table(k, ell):
    # the seen table has 2^k bytes, capped at 2^16; there is no C_2
    with pytest.raises(ValueError):
        _cycles_c.count_words_kernel(k, ell)


Q3_BODY = "".join(f"{e}\n" for e in full_cube(3).sorted_edges())

#: edge files by name: those as save_subgraph writes them, which the compiled
#: reader reads itself, then every other kind, which it hands to the per-line reader
CANONICAL_FILES = {
    "named": b"cube v1 n=3\n# Q_3\n" + Q3_BODY.encode(),
    "unnamed": b"cube v1 n=3\n" + Q3_BODY.encode(),
    "header-only": b"cube v1 n=4\n",
    "two-comments": b"cube v1 n=2\n# a\n#\n*0\n",
    "one-edge-in-q30": ("cube v1 n=30\n" + "0" * 12 + "*" + "1" * 17 + "\n").encode(),
}
OTHER_FILES = {
    "comment-mid-file": b"cube v1 n=3\n0*0\n# note\n*00\n",
    "blank-mid-file": b"cube v1 n=3\n0*0\n\n*00\n",
    "indented-comment": b"cube v1 n=3\n  # note\n*00\n",
    "crlf": b"cube v1 n=3\r\n0*0\r\n*00\r\n",
    "crlf-body-only": b"cube v1 n=3\n0*0\r\n*00\r\n",
    "lone-cr": b"cube v1 n=3\n0*0\r*00\n",
    "trailing-spaces": b"cube v1 n=3  \n0*0 \n*00\t\n",
    "no-final-newline": b"cube v1 n=3\n0*0\n*00",
    "duplicate-edge": b"cube v1 n=3\n0*0\n*00\n0*0\n",
    "duplicate-far-apart": b"cube v1 n=3\n*00\n0*0\n1*1\n*00\n",
    "more-lines-than-q3-has-edges": b"cube v1 n=3\n" + (Q3_BODY + "1*1\n").encode(),
    "two-stars": b"cube v1 n=3\n0*0\n**0\n",
    "no-star": b"cube v1 n=3\n0*0\n010\n",
    "wrong-length": b"cube v1 n=3\n0*0\n0*01\n",
    "short-line": b"cube v1 n=3\n0*\n*00\n",
    "bad-char": b"cube v1 n=3\n0*0\n0x*\n",
    "non-utf8-edge": b"cube v1 n=3\n0*0\n\xff0*\n",
    "non-utf8-comment": b"cube v1 n=3\n# \xc3\n0*0\n",
    "utf8-comment": "cube v1 n=3\n# caf\u00e9\n0*0\n".encode(),
    "non-utf8-header": b"cube v1 n=\xff\n0*0\n",
    "bad-header-then-non-utf8": b"cube v2 n=3\n\xff\n",
    "no-space-after-magic": b"cube v1n=2\n*0\n",
    "dimension-31": b"cube v1 n=31\n",
    "empty": b"",
}


def _load_outcome(monkeypatch, kernels, path):
    """The Subgraph's (n, masks, edge_count) that loading gives, or its error's
    class, message and line, with the edge reader of `kernels`."""
    monkeypatch.setattr(core, "read_edges_kernel", kernels.read_edges_kernel)
    try:
        g = core.load_subgraph(path)
    except CubeError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return g.n, dict(sorted(g.masks.items())), g.edge_count


@needs_compiled
@pytest.mark.parametrize("name", [*CANONICAL_FILES, *OTHER_FILES])
def test_edge_files_load_alike_on_both_backends(name, tmp_path, monkeypatch):
    data = {**CANONICAL_FILES, **OTHER_FILES}[name]
    path = tmp_path / "g.cube"
    path.write_bytes(data)
    pure = _load_outcome(monkeypatch, _cycles_py, path)
    assert _load_outcome(monkeypatch, _cycles_c, path) == pure
    head, _, body = data.partition(b"\n")
    if name in CANONICAL_FILES:  # read by the compiled reader itself
        assert _cycles_c.read_edges_kernel(body, pure[0]) == pure[1]
    elif head == b"cube v1 n=3":  # handed on to the per-line reader
        assert _cycles_c.read_edges_kernel(body, 3) is None


def _save_both(monkeypatch, g, tmp_path):
    files = []
    for kernels in (_cycles_py, _cycles_c):
        monkeypatch.setattr(core, "write_edges_kernel", kernels.write_edges_kernel)
        files.append(tmp_path / f"{kernels.__name__}.cube")
        core.save_subgraph(g, files[-1])
    return [f.read_bytes() for f in files]


@needs_compiled
def test_random_graphs_save_and_load_alike_on_both_backends(tmp_path, monkeypatch):
    rng = random.Random(1913)
    for _ in range(60):
        n = rng.randint(1, 10)
        g = random_subgraph(n, rng.random(), rng)
        pure, fast = _save_both(monkeypatch, g, tmp_path)
        assert fast == pure, g
        path = tmp_path / "g.cube"
        path.write_bytes(pure)
        assert (_load_outcome(monkeypatch, _cycles_c, path)
                == _load_outcome(monkeypatch, _cycles_py, path)
                == (n, dict(sorted(g.masks.items())), g.edge_count))


@needs_compiled
def test_conder16_saves_alike_on_both_backends(tmp_path, monkeypatch):
    g = conder_graph(16)
    pure, fast = _save_both(monkeypatch, g, tmp_path)
    assert fast == pure
    assert pure.count(b"\n") == 2 + g.edge_count  # the header, the name, one line per edge
    _, _, body = pure.partition(b"\n# " + g.name.encode() + b"\n")
    assert _cycles_c.read_edges_kernel(body, 16) == g.masks
