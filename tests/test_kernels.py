import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import random_subgraph

import cubeturan
from cubeturan._kernels import _cycles_py, backend_name
from cubeturan.core import full_cube

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


def test_some_backend_is_active():
    assert backend_name() in ("c", "python")


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
