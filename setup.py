"""Build script: compiles the optional kernels.

`kernels.c` is one translation unit of plain C with no Python headers: the
cycle DFS, the branch-and-bound of the extremal search, the z word count and
the edge-file reader and writer.
It is built as a shared library next to the package's modules and loaded
with ctypes. The package works without it (the pure-Python twins are selected
at import time), so a missing or failing C compiler, or one without
`unsigned __int128`, only costs speed.

`-O1 -g0`: the kernels' bit-mask loops run as fast as at the default -O3
(measured with gcc 12), and the library compiles in about half the time.
"""
from setuptools import Extension, setup

setup(ext_modules=[
    Extension("cubeturan._kernels.kernels", ["src/cubeturan/_kernels/kernels.c"], optional=True,
              extra_compile_args=["-O1", "-g0"]),
])
