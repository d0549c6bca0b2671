"""Build script: compiles the optional cycle-search kernel.

`cycle_dfs.c` is plain C with no Python headers; it is built as a shared
library next to the package's modules and loaded with ctypes. The package
works without it (the pure-Python twin is selected at import time), so a
missing or failing C compiler only costs speed.
"""
from setuptools import Extension, setup

setup(ext_modules=[
    Extension("cubeturan._kernels.cycle_dfs", ["src/cubeturan/_kernels/cycle_dfs.c"], optional=True),
])
