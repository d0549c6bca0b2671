"""Exact computation for subcube/cycle Turan-type problems in the hypercube.

Counts copies of subcubes and even cycles in subgraphs of Q_n, generates and
certifies the known forbidden-pattern-free constructions, solves small
instances of the constrained maximization exactly, and evaluates the catalog
of density bounds.  All arithmetic is exact (ints and Fractions).
"""

from ._version import __version__

#: each exported name, by the module it lives in
_EXPORTS = {
    "_kernels": ("backend_name",),
    "core": ("StarVector", "Subgraph", "apply_automorphism", "edge_endpoints", "edge_layer",
             "expand_edges", "expand_vertices", "full_cube", "load_subgraph",
             "parse_star_vector", "save_subgraph"),
    "counting": ("CountReport", "CycleWitness", "binomial_residue_sum", "closed_count_c2l",
                 "closed_count_qk", "count_copies_qk", "count_cycles", "count_report"),
    "patterns": ("Pattern", "parse_pattern"),
    "zwords": ("ZTable", "z_kl", "count_z_words", "enumerate_z_words", "z_ll_via_words"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def _export(name: str):
    """An exported object, imported with its home module alone on first access
    (PEP 562), so that a bare `import cubeturan`, which every `python -m
    cubeturan` runs, loads no module its command does not use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


__getattr__ = _export
