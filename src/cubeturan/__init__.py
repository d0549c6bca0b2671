"""Exact computation for subcube/cycle Turan-type problems in the hypercube.

Counts copies of subcubes and even cycles in subgraphs of Q_n, generates and
certifies the known forbidden-pattern-free constructions, solves small
instances of the constrained maximization exactly, and evaluates the catalog
of density bounds.  All arithmetic is exact (ints and Fractions).
"""

from ._version import __version__

__all__ = [
    "__version__",
    "backend_name",
    "StarVector",
    "Subgraph",
    "apply_automorphism",
    "edge_endpoints",
    "edge_layer",
    "expand_edges",
    "expand_vertices",
    "full_cube",
    "load_subgraph",
    "parse_star_vector",
    "save_subgraph",
    "CountReport",
    "CycleWitness",
    "ZTable",
    "binomial_residue_sum",
    "closed_count_c2l",
    "closed_count_qk",
    "count_copies_qk",
    "count_cycles",
    "count_report",
    "z_kl",
    "Pattern",
    "parse_pattern",
    "count_z_words",
    "enumerate_z_words",
    "z_ll_via_words",
]


def _export(name: str):
    """An exported object, imported on first access (PEP 562), so that a bare
    `import cubeturan`, which every `python -m cubeturan` runs, loads no module
    its command does not use."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _exports

    value = globals()[name] = getattr(_exports, name)
    return value


__getattr__ = _export
