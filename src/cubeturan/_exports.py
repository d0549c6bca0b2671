"""The objects cubeturan exports, imported on first use by its __getattr__."""

from ._kernels import backend_name
from ._version import __version__
from .core import (
    StarVector,
    Subgraph,
    apply_automorphism,
    edge_endpoints,
    edge_layer,
    expand_edges,
    expand_vertices,
    full_cube,
    load_subgraph,
    parse_star_vector,
    save_subgraph,
)
from .counting import (
    CountReport,
    CycleWitness,
    ZTable,
    binomial_residue_sum,
    closed_count_c2l,
    closed_count_qk,
    count_copies_qk,
    count_cycles,
    count_report,
    z_kl,
)
from .patterns import Pattern, parse_pattern
from .zwords import count_z_words, enumerate_z_words, z_ll_via_words
