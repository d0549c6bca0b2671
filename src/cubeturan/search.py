"""Exact small-n solving of the constrained maximization:

    most copies of a target pattern in a forbidden-pattern-free subgraph of Q_n.

Exhaustive 2^(edges) scan is guaranteed for n <= 3; branch-and-bound is
best-effort for n = 4 under a node/time budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._kernels import bb_search_kernel
from .core import Subgraph, edge_pair_masks, fraction_json, full_cube, iter_subcubes, subcube_edges
from .counting import count_in_subgraph, enumerate_cycle_witnesses
from .errors import BadRange, CubeError, DimensionTooLarge
from .patterns import CYCLE, Pattern
from .verification import is_pattern_free

SEARCH_MAX_N = 4
EXHAUSTIVE_MAX_N = 3


@dataclass(frozen=True)
class SearchResult:
    value: int
    witness: Subgraph
    ambient_total: int
    density: Fraction
    nodes_explored: int
    method: str

    def to_json_dict(self) -> dict:
        return {
            "value": str(self.value),
            "ambient_total": str(self.ambient_total),
            "density": fraction_json(self.density),
            "nodes_explored": self.nodes_explored,
            "method": self.method,
            "witness_edges": self.witness.sorted_edges(),
        }


def pattern_copies(n: int, pattern: Pattern) -> list[frozenset[tuple[int, int]]]:
    """Every copy of the pattern in Q_n, as a frozenset of edges (u, v), u < v.

    An edge is a Q_1 (its order is 1), and iter_subcubes lists no Q_k with k > n.
    Subcubes come in `iter_subcubes` order, cycles in DFS order.
    """
    if pattern.kind == CYCLE:
        return [frozenset(w.edge_pairs())
                for w in enumerate_cycle_witnesses(full_cube(n), pattern.order)]
    return [frozenset(subcube_edges(*pair)) for pair in iter_subcubes(full_cube(n), pattern.order)]


def search_instance(n: int, target: Pattern, forbid: Pattern):
    """(edges of Q_n in the search's fixed order, target copies, forbidden copies),
    each copy an edge mask over that order, the masks sorted."""
    # fixed edge order: by star string, position 0 first, read as digits with
    # * < 0 < 1 as in ASCII. Q_n is edge-transitive, so no edge lies in more
    # target copies.
    edges = sorted(((b, b | s) for s, b in iter_subcubes(full_cube(n), 1)),
                   key=lambda e: [0 if (e[0] ^ e[1]) >> p & 1 else 1 + (e[0] >> p & 1)
                                  for p in range(n)])
    eidx = {e: i for i, e in enumerate(edges)}
    tmasks = sorted(sum(1 << eidx[e] for e in c) for c in pattern_copies(n, target))
    fmasks = sorted(sum(1 << eidx[e] for e in c) for c in pattern_copies(n, forbid))
    return edges, tmasks, fmasks


def exact_extremal(n: int, target: Pattern, forbid: Pattern,
                   budget_nodes: int | None = None,
                   budget_seconds: float | None = None,
                   method: str = "auto") -> SearchResult:
    """Exact optimum with a certified witness.

    method "auto" runs branch-and-bound; "exhaustive" scans all edge subsets
    (n <= 3 only) and exists as an independent cross-check of the solver.
    Raises BudgetExceeded (with bounds) when the budget runs out first.
    """
    if target == forbid:
        raise BadRange("target and forbidden patterns must differ")
    if n < 1:
        raise BadRange(f"dimension must be positive, got {n}")
    if n > SEARCH_MAX_N:
        raise DimensionTooLarge(f"exact search supports 1 <= n <= {SEARCH_MAX_N}, got {n}")
    if method not in ("auto", "exhaustive"):
        raise BadRange(f"unknown method {method!r}")
    if method == "exhaustive" and n > EXHAUSTIVE_MAX_N:
        raise DimensionTooLarge(f"exhaustive scan supports n <= {EXHAUSTIVE_MAX_N}")
    if budget_seconds is not None and math.isnan(budget_seconds):
        raise BadRange("budget_seconds is NaN; pass inf for no time limit")
    for name, budget in (("budget_nodes", budget_nodes), ("budget_seconds", budget_seconds)):
        if budget is not None and budget < 0:  # 0 is a budget that stops at once
            raise BadRange(f"{name} must be >= 0, got {budget}")

    edges, tmasks, fmasks = search_instance(n, target, forbid)
    ambient = len(tmasks)
    if ambient == 0:
        raise BadRange(f"target {target} has no copies in Q_{n}")
    if method == "exhaustive":
        value, kept, nodes = _exhaustive(len(edges), tmasks, fmasks)
    elif not fmasks:  # nothing to break: every edge is kept
        value, kept, nodes = ambient, (1 << len(edges)) - 1, 1
    else:
        value, kept, nodes = bb_search_kernel(len(edges), tmasks, fmasks,
                                              budget_nodes, budget_seconds)

    witness = Subgraph(n, name=f"extremal(n={n},target={target},forbid={forbid})",
                       masks=edge_pair_masks(e for i, e in enumerate(edges) if kept >> i & 1))
    if not is_pattern_free(witness, forbid).free:
        raise CubeError("internal error: witness failed re-verification")
    recount = count_in_subgraph(witness, target)
    if recount != value:
        raise CubeError(f"internal error: witness recounts to {recount}, not {value}")
    return SearchResult(value, witness, ambient, Fraction(value, ambient),
                        nodes, method if method == "exhaustive" else "branch-and-bound")


def _exhaustive(ne: int, tmasks, fmasks) -> tuple[int, int, int]:
    best, best_kept = -1, 0
    for keep in range(1 << ne):
        if any(f & keep == f for f in fmasks):
            continue
        cnt = sum(1 for t in tmasks if t & keep == t)
        if cnt > best:
            best, best_kept = cnt, keep
    return best, best_kept, 1 << ne

