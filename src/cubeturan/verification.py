"""Exhaustive freeness checking with witnesses, and the partite-representation test."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import StarVector, Subgraph, iter_subcubes, subcube_star_vector
from .counting import CycleWitness, closed_count_qk, find_cycle
from .errors import BadRange
from .patterns import CYCLE, SUBCUBE, Pattern


@dataclass(frozen=True)
class FreenessVerdict:
    """free=False comes with a witness that itself lies in the checked graph."""

    free: bool
    witness: StarVector | CycleWitness | None
    checked_count: int


def is_qk_free(g: Subgraph, k: int) -> FreenessVerdict:
    """Scan all Q_k names (colex position sets, ascending fills); stop at the
    first one fully contained in g. checked_count is that name's 1-based
    index: the colex rank of its positions times 2^(n-k), plus its fill.
    With k > n there is no name to check: free, with checked_count 0."""
    if k < 1:
        raise BadRange(f"need k >= 1, got k={k}")
    if k > g.n:
        return FreenessVerdict(True, None, 0)
    first = next(iter_subcubes(g, k), None)
    if first is None:
        return FreenessVerdict(True, None, closed_count_qk(g.n, k))
    stars, b = first
    pos = [p for p in range(g.n) if stars >> p & 1]
    others = [p for p in range(g.n) if not stars >> p & 1]
    rank = sum(math.comb(p, i + 1) for i, p in enumerate(pos))
    fill = sum(1 << j for j, p in enumerate(others) if b >> p & 1)
    return FreenessVerdict(False, subcube_star_vector(g.n, stars, b), (rank << (g.n - k)) + fill + 1)


def is_c2k_free(g: Subgraph, k: int) -> FreenessVerdict:
    """First 2k-cycle in canonical order, if any.

    checked_count here is the number of DFS extension attempts, not a number
    of whole cycles (there is no useful candidate list for cycles).
    """
    if k < 2:
        raise BadRange(f"need k >= 2, got {k}")
    witness, nodes = find_cycle(g, 2 * k)
    return FreenessVerdict(witness is None, witness, nodes)


def is_pattern_free(g: Subgraph, forbid: Pattern) -> FreenessVerdict:
    """The verdict for any forbidden pattern: Q_k and C_2k by the scans above, an
    edge by g's first edge string (checked_count is then the edge count)."""
    if forbid.kind == SUBCUBE:
        return is_qk_free(g, forbid.order)
    if forbid.kind == CYCLE:
        return is_c2k_free(g, forbid.order // 2)
    edges = g.sorted_edges()
    return FreenessVerdict(not edges, StarVector(g.n, edges[0]) if edges else None, g.edge_count)


def has_k_partite_representation(g: Subgraph, k: int) -> tuple[int, ...] | None:
    """Find sigma: positions -> {1..k} giving every edge of g k distinctly-colored
    non-zero positions, as the tuple of each position's color, or None. The
    non-zero positions of the edge (v, p), v its lower endpoint, are the ones
    of its upper endpoint v | 1 << p.

    Only positions that are non-zero in some edge are constrained; the rest
    map to 1. The search assigns constrained positions in increasing order,
    smallest color first, so the returned sigma is deterministic.
    """
    if not g.edge_count:
        raise BadRange("edge list must be non-empty")
    if k < 1:
        raise BadRange(f"need k >= 1, got {k}")
    uppers = {v for v, m in g.masks.items() if m & v}
    if any(v.bit_count() != k for v in uppers):
        return None
    supports = [tuple(p for p in range(g.n) if v >> p & 1) for v in sorted(uppers)]
    used = sorted({p for s in supports for p in s})
    conflicts: dict[int, set[int]] = {p: set() for p in used}
    for s in supports:
        for a, b in itertools.combinations(s, 2):
            conflicts[a].add(b)
            conflicts[b].add(a)
    color: dict[int, int] = {}

    def assign(idx: int) -> bool:
        if idx == len(used):
            return True
        p = used[idx]
        taken = {color[q] for q in conflicts[p] if q in color}
        for c in range(1, k + 1):
            if c in taken:
                continue
            color[p] = c
            if assign(idx + 1):
                return True
            del color[p]
        return False

    if not assign(0):
        return None
    return tuple(color.get(p, 1) for p in range(g.n))
