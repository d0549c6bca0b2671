"""Pure-Python twin of the compiled cycle kernel (cycle_dfs.c).

Both backends implement the same contract on a Subgraph `g`:

* cycles are produced in canonical orientation only: the start vertex is the
  cycle minimum and the second vertex is smaller than the last, so every
  cycle is produced exactly once;
* the start vertices searched are start, start + step, ..., so counts over
  the residues modulo `step` sum to the total;
* neighbours are visited in ascending vertex order, and each start of degree
  at least 2 and each neighbour visited is one node, so the first cycle and
  the node count agree across backends;
* Hamming-distance-to-start pruning is sound because any return walk needs
  at least that many edges; one step before closing, w ^ s is a single bit,
  so `masks[w] & (w ^ s)` tests the closing edge.

`_dfs` is the one search here; counting, stopping at the first cycle and
collecting every cycle are its three uses.
"""

from __future__ import annotations

from ..core import adjacency_lists


def _dfs(g, length, start=0, step=1, out=None, first=False):
    """(cycles found, nodes) over the start vertices start::step.

    With a list `out`, each cycle is appended to it as a vertex tuple, and
    with `first` the search stops after the first one.
    """
    adj = adjacency_lists(g)
    masks = g.masks
    in_path = bytearray(len(adj))
    path = [0] * length
    iters = [0] * length
    found = nodes = 0
    last = length - 1
    for s in range(start, len(adj), step):
        if len(adj[s]) < 2:
            continue
        nodes += 1
        path[0] = s
        in_path[s] = 1
        iters[0] = 0
        d = 0
        while d >= 0:
            cur = path[d]
            row = adj[cur]
            if iters[d] < len(row):
                w = row[iters[d]]
                iters[d] += 1
                nodes += 1
                if w <= s or in_path[w]:
                    continue
                if (w ^ s).bit_count() > length - d - 1:
                    continue
                if d + 1 == last:
                    if w > path[1] and masks[w] & (w ^ s):
                        found += 1
                        if out is not None:
                            out.append(tuple(path[:last]) + (w,))
                            if first:
                                return found, nodes
                    continue
                d += 1
                path[d] = w
                iters[d] = 0
                in_path[w] = 1
            else:
                in_path[cur] = 0
                d -= 1
    return found, nodes


def count_cycles_kernel(g, length, start=0, step=1):
    """Number of canonical cycles on `length` vertices whose minimum is in start::step."""
    return _dfs(g, length, start, step)[0]


def find_cycle_kernel(g, length):
    """First canonical cycle in DFS order (the lexicographically smallest
    canonical vertex sequence), plus the number of nodes visited.

    Returns (tuple_of_vertices | None, nodes).
    """
    out: list = []
    _, nodes = _dfs(g, length, out=out, first=True)
    return (out[0] if out else None), nodes


def collect_cycles(g, length) -> list[tuple[int, ...]]:
    """Every canonical cycle on `length` vertices, in DFS order."""
    out: list = []
    _dfs(g, length, out=out)
    return out
