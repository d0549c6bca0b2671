"""Pure-Python twins of the compiled kernels in kernels.c: the cycle DFS, the
branch-and-bound, the z word count and the edge-file reader and writer. Each
has the name and signature of its binding in _cycles_c and the contract stated
here.

The cycle kernels work on a Subgraph `g`:

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

`bb_search_kernel` visits the same nodes in the same order as bb_search, so
values, kept sets, node counts and budget stops agree across backends.

`count_words_kernel` counts the words that zwords.count_canonical_words
defines; that function holds the caller-facing refusal.

`read_edges_kernel` and `write_edges_kernel` hand over to the per-line reader
and the writer in core, which keeps star text in one module. The compiled
reader reads only bodies as save_subgraph writes them and returns None for any
other, which core then gives to the per-line reader, so every file loads to
the same Subgraph, or fails with the same error, on either backend.
"""

from __future__ import annotations

import time

from ..errors import BudgetExceeded


def _dfs(g, length, start=0, step=1, out=None, first=False):
    """(cycles found, nodes) over the start vertices start::step.

    With a list `out`, each cycle is appended to it as a vertex tuple, and
    with `first` the search stops after the first one.
    """
    from ..core import adjacency_lists  # not at import: the word count needs no core

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


def budget_stop(spent, best, tmasks, nodes) -> BudgetExceeded:
    """The error of a branch-and-bound whose `spent` ("node" or "time") budget
    ran out at node `nodes`: the incumbent `best` (-1 for none) is a lower
    bound, and no kept set holds more than every target copy."""
    return BudgetExceeded(f"{spent} budget exhausted", lower=max(best, 0), upper=len(tmasks),
                          nodes_explored=nodes)


def bb_search_kernel(ne, tmasks, fmasks, budget_nodes, budget_seconds):
    """(most target copies in a kept edge set that breaks every forbidden copy,
    that kept set as a mask, nodes explored), with at least one forbidden copy;
    budget_stop's error when a budget runs out (node budget_nodes + 1 is the one
    refused).

    A node is (kept, deleted) over ne edges. Propagation kills a node with a
    forbidden copy all kept and deletes the last undecided edge of any other
    unbroken copy; the bound counts target copies with no deleted edge; a node
    branches on the first unbroken forbidden copy (in the order given) into
    "delete e_i, keep e_1..e_{i-1}" over its undecided edges e_1 < e_2 < ...,
    lowest first. The clock is read at every node here, and at node 1 and
    every 2^12th in C.
    """
    all_mask = (1 << ne) - 1
    deadline = time.monotonic() + budget_seconds if budget_seconds is not None else None
    state = {"nodes": 0, "best": -1, "best_kept": 0}

    def propagate(kept: int, deleted: int):
        changed = True
        while changed:
            changed = False
            for f in fmasks:
                if f & deleted:
                    continue
                und = f & ~kept
                if und == 0:
                    return None
                if und & (und - 1) == 0:
                    deleted |= und
                    changed = True
        return deleted

    def dfs(kept: int, deleted: int) -> None:
        state["nodes"] += 1
        spent = ("node" if budget_nodes is not None and state["nodes"] > budget_nodes else
                 "time" if deadline is not None and time.monotonic() >= deadline else None)
        if spent:
            raise budget_stop(spent, state["best"], tmasks, state["nodes"])
        deleted = propagate(kept, deleted)
        if deleted is None:
            return
        ub = sum(1 for t in tmasks if not t & deleted)
        if ub <= state["best"]:
            return
        for unhit in fmasks:
            if not unhit & deleted:
                break
        else:
            # every forbidden copy is broken: keeping all undecided edges is optimal here
            state["best"] = ub
            state["best_kept"] = all_mask & ~deleted
            return
        und = unhit & ~kept
        acc = kept
        while und:
            bit = und & -und
            und ^= bit
            dfs(acc, deleted | bit)
            acc |= bit

    # Q_n is edge-transitive and Q_n itself is infeasible here, so some optimal
    # solution deletes the first edge in the fixed order: fix it at the root.
    dfs(0, 1)
    return state["best"], state["best_kept"], state["nodes"]


def count_words_kernel(k, ell):
    """Star words of 2l-cycles in Q_k using all k symbols, in first-occurrence
    canonical form: symbol s first appears after symbols 0..s-1.

    A word's prefix masks are pairwise distinct and its last mask is 0; the
    recursion places one letter per level and keeps the masks of the current
    branch in `seen`.
    """
    seen = {0}  # prefix masks on the current branch
    bits = [1 << s for s in range(k)]

    def rec(left: int, mask: int, used: int) -> int:
        # Closing takes popcount(mask) letters and each unused symbol two; with
        # one letter left, that forces a single-bit mask, all k symbols used
        # and the last letter, so the word is counted without placing it.
        left -= 1
        slack = left - 2 * (k - used)
        total = 0
        for b in bits[:used]:
            nm = mask ^ b
            if nm in seen or nm.bit_count() > slack:
                continue
            if left == 1:
                total += 1
            else:
                seen.add(nm)
                total += rec(left, nm, used)
                seen.discard(nm)
        if used < k:
            nm = mask | bits[used]  # the next new symbol: one fewer unused
            if nm not in seen and nm.bit_count() <= slack + 2:
                if left == 1:
                    total += 1
                else:
                    seen.add(nm)
                    total += rec(left, nm, used + 1)
                    seen.discard(nm)
        return total

    return rec(2 * ell, 0, 0)


def read_edges_kernel(body, n):
    """The {vertex: direction mask} of the edges in an edge-file body (the
    bytes after the header line), or the ParseError of its first bad line."""
    from ..core import read_edge_lines

    return read_edge_lines(body, n)


def write_edges_kernel(n, masks):
    """The edges of `masks`, as star strings in lexicographic order, one line
    each, in one bytes buffer."""
    from ..core import write_edge_lines

    return write_edge_lines(n, masks)
