"""Brute-force oracles shared across test modules, and `density`, the
shorthand through which the search tests read exact densities.

Deliberately naive and independent of the package's counting algorithms:
adjacency is rebuilt from edge strings by hand, cycles are counted as closed
non-repeating walks or collected as edge-set frozensets with no
canonicalization tricks, and the constructions' selection rules count the 1s
of prefixes, suffixes and segments in the cell text.
"""

from __future__ import annotations

import itertools
import random


def oracle_adjacency(g) -> dict[int, set[int]]:
    """Adjacency sets parsed straight out of the edge strings."""
    adj: dict[int, set[int]] = {}
    for key in g.sorted_edges():
        star = key.index("*")
        u = 0
        for i, c in enumerate(key):
            if c == "1":
                u |= 1 << i
        v = u | (1 << star)
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def closed_walk_count(g, length: int) -> int:
    """Closed walks v0..v_{L-1},v0 with all vertices distinct.

    Every cycle is traversed 2L ways (L rotations x 2 directions), so this
    equals 2 * length * (number of cycles).
    """
    adj = oracle_adjacency(g)
    total = 0

    def extend(start, cur, steps, seen):
        nonlocal total
        if steps == length:
            if start in adj[cur]:
                total += 1
            return
        for w in adj[cur]:
            if w not in seen:
                seen.add(w)
                extend(start, w, steps + 1, seen)
                seen.remove(w)

    for s in adj:
        extend(s, s, 1, {s})
    return total


def brute_cycle_edge_sets(g, length: int, starts=None) -> set[frozenset[frozenset[int]]]:
    """All cycles of the given length through a vertex of `starts` (default:
    every vertex), deduplicated by their edge sets."""
    adj = oracle_adjacency(g)
    out: set[frozenset[frozenset[int]]] = set()

    def extend(path, seen):
        cur = path[-1]
        if len(path) == length:
            if path[0] in adj[cur]:
                out.add(frozenset(
                    frozenset((path[i], path[(i + 1) % length]))
                    for i in range(length)
                ))
            return
        for w in adj[cur]:
            if w not in seen:
                path.append(w)
                seen.add(w)
                extend(path, seen)
                seen.remove(w)
                path.pop()

    for s in adj if starts is None else starts:
        if s in adj:
            extend([s], {s})
    return out


def brute_subcube_scan(g, k: int):
    """Every Q_k of g as (star string, 1-based index of that name in the scan).

    Names are visited as `is_qk_free` promises: star position sets in colex
    order, then the other positions' fills ascending. A name is present when
    every Hamming-distance-1 pair of its 2^k vertices is adjacent in g; only
    vertex sets and the edge strings are used.
    """
    adj = oracle_adjacency(g)
    index = 0
    for pos in sorted(itertools.combinations(range(g.n), k), key=lambda c: c[::-1]):
        others = [i for i in range(g.n) if i not in pos]
        for fill in range(1 << (g.n - k)):
            index += 1
            base = sum(1 << i for j, i in enumerate(others) if fill >> j & 1)
            verts = {base | sum(1 << p for j, p in enumerate(pos) if f >> j & 1)
                     for f in range(1 << k)}
            if all(v in adj.get(u, ()) for u in verts for v in verts if (u ^ v).bit_count() == 1):
                yield "".join("*" if i in pos else "01"[base >> i & 1] for i in range(g.n)), index


def brute_z_words(ell: int) -> set[tuple[int, ...]]:
    """Filter all distinct double-occurrence words by the naive window scan."""
    symbols = []
    for s in range(1, ell + 1):
        symbols += [s, s]
    out = set()
    for word in set(itertools.permutations(symbols)):
        ok = True
        for k in range(1, ell):
            width = 2 * k
            for a in range(2 * ell - width + 1):
                window = word[a:a + width]
                if all(window.count(s) % 2 == 0 for s in range(1, ell + 1)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(word)
    return out


def brute_z_kl(k: int, ell: int) -> int:
    """2l-cycles of Q_k whose star lists use all k positions, by enumeration.

    Cycles come from `brute_cycle_edge_sets` and an edge {u, v} has position
    (u ^ v).bit_length() - 1, so neither the cycle kernel nor any word count
    is involved. The 2^k translations v -> v ^ t map cycles to cycles with the
    same positions and each cycle has 2l vertices, so the total is 2^k times
    the cycles through vertex 0 over 2l; only those are listed.
    """
    from cubeturan.core import full_cube

    through_zero = sum(1 for cycle in brute_cycle_edge_sets(full_cube(k), 2 * ell, starts=(0,))
                       if len({(u ^ v).bit_length() - 1 for u, v in cycle}) == k)
    total, rest = divmod(through_zero << k, 2 * ell)
    assert rest == 0
    return total


def aks_oracle_deletes(key: str, lo: int, hi: int, i: int, j: int) -> bool:
    """The residue deletion rule on an edge's cell text: the 1s left of the star
    are i mod lo and the 1s right of it are j mod hi. The (k+1)/2 family uses
    lo, hi = floor((k+1)/2), ceil((k+1)/2); the (k-1)/2 variant uses
    floor((k-1)/2), ceil((k-1)/2) with i = j = 0."""
    prefix, _, suffix = key.partition("*")
    return prefix.count("1") % lo == i and suffix.count("1") % hi == j


def mod3_oracle_selected(cells: str) -> bool:
    """The mod-3 segment rule on a Q_l name's cell text: the l + 1 segments
    around the stars hold 0 mod 3 ones each, except that for l in {4, 5} the
    l - 1 inner segments hold 1 mod 3."""
    segments = cells.split("*")
    ell = len(segments) - 1
    inner = 1 if ell in (4, 5) else 0
    targets = [0] + [inner] * (ell - 1) + [0]
    return all(seg.count("1") % 3 == t for seg, t in zip(segments, targets))


def subcube_names(n: int, k: int):
    """Every Q_k name of Q_n as cell text, built character by character."""
    for pos in itertools.combinations(range(n), k):
        for fill in itertools.product("01", repeat=n - k):
            rest = iter(fill)
            yield "".join("*" if i in pos else next(rest) for i in range(n))


def parity_q2_selection(n: int) -> list[str]:
    """The parity-selected Q_2 names: stars at positions s and s + 1 with s even,
    and an even number of 1s both left and right of the two stars."""
    selected = []
    for name in subcube_names(n, 2):
        prefix, middle, suffix = name.split("*")
        if not middle and len(prefix) % 2 == 0 and prefix.count("1") % 2 == 0 \
                and suffix.count("1") % 2 == 0:
            selected.append(name)
    return selected


def density(n: int, target, forbid):
    """The exact extremal density d(Q_n, target, forbid), as search reports it."""
    from cubeturan.search import exact_extremal

    return exact_extremal(n, target, forbid).density


def random_subgraph(n: int, keep_probability: float, rng: random.Random):
    from cubeturan.core import Subgraph, full_cube

    cube = full_cube(n)
    kept = frozenset(e for e in cube.sorted_edges() if rng.random() < keep_probability)
    return Subgraph(n, kept)


def random_automorphism(n: int, rng: random.Random):
    perm = list(range(n))
    rng.shuffle(perm)
    flips = rng.randrange(1 << n)
    return perm, flips
