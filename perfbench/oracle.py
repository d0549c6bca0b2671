"""Seeded inputs and reference counts that share no code with the package.

A closed walk in Q_n flips every direction an even number of times, so a
4-cycle spans exactly one Q_2 and a 6-cycle exactly one Q_3 (six distinct
vertices cannot fit in two directions). Both counts therefore decompose into
a scan over subcubes with a small lookup table, which checks the package's
cycle kernel and subcube scan by an independent route.
"""

from __future__ import annotations

import functools
import itertools
import random

STAR = "*"


def edge_key(v: int, p: int, n: int) -> str:
    """Star string of the edge {v, v ^ (1 << p)}; position i is bit i."""
    return "".join(STAR if i == p else "01"[v >> i & 1] for i in range(n))


def edge_code(key: str) -> int:
    """The edge as (lower endpoint << 5) | direction."""
    p = key.index(STAR)
    v = sum(1 << i for i, c in enumerate(key) if c == "1")
    return v << 5 | p


def read_edges(path) -> tuple[int, frozenset[str]]:
    """Parse a `cube v1 n=<n>` file without the package's reader."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if not lines[0].startswith("cube v1 n="):
        raise ValueError(f"{path}: bad header {lines[0]!r}")
    n = int(lines[0][len("cube v1 n="):])
    keys = [t for t in (line.strip() for line in lines[1:]) if t and not t.startswith("#")]
    edges = frozenset(keys)
    if len(edges) != len(keys) or any(len(k) != n or k.count(STAR) != 1 for k in keys):
        raise ValueError(f"{path}: malformed or duplicate edge lines")
    return n, edges


def random_subgraph(n: int, density: float, rng: random.Random) -> list[str]:
    """Each edge of Q_n kept independently with probability `density`."""
    return sorted(
        edge_key(v, p, n)
        for p in range(n) for v in range(1 << n)
        if not v >> p & 1 and rng.random() < density
    )


def write_subgraph(path, n: int, keys) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([f"cube v1 n={n}", *sorted(keys)]) + "\n")


def _local_edges(k: int) -> list[tuple[int, int]]:
    """Edges of Q_k as (lower endpoint, direction), in a fixed order."""
    return [(u, j) for j in range(k) for u in range(1 << k) if not u >> j & 1]


def _cycle_masks(k: int, length: int) -> set[int]:
    """Every cycle of Q_k on `length` vertices, as a mask over _local_edges."""
    index = {e: i for i, e in enumerate(_local_edges(k))}

    def bit(u: int, w: int) -> int:
        lo, d = min(u, w), (u ^ w).bit_length() - 1
        return 1 << index[lo, d]

    found = set()

    def extend(path: list[int], mask: int) -> None:
        cur = path[-1]
        for j in range(k):
            w = cur ^ 1 << j
            if len(path) == length:
                if w == path[0]:
                    found.add(mask | bit(cur, w))
                continue
            if w not in path:
                path.append(w)
                extend(path, mask | bit(cur, w))
                path.pop()

    for s in range(1 << k):
        extend([s], 0)
    return found


@functools.cache
def _contained_table(k: int, length: int) -> list[int]:
    """table[m] = number of cycles whose edge mask lies inside m."""
    cycles = _cycle_masks(k, length)
    return [sum(1 for c in cycles if c & m == c) for m in range(1 << len(_local_edges(k)))]


def _subcube_masks(n: int, codes: frozenset[int], k: int):
    """The present-edge mask of every Q_k subcube of Q_n."""
    local = _local_edges(k)
    for dirs in itertools.combinations(range(n), k):
        others = [i for i in range(n) if i not in dirs]
        offsets = [(sum(1 << dirs[b] for b in range(k) if u >> b & 1), dirs[j]) for u, j in local]
        for fill in range(1 << (n - k)):
            base = sum(1 << others[b] for b in range(n - k) if fill >> b & 1)
            mask = 0
            for i, (off, d) in enumerate(offsets):
                if (base | off) << 5 | d in codes:
                    mask |= 1 << i
            yield mask


def count_short_cycles(n: int, keys, length: int) -> int:
    """Number of 4- or 6-cycles in the subgraph of Q_n with these edges."""
    if length not in (4, 6):
        raise ValueError("only 4- and 6-cycles decompose over subcubes")
    k = length // 2
    table = _contained_table(k, length)
    codes = frozenset(edge_code(e) for e in keys)
    return sum(table[m] for m in _subcube_masks(n, codes, k)) if k <= n else 0


def count_full_subcubes(n: int, keys, k: int) -> int:
    """Number of Q_k subcubes all of whose edges are present."""
    full = (1 << len(_local_edges(k))) - 1
    codes = frozenset(edge_code(e) for e in keys)
    return sum(1 for m in _subcube_masks(n, codes, k) if m == full) if k <= n else 0


def is_cycle_in(vertices, keys, n: int) -> bool:
    """True when the closed vertex sequence is a cycle using only these edges."""
    vs = list(vertices)
    if len(set(vs)) != len(vs) or len(vs) < 4:
        return False
    for a, b in zip(vs, vs[1:] + vs[:1]):
        d = a ^ b
        if d == 0 or d & (d - 1) or edge_key(min(a, b), d.bit_length() - 1, n) not in keys:
            return False
    return True


def subcube_edges(cells: str) -> list[str]:
    """Every edge of the subcube named by a star string."""
    stars = [i for i, c in enumerate(cells) if c == STAR]
    out = []
    for e in stars:
        rest = [p for p in stars if p != e]
        for fill in range(1 << len(rest)):
            w = list(cells)
            for b, p in enumerate(rest):
                w[p] = "01"[fill >> b & 1]
            out.append("".join(w))
    return out
