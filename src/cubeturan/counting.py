"""Exact counting: subcube copies, even cycles, residue binomial sums.

All counts are exact arbitrary-precision ints; densities are exact Fractions.
Closed-form counts refuse n > 4096 and enumerations are capped lower (see
CYCLE_ENUM_MAX_N and the MAX_CLOSED_FORM_N and MAX_MATERIALIZED_N caps in core).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ._kernels import count_cycles_kernel, find_cycle_kernel
from ._kernels._cycles_py import collect_cycles
from .core import (
    MAX_WHOLE_CUBE_N,
    Subgraph,
    check_closed_form_dimension,
    fraction_json,
    full_cube,
    iter_subcubes,
    subcube_template,
    template_hits,
)
from .errors import BadLength, BadRange, EnumerationTooLarge
from .patterns import CYCLE, EDGE, SUBCUBE, Pattern
from .zwords import ZTable, min_star_count, z_kl  # ZTable is re-exported here

if TYPE_CHECKING:  # imported where it is used, as the fractions import costs start-up time
    from fractions import Fraction

#: cycle counts refuse n above this: the DFS (C_8 and longer, and every
#: `verify --forbid c...`) starts at each of the 2^n vertices over 2^n-entry mask
#: and in-path tables, and the bit-parallel C_4 and C_6 counts keep the same cap
#: until the long kernels get a work budget
CYCLE_ENUM_MAX_N = 12


def closed_count_qk(n: int, k: int) -> int:
    """N(Q_n, Q_k) = C(n,k) * 2^(n-k)."""
    if n < 1 or not 0 <= k <= n:
        raise BadRange(f"need 0 <= k <= n with n >= 1, got n={n}, k={k}")
    return math.comb(n, k) << (n - k)


def closed_count_c2l(n: int, ell: int, z=None) -> int:
    """N(Q_n, C_2l) = sum over k of C(n,k) * 2^(n-k) * z_{k,l}.

    k runs from ceil(log2(2l)) to min(l, n). z[k, l] is read from `z` (a ZTable
    or any mapping holding those keys), else counted.
    """
    if n < 1 or ell < 2 or min_star_count(ell) > n:
        raise BadRange(f"need 2 <= l <= 2^(n-1), got n={n}, l={ell}")
    return sum(closed_count_qk(n, k) * (z_kl(k, ell) if z is None else z[k, ell])
               for k in range(min_star_count(ell), min(ell, n) + 1))


@dataclass(frozen=True)
class CycleWitness:
    """A cycle as its canonical closed vertex sequence.

    Canonical means: of the 4l rotations/reflections, the stored tuple is the
    lexicographically smallest (so it starts at the minimum vertex and its
    second entry is below its last).
    """

    n: int
    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = self.vertices
        L = len(vs)
        if L < 4 or L % 2:
            raise BadLength(f"cycle length must be even and >= 4, got {L}")
        if len(set(vs)) != L:
            raise BadRange("cycle vertices must be distinct")
        for i, v in enumerate(vs):
            if not 0 <= v < 1 << self.n:
                raise BadRange(f"vertex {v} outside Q_{self.n}")
            if ((v ^ vs[(i + 1) % L]).bit_count()) != 1:
                raise BadRange("consecutive cycle vertices must be adjacent")
        if vs[0] != min(vs) or vs[1] > vs[-1]:
            raise BadRange("cycle sequence is not in canonical orientation")

    @property
    def length(self) -> int:
        return len(self.vertices)

    def edge_pairs(self) -> list[tuple[int, int]]:
        """The edges as endpoint pairs, smaller first, in cycle order."""
        vs = self.vertices
        return [(min(u, v), max(u, v)) for u, v in zip(vs, vs[1:] + vs[:1])]

    def to_json_dict(self) -> dict:
        return {"type": "cycle", "length": self.length, "vertices": list(self.vertices)}

    def __str__(self) -> str:
        return " ".join(map(str, self.vertices))


def _cycle_fits(g: Subgraph, length: int) -> bool:
    """Whether a cycle on `length` vertices fits in Q_n; raises on an odd or
    short length and on n > CYCLE_ENUM_MAX_N."""
    if length < 4 or length % 2:
        raise BadLength(f"cycle length must be even and >= 4, got {length}")
    if g.n > CYCLE_ENUM_MAX_N:
        raise EnumerationTooLarge(
            f"cycle enumeration refused for n={g.n} > {CYCLE_ENUM_MAX_N}"
        )
    return min_star_count(length // 2) <= g.n


def count_cycles(g: Subgraph, length: int, threads: int = 1) -> int:
    """Number of distinct cycles on `length` vertices contained in g.

    The total is a sum of per-start-vertex counts, so it does not depend on
    `threads`. With T threads the start vertices are split into the 4T
    residue classes mod 4T (at most 2^n, so every class has a start vertex),
    handed to idle threads in turn. A cycle is counted from its minimum
    vertex, so low start vertices hold most of the work: by DFS node counts
    on Q_7, Q_8, conder(10), conder(12) and a random Q_9 subgraph with
    T = 2, 4, 8, the busiest thread gets at most 9% over an even share this
    way, against 31% with 4T contiguous ranges and 63% with the T classes
    mod T. At most os.cpu_count() threads are started.
    """
    if not _cycle_fits(g, length):
        return 0
    if threads <= 1:
        return count_cycles_kernel(g, length)
    from concurrent.futures import ThreadPoolExecutor  # ~10 ms to import, so only here

    parts = min(4 * threads, 1 << g.n)
    with ThreadPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
        return sum(pool.map(lambda i: count_cycles_kernel(g, length, i, parts), range(parts)))


def find_cycle(g: Subgraph, length: int):
    """First cycle of the given length in canonical order, or None.

    Returns (CycleWitness | None, extension_attempts).
    """
    if not _cycle_fits(g, length):
        return None, 0
    path, nodes = find_cycle_kernel(g, length)
    if path is None:
        return None, nodes
    return CycleWitness(g.n, path), nodes


def enumerate_cycle_witnesses(g: Subgraph, length: int) -> list[CycleWitness]:
    """All cycles of the given length, in canonical DFS order.

    Always runs the pure-Python kernel, whichever backend counts.
    """
    if not _cycle_fits(g, length):
        return []
    return [CycleWitness(g.n, path) for path in collect_cycles(g, length)]


def count_copies_qk(g: Subgraph, ell: int) -> int:
    """Number of Q_l subcube names all of whose edges lie in g."""
    if not 0 <= ell <= g.n:
        raise BadRange(f"need 0 <= l <= n, got l={ell}, n={g.n}")
    if ell == 0:
        return 1 << g.n  # every vertex, vacuously
    if g.n > MAX_WHOLE_CUBE_N:
        return sum(1 for _ in iter_subcubes(g, ell))
    return sum(hits.bit_count() for _, hits in template_hits(g, ell, [subcube_template(ell)]))


@functools.cache
def short_cycle_templates(length: int) -> list[list[tuple[int, int]]]:
    """The cycles on `length` = 2l vertices of Q_l, for length 4 or 6, as
    `template_hits` templates: z_{2,2} = 1 and z_{3,3} = 16 of them. A C_2l flips
    each direction it uses an even number of times, so it spans at most l
    directions, and for l <= 3 exactly l, as a Q_{l-1} has fewer than 2l
    vertices. So every C_4 or C_6 of g lies in exactly one Q_l, and counting each
    template at each Q_l counts every cycle once."""
    return [[((u ^ v).bit_length() - 1, u) for u, v in w.edge_pairs()]
            for w in enumerate_cycle_witnesses(full_cube(length // 2), length)]


def binomial_residue_sum(m: int, r: int, a: int) -> int:
    """Exact sum of C(m, a + r*t) over t >= 0."""
    if m < 0 or not 0 <= a < r:
        raise BadRange(f"need m >= 0 and 0 <= a < r, got m={m}, r={r}, a={a}")
    return sum(math.comb(m, i) for i in range(a, m + 1, r))


def ambient_count(n: int, pattern: Pattern, z=None) -> int:
    """N(Q_n, pattern) by closed form (0 when it cannot fit; an edge is a Q_1)."""
    check_closed_form_dimension(n)
    if pattern.kind != CYCLE:
        return closed_count_qk(n, pattern.order) if pattern.order <= n else 0
    ell = pattern.order // 2
    if min_star_count(ell) > n:
        return 0
    return closed_count_c2l(n, ell, z)


def count_in_subgraph(g: Subgraph, pattern: Pattern, threads: int = 1) -> int:
    """N(g, pattern) by enumeration: C_4 and C_6 by the bit-parallel scan, longer
    cycles by the DFS, which alone reads `threads`."""
    if pattern.kind == EDGE:
        return g.edge_count
    if pattern.kind == SUBCUBE:
        if pattern.order > g.n:
            return 0
        return count_copies_qk(g, pattern.order)
    if pattern.order > 6:
        return count_cycles(g, pattern.order, threads=threads)
    if not _cycle_fits(g, pattern.order):
        return 0
    return sum(hits.bit_count() for _, hits in
               template_hits(g, pattern.order // 2, short_cycle_templates(pattern.order)))


@dataclass(frozen=True)
class CountReport:
    n: int
    pattern: str
    count: int
    ambient_total: int
    density: Fraction
    method: str

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "pattern": self.pattern,
            "count": str(self.count),
            "ambient_total": str(self.ambient_total),
            "density": fraction_json(self.density),
            "method": self.method,
        }


def count_report(n: int, pattern: Pattern, g: Subgraph | None = None,
                 z=None, threads: int = 1) -> CountReport:
    """Count a pattern in Q_n (closed form) or in a given subgraph (enumeration).

    Closed-form counting refuses n > MAX_CLOSED_FORM_N; only the subgraph path
    materializes per-edge state.
    """
    from fractions import Fraction

    if n < 1:
        raise BadRange(f"dimension must be positive, got {n}")
    ambient = ambient_count(n, pattern, z=z)
    if g is None:
        count = ambient
        method = "closed-form"
    else:
        if g.n != n:
            raise BadRange(f"subgraph has n={g.n}, expected {n}")
        count = count_in_subgraph(g, pattern, threads=threads)
        method = "enumeration"
    density = Fraction(count, ambient) if ambient else Fraction(0)
    return CountReport(n, str(pattern), count, ambient, density, method)
