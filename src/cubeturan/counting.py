"""Exact counting: subcube copies, even cycles, the z-table, residue binomial sums.

All counts are exact arbitrary-precision ints; densities are exact Fractions.
Closed-form counts refuse n > 4096 and enumerations are capped lower (see
CYCLE_ENUM_MAX_N and the MAX_CLOSED_FORM_N and MAX_MATERIALIZED_N caps in core).
"""

from __future__ import annotations

import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from ._kernels import count_cycles_kernel, find_cycle_kernel
from ._kernels._cycles_py import collect_cycles
from ._version import __version__
from .core import Subgraph, check_closed_form_dimension, iter_subcubes
from .errors import BadLength, BadRange, EnumerationTooLarge
from .patterns import CYCLE, EDGE, SUBCUBE, Pattern
from .zwords import min_star_count, z_kl, z_positive

#: cycle enumeration starts a DFS at each of the 2^n vertices, over 2^n-entry
#: mask and in-path tables; beyond this n it is refused
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


class ZTable:
    """Memoized zwords.z_kl values with optional text-file persistence.

    File lines are `z <k> <l> <value>`; a `# cubeturan-ztable <version>`
    header keys the cache to the tool version. A cache of another version, or
    with a malformed line, a line whose key z never stores (see
    zwords.z_positive) or a zero value, or bytes that are not UTF-8, is stale:
    it is ignored and rewritten on the next save, which replaces the file
    atomically. Zeros are never stored.
    """

    HEADER = "# cubeturan-ztable"

    def __init__(self, path=None):
        self.path = path
        self._values: dict[tuple[int, int], int] = {}
        if path is not None and os.path.exists(path):
            self._load(path)

    def _load(self, path) -> None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except UnicodeDecodeError:
            return  # not even text: recompute rather than trust it
        if not lines or lines[0].strip() != f"{self.HEADER} {__version__}":
            return  # stale or foreign cache: recompute rather than trust it
        values = {}
        for line in lines[1:]:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 4 or parts[0] != "z" or not "".join(parts[1:]).isdecimal():
                return  # truncated or corrupt: recompute rather than trust any of it
            try:
                k, ell, value = map(int, parts[1:])
            except ValueError:
                return  # past int()'s 4300 digits: as corrupt as a malformed line
            if not (z_positive(k, ell) and value > 0):
                return  # a key z never stores: as corrupt as a malformed line
            values[k, ell] = value
        self._values = values

    def save(self) -> None:
        path = self.path
        if path is None:
            return
        lines = [f"{self.HEADER} {__version__}"]
        lines += [f"z {k} {ell} {v}" for (k, ell), v in sorted(self._values.items())]
        try:
            fd, tmp = tempfile.mkstemp(prefix=".ztable-", dir=os.path.dirname(os.path.abspath(path)))
            try:
                with open(fd, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write("\n".join(lines) + "\n")
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:  # name the cache, not the temporary file beside it
            raise type(exc)(exc.errno, exc.strerror, path) from exc

    def get(self, k: int, ell: int) -> int:
        if (k, ell) not in self._values and (value := z_kl(k, ell)):
            self._values[k, ell] = value
            self.save()
        return self._values.get((k, ell), 0)

    def __getitem__(self, key: tuple[int, int]) -> int:
        return self.get(*key)

    def __contains__(self, key) -> bool:
        return key in self._values


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
    return sum(1 for _ in iter_subcubes(g, ell))


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
    """N(g, pattern) by enumeration."""
    if pattern.kind == EDGE:
        return g.edge_count
    if pattern.kind == SUBCUBE:
        if pattern.order > g.n:
            return 0
        return count_copies_qk(g, pattern.order)
    return count_cycles(g, pattern.order, threads=threads)


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
            "density": {"num": str(self.density.numerator), "den": str(self.density.denominator)},
            "method": self.method,
        }


def count_report(n: int, pattern: Pattern, g: Subgraph | None = None,
                 z=None, threads: int = 1) -> CountReport:
    """Count a pattern in Q_n (closed form) or in a given subgraph (enumeration).

    Closed-form counting refuses n > MAX_CLOSED_FORM_N; only the subgraph path
    materializes per-edge state.
    """
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
