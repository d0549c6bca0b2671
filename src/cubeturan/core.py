"""Hypercube primitives: star vectors, edges, subgraphs, automorphisms, file I/O.

Conventions (used everywhere in the package):

* positions are 0-based and read left to right, so ``cells[i]`` is position i;
* a vertex is a plain int whose bit i is the value at position i (position 0
  is the least significant bit);
* a subgraph is immutable and held as a sparse map from vertex to direction
  mask: bit p of ``masks[v]`` is set iff the edge {v, v ^ (1 << p)} is in it,
  and edgeless vertices have no entry. A Q_k is named by the pair (star mask
  S, base b), b having no bit in S; it is in the subgraph iff
  ``masks[b | s] & S == S`` for every s within S, and an edge is the pair of
  its endpoints;
* up to MAX_WHOLE_CUBE_N the scans read the masks' transpose, derived per
  scan by ``direction_bitsets``: E_p, a 2^n-bit int whose bit v is set iff the
  edge {v, v | 2^p} is present with v's bit p clear. ``template_hits`` ANDs
  shifted E_p over a list of (direction, offset) edges at every base at once,
  for each star position set in colex order; Q_k, C_4 and C_6 are such lists,
  and ``iter_subcubes`` reads a set's Q_k bases from its set bits. Above the
  cap a subgraph is sparse, and ``iter_subcubes`` tests each vertex;
* star strings such as ``01*10`` (the edge joining 01010 and 01110) appear
  only at the boundary: files, ``Subgraph(n, edges)``,
  ``Subgraph.sorted_edges()`` and witnesses. ``parse_cells`` is their one
  reader and ``edge_pair`` holds the one-star rule of an edge.
  ``format_cells`` writes them;
* edge files are read and written whole, by the selected backend's edge
  kernels: ``read_edges_kernel`` turns a body (the text after the header line)
  into masks, and ``write_edges_kernel`` turns masks into the sorted edge lines
  that ``save_subgraph`` writes and ``Subgraph.sorted_edges`` splits. Their
  pure twins are ``read_edge_lines``, the per-line reader that every error
  comes from, and ``write_edge_lines``, which splices the star into each
  vertex's bits rather than calling ``format_cells``, for speed. The compiled
  reader reads only bodies as ``save_subgraph`` writes them and returns None
  for any other, which ``read_edge_lines`` then reads.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from ._kernels import read_edges_kernel, write_edges_kernel
from .errors import (
    BadChar,
    BadLength,
    BadRange,
    DimensionMismatch,
    DimensionTooLarge,
    DuplicateEdge,
    NoStars,
    ParseError,
)

if TYPE_CHECKING:  # fractions costs start-up time, and no value here needs it
    from fractions import Fraction

STAR = "*"
ALPHABET = frozenset("01*")
_STAR_BITS = bytes.maketrans(b"01*", b"001")
_BASE_BITS = bytes.maketrans(b"*", b"0")

#: operations that materialize per-vertex or per-edge state refuse n above this
MAX_MATERIALIZED_N = 30

#: builders that touch all 2^n vertices refuse n above this: conder_graph(22) peaks
#: at 0.5 GB in 18 s and full_cube(22) at 0.6 GB, against 2.0 and 2.2 GB at n = 24
MAX_WHOLE_CUBE_N = 22

#: closed-form counts and bounds refuse n above this, so what they print stays in
#: str()'s 4300 digits: 3^n >= N(Q_n, Q_k) has 1955 digits here, a z_{k,l} factor < 560 more
MAX_CLOSED_FORM_N = 4096

FILE_MAGIC = "cube v1"


def check_dimension(n: int, cap: int = MAX_MATERIALIZED_N) -> None:
    if n < 1:
        raise BadRange(f"dimension must be positive, got {n}")
    if n > cap:
        raise DimensionTooLarge(f"n={n} exceeds the materialization cap {cap}")


def check_closed_form_dimension(n: int) -> None:
    if n > MAX_CLOSED_FORM_N:
        raise DimensionTooLarge(f"n={n} exceeds the closed-form cap {MAX_CLOSED_FORM_N}")


def fraction_json(value: Fraction) -> dict:
    """The one JSON form of an exact fraction: numerator and denominator as decimal strings."""
    return {"num": str(value.numerator), "den": str(value.denominator)}


def parse_cells(text: str, n: int) -> tuple[int, int]:
    """(star mask, base) of a word of length n over {0,1,*}: the only reader of star text."""
    if n < 1:
        raise BadRange(f"dimension must be positive, got {n}")
    if len(text) != n:
        raise BadLength(f"expected {n} cells, got {len(text)} in {text!r}")
    if not ALPHABET.issuperset(text):
        raise BadChar(f"invalid characters {sorted(set(text) - ALPHABET)} in {text!r}")
    word = text[::-1].encode()
    return int(word.translate(_STAR_BITS), 2), int(word.translate(_BASE_BITS), 2)


def format_cells(n: int, stars: int, base: int) -> str:
    """The word of length n naming (star mask, base); star text is written here,
    and only the edge-file writers (`write_edge_lines` and its compiled twin)
    splice edge words themselves, for save speed."""
    cells = bin(base | 1 << n)[:2:-1]  # drops the "0b1" that fixes the length
    while stars:
        p = (stars & -stars).bit_length() - 1
        cells = cells[:p] + STAR + cells[p + 1:]
        stars &= stars - 1
    return cells


def edge_pair(text: str, n: int) -> tuple[int, int]:
    """(star bit, lower endpoint) of an edge's word; BadRange unless it has exactly one star."""
    bit, u = parse_cells(text, n)
    if not bit or bit & (bit - 1):
        raise BadRange(f"edge {text!r} must contain exactly one star")
    return bit, u


@dataclass(frozen=True)
class StarVector:
    """A word over {0,1,*} naming a subcube of Q_n (k stars = a Q_k).

    k=0 is a single vertex, k=1 an edge. `pair` is (star mask, base): the star
    positions as bits, and the vertex with every star 0.
    """

    n: int
    cells: str
    pair: tuple[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "pair", parse_cells(self.cells, self.n))

    @property
    def k(self) -> int:
        return self.pair[0].bit_count()

    def __str__(self) -> str:
        return self.cells

    def to_json_dict(self) -> dict:
        return {"type": "subcube", "cells": self.cells}


def parse_star_vector(text: str, n: int) -> StarVector:
    """Parse a star string of length n; round-trips through str() exactly."""
    return StarVector(n, text)


def vertex_to_bits(v: int, n: int) -> str:
    """Format a vertex int as its position-ordered bit string."""
    return format_cells(n, 0, v)


def subcube_vertices(stars: int, base: int) -> list[int]:
    """The 2^k vertices of the Q_k with star mask `stars` and base `base`, in fill
    order: index bit j sets the j-th lowest star position."""
    vertices = [base]
    while stars:
        bit = stars & -stars
        vertices += [v | bit for v in vertices]
        stars ^= bit
    return vertices


def subcube_edges(stars: int, base: int) -> list[tuple[int, int]]:
    """The k*2^(k-1) edges (u, v), u < v, of the Q_k with star mask `stars` and
    base `base`: from each vertex up along every star that is 0 there."""
    return [(v, v | 1 << p) for v in subcube_vertices(stars, base)
            for p in range(stars.bit_length()) if (stars & ~v) >> p & 1]


def subcube_star_vector(n: int, stars: int, base: int) -> StarVector:
    """The star-string name of the Q_k with star mask `stars` and base `base`."""
    return StarVector(n, format_cells(n, stars, base))


def expand_vertices(sv: StarVector) -> list[int]:
    """All 2^k vertices of the subcube, as ints, in increasing fill order."""
    return subcube_vertices(*sv.pair)


def expand_edges(sv: StarVector) -> list[StarVector]:
    """All k*2^(k-1) edges of the subcube, each a one-star vector."""
    if sv.k == 0:
        raise NoStars(f"{sv.cells!r} has no stars to expand")
    return [subcube_star_vector(sv.n, u ^ v, u) for u, v in subcube_edges(*sv.pair)]


def _edge(edge: StarVector | str) -> tuple[int, int]:
    cells = edge.cells if isinstance(edge, StarVector) else edge
    return edge_pair(cells, len(cells))


def edge_layer(edge: StarVector | str) -> int:
    """Number of 1-cells in the edge's star string."""
    return _edge(edge)[1].bit_count()


def edge_endpoints(edge: StarVector | str) -> tuple[int, int]:
    """The two vertices of an edge, smaller first."""
    bit, u = _edge(edge)
    return u, u | bit


class Subgraph:
    """An immutable edge set on Q_n's full vertex set. `edges` (star strings) are
    validated; `masks` (a dict by vertex or a list indexed by vertex, symmetric
    as the package builds them) are taken as given. Equality ignores the name."""

    def __init__(self, n: int, edges: Iterable[str] = (), name: str | None = None, *, masks=None):
        check_dimension(n)
        if masks is None:
            pairs = (edge_pair(key, n) for key in edges)
            masks = edge_pair_masks((u, u | bit) for bit, u in pairs)
        items = masks.items() if isinstance(masks, dict) else enumerate(masks)
        masks = {v: m for v, m in items if m}
        for attr, value in (("n", n), ("masks", masks), ("name", name),
                            ("edge_count", sum(m.bit_count() for m in masks.values()) // 2)):
            object.__setattr__(self, attr, value)

    def __setattr__(self, attr, value):
        raise AttributeError(f"Subgraph is immutable; cannot set {attr!r}")

    def __eq__(self, other):
        return isinstance(other, Subgraph) and self.n == other.n and self.masks == other.masks

    def __hash__(self):
        return hash((self.n, frozenset(self.masks.items())))

    def __repr__(self):
        return f"Subgraph(n={self.n}, edge_count={self.edge_count}, name={self.name!r})"

    def sorted_edges(self) -> list[str]:
        """The edges as star strings, in lexicographic order."""
        return write_edges_kernel(self.n, self.masks).decode().split()


def full_cube(n: int) -> Subgraph:
    """Q_n itself: all n*2^(n-1) edges."""
    check_dimension(n, MAX_WHOLE_CUBE_N)
    return Subgraph(n, name=f"Q_{n}", masks=dict.fromkeys(range(1 << n), (1 << n) - 1))


def edge_pair_masks(pairs: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Direction masks of the edges given as endpoint pairs (repeats are harmless)."""
    masks: dict[int, int] = {}
    for u, v in pairs:
        bit = u ^ v
        masks[u] = masks.get(u, 0) | bit
        masks[v] = masks.get(v, 0) | bit
    return masks


def subgraph_where(n: int, keep: Callable[[int, int], bool], name: str | None = None) -> Subgraph:
    """The edges (v, p) of Q_n, v the lower endpoint and p the position, with keep(v, p)."""
    check_dimension(n, MAX_WHOLE_CUBE_N)
    masks = [0] * (1 << n)
    for p in range(n):
        bit = 1 << p
        for block in range(0, 1 << n, bit << 1):
            for v in range(block, block + bit):
                if keep(v, p):
                    masks[v] |= bit
                    masks[v | bit] |= bit
    return Subgraph(n, name=name, masks=masks)


def _colex(positions: Sequence[int], k: int) -> list[tuple[int, ...]]:
    """The k-subsets of `positions` in colex order: by highest position, then the next."""
    return sorted(itertools.combinations(positions, k), key=lambda c: c[::-1])


def direction_bitsets(g: Subgraph) -> list[int]:
    """E_p for each position p: the 2^n-bit int whose bit v is set iff the edge
    {v, v | 2^p} is in g and v has bit p clear. A byte plane holds eight
    directions of each vertex's upward mask (masks[v] & ~v), and each E_p is read
    from it by one translate to '0'/'1' text, so the extra memory stays near 2^n
    bytes."""
    top = (1 << g.n) - 1
    bitsets = []
    for first in range(0, g.n, 8):
        plane = bytearray(top + 1)  # byte top - v, so that vertex 0 is the last digit
        for v, m in g.masks.items():
            plane[top - v] = (m & ~v) >> first & 255
        for p in range(first, min(first + 8, g.n)):
            digits = bytes(49 if c >> (p - first) & 1 else 48 for c in range(256))
            bitsets.append(int(plane.translate(digits), 2))
    return bitsets


def subcube_template(k: int) -> list[tuple[int, int]]:
    """The k*2^(k-1) edges of Q_k as (direction, offset) pairs over the local
    positions 0..k-1: the edge from vertex `offset` along `direction`."""
    return [(j, t) for t in range(1 << k) for j in range(k) if not t >> j & 1]


def template_hits(g: Subgraph, k: int,
                  templates: Sequence[Sequence[tuple[int, int]]]) -> Iterator[tuple[int, int]]:
    """(star mask S, hits) for every k-position set S in colex order and every
    template in turn whose hits are nonzero: bit b of hits is set iff b has no
    bit in S and the template, moved onto S and translated to base b, has all
    its edges in g.

    A template is a list of edges (j, t) over local positions, each the edge
    along the j-th lowest position p of S from the vertex o = offsets[t] =
    `subcube_vertices(S, 0)[t]`, and it must use all k directions. Its hits are
    the AND over its edges of E_p >> o, and they need no mask to the bases:
    - a base b with no bit in S: o lies within S, so b + o = b | o carries into
      no bit, and bit b of E_p >> o is bit b | o of E_p, the template's edge at
      b (p is in S, so b | o has bit p clear);
    - a base b with a bit in S names no subcube, and b + o may carry into a
      higher position. Let q be the lowest position of S that b sets. Below q,
      o (within S) and b share no bit, so nothing carries into q, and for an
      edge along q, o has no bit q either: b + o has bit q set, and E_q holds
      lower endpoints only, so that edge's term clears bit b. The template
      uses direction q, so bit b of the AND is clear.
    As every template uses all k directions, a position set holding an
    edgeless direction is skipped.
    """
    check_dimension(g.n, MAX_WHOLE_CUBE_N)
    bitsets = direction_bitsets(g)
    everything = (1 << (1 << g.n)) - 1
    for pos in _colex([p for p in range(g.n) if bitsets[p]], k):
        stars = sum(1 << p for p in pos)
        offsets = subcube_vertices(stars, 0)
        shifted: dict[tuple[int, int], int] = {}
        for template in templates:
            hits = everything
            for edge in template:
                if edge not in shifted:
                    j, t = edge
                    shifted[edge] = bitsets[pos[j]] >> offsets[t]
                hits &= shifted[edge]
                if not hits:
                    break
            else:
                yield stars, hits


def iter_subcubes(g: Subgraph, k: int) -> Iterator[tuple[int, int]]:
    """(star mask, base) of every Q_k in g: star position sets in colex order,
    then bases ascending, which is the order of ascending fills. Up to
    MAX_WHOLE_CUBE_N the bases are the set bits of `template_hits`, read in one
    pass per position set; above it g is sparse, and each vertex is tested."""
    if g.n <= MAX_WHOLE_CUBE_N:
        for stars, hits in template_hits(g, k, [subcube_template(k)]):
            bits = bin(hits)[:1:-1]  # bits[b] is bit b
            b = bits.find("1")
            while b >= 0:
                yield stars, b
                b = bits.find("1", b + 1)
        return
    vertices = sorted(g.masks.items())
    for pos in _colex(range(g.n), k):
        stars = sum(1 << p for p in pos)
        subs = subcube_vertices(stars, 0)[1:]
        for b, m in vertices:
            if not b & stars and m & stars == stars and all(
                    g.masks.get(b | s, 0) & stars == stars for s in subs):
                yield stars, b


def apply_automorphism(perm: Sequence[int], flips: int, g: Subgraph) -> Subgraph:
    """Image of g under "move position i to perm[i], then flip bits of `flips`".

    `flips` is a bit mask in image coordinates; direction masks are unaffected by it.
    """
    n = g.n
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise DimensionMismatch(f"perm must be a permutation of range({n})")
    if not 0 <= flips < 1 << n:
        raise DimensionMismatch(f"flips must be a {n}-bit mask")

    def move(x: int) -> int:
        return sum(1 << perm[i] for i in range(n) if x >> i & 1)

    return Subgraph(n, name=g.name, masks={move(v) ^ flips: move(m) for v, m in g.masks.items()})


def compose_automorphisms(perm2: Sequence[int], flips2: int,
                          perm1: Sequence[int], flips1: int) -> tuple[list[int], int]:
    """(perm2, flips2) after (perm1, flips1), as a single automorphism."""
    n = len(perm1)
    perm = [perm2[perm1[i]] for i in range(n)]
    flips = flips2 ^ sum(((flips1 >> i) & 1) << perm2[i] for i in range(n))
    return perm, flips


def adjacency_lists(g: Subgraph) -> list[list[int]]:
    """Neighbor lists indexed by vertex int, each sorted ascending."""
    adj: list[list[int]] = [[] for _ in range(1 << g.n)]
    for v, m in g.masks.items():
        adj[v] = sorted(v ^ (1 << p) for p in range(g.n) if m >> p & 1)
    return adj


def write_edge_lines(n: int, masks: dict[int, int]) -> bytes:
    """The edges of `masks` as star strings in lexicographic order, each line
    ending in a newline, in one buffer: the pure twin of the compiled writer.
    The star is spliced into each vertex's bits here rather than by
    format_cells, for save speed."""
    keys = []
    for v, m in masks.items():
        up = m & ~v
        if up:
            bits = vertex_to_bits(v, n)
            while up:
                p = (up & -up).bit_length() - 1
                keys.append(bits[:p] + STAR + bits[p + 1:])
                up &= up - 1
    keys.sort()
    keys.append("")
    return "\n".join(keys).encode()


def save_subgraph(g: Subgraph, path) -> None:
    """Write the canonical text format: header line, then edges in sorted order."""
    head = f"{FILE_MAGIC} n={g.n}\n" + (f"# {g.name}\n" if g.name else "")
    body = write_edges_kernel(g.n, g.masks)
    with open(path, "wb") as fh:
        fh.write(head.encode())
        fh.write(body)


def read_edge_lines(body: bytes, n: int) -> dict[int, int]:
    """{vertex: direction mask} of an edge-file body (UTF-8 text after the
    header line) read line by line: blank and `#` lines are skipped, and the
    first bad or repeated edge raises its ParseError, numbered from line 2."""
    masks: dict[int, int] = {}
    for lineno, line in enumerate(body.decode().split("\n"), start=2):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            bit, u = edge_pair(text, n)
        except (BadChar, BadLength, BadRange) as exc:
            raise ParseError(str(exc), line=lineno) from None
        mask = masks.get(u, 0)
        if mask & bit:
            raise DuplicateEdge(f"duplicate edge {text!r}", line=lineno)
        masks[u] = mask | bit
        masks[u | bit] = masks.get(u | bit, 0) | bit
    return masks


def load_subgraph(path) -> Subgraph:
    """Read the text format: the header, then the body through the edge
    kernels. The bytes are read as text mode would read them (UTF-8, with
    universal newlines), so every file gives the same Subgraph or error on
    either backend."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii() or b"\r" in data:  # bytes that text mode refuses or changes
        try:
            data = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read().encode()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text at byte {exc.start}") from None
    head, _, body = data.partition(b"\n")
    header = head.decode()
    if not header.startswith(FILE_MAGIC):
        raise ParseError(f"missing `{FILE_MAGIC}` header", line=1)
    header = header[len(FILE_MAGIC):]
    if not (header[:1].isspace() and header.strip().startswith("n=")):
        raise ParseError("header must declare n=<dimension>", line=1)
    digits = header.strip()[2:]
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(digits)  # int() alone also reads "1_0", "+3" and non-ASCII digits
        n = int(digits)  # and past 4300 digits it refuses too
    except ValueError:
        raise ParseError(f"bad dimension {digits!r}", line=1) from None
    check_dimension(n)
    masks = read_edges_kernel(body, n)
    if masks is None:  # a body not as save_subgraph writes it
        masks = read_edge_lines(body, n)
    return Subgraph(n, masks=masks)
