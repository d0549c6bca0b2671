"""Deterministic generators for the known extremal constructions.

Each generator returns an immutable Subgraph tagged with a provenance name.
Identical parameters always produce identical edge sets, so saved files are
byte-for-byte reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .core import (
    Subgraph,
    edge_pair_masks,
    full_cube,
    iter_subcubes,
    parse_cells,
    subcube_edges,
    subcube_vertices,
    subgraph_where,
)
from .counting import binomial_residue_sum, find_cycle
from .errors import BadRange, CycleDoesNotFit
from .zwords import min_star_count


# ---------------------------------------------------------------------------
# layer graphs

def _check_residue(k: int, j: int) -> None:
    if k < 1 or not 0 <= j < k:
        raise BadRange(f"need k >= 1 and 0 <= j < k, got k={k}, j={j}")


def layer_union_mod(n: int, k: int, j: int, complement: bool = False) -> Subgraph:
    """Union of the edge layers congruent to j mod k (or its complement in Q_n).

    The complement (all layers not congruent to j) is Q_k-free: a Q_k spans k
    consecutive edge layers, which hit every residue class mod k.
    """
    _check_residue(k, j)
    name = f"layer-mod(n={n},k={k},j={j},complement={complement})"
    return subgraph_where(n, lambda v, p: (v.bit_count() % k == j) != complement, name)


def layer_complement(n: int, k: int, i: int) -> Subgraph:
    """All edge layers except those congruent to i mod k; Q_k-free."""
    if not 2 <= k <= n:
        raise BadRange(f"need 2 <= k <= n, got k={k}, n={n}")
    _check_residue(k, i)
    return subgraph_where(n, lambda v, p: v.bit_count() % k != i,
                          f"layer-complement(n={n},k={k},i={i})")


def even_odd_layers(n: int, j: int) -> Subgraph:
    """Edges in layers of parity j. C_4-free for any n: a 4-cycle always uses
    two adjacent layers."""
    if j not in (0, 1):
        raise BadRange(f"parity must be 0 or 1, got {j}")
    return subgraph_where(n, lambda v, p: v.bit_count() % 2 == j, f"even-odd(n={n},j={j})")


# ---------------------------------------------------------------------------
# deletion graphs driven by prefix/suffix residues

def _residue_hit(v: int, p: int, lo: int, hi: int, i: int, j: int) -> bool:
    """For the edge with lower endpoint v and star position p, whose prefix is
    bits 0..p-1 of v: ones(prefix) = i mod lo and ones(suffix) = j mod hi."""
    return (v & ((1 << p) - 1)).bit_count() % lo == i and (v >> (p + 1)).bit_count() % hi == j


def aks_graph(n: int, k: int, i: int, j: int) -> Subgraph:
    """Q_n minus the edges hit by the (i, j) residue pair; Q_k-free.

    Any Q_k has enough stars on both sides of its middle star to realize
    every residue pair, so some edge of it is always deleted.
    """
    lo, hi = (k + 1) // 2, (k + 2) // 2
    if k < 2:
        raise BadRange(f"need k >= 2, got {k}")
    if not 0 <= i < lo or not 0 <= j < hi:
        raise BadRange(f"need 0 <= i < {lo} and 0 <= j < {hi}, got i={i}, j={j}")
    return subgraph_where(n, lambda v, p: not _residue_hit(v, p, lo, hi, i, j),
                          f"aks(n={n},k={k},i={i},j={j})")


def aks_appendix_graph(n: int, k: int) -> Subgraph:
    """Single-graph variant of the residue deletion; Q_k-free for k >= 3."""
    if k < 3:
        raise BadRange(f"need k >= 3 (positive moduli), got {k}")
    lo, hi = (k - 1) // 2, k // 2
    return subgraph_where(n, lambda v, p: not _residue_hit(v, p, lo, hi, 0, 0),
                          f"aks-appendix(n={n},k={k})")


# ---------------------------------------------------------------------------
# parity-selected Q_2 packing (C_6-free)

def parity_q2_packing(n: int) -> Subgraph:
    """Union of the parity-selected Q_2's: stars at s and s+1, s even 0-based (odd
    in 1-based prose), and even weight both before s and after s+1, so the edge
    (v, p) lies in the one with s = p & ~1 if s+1 < n and v passes that test. The
    selection is edge-disjoint, the union is C_6-free and its Q_2's are exactly
    the selected ones: in a Q_2 with stars {p, q}, q != p ^ 1, one of the two
    edges along p has an odd prefix or suffix, so it is not in the union."""
    if n < 3:
        raise BadRange(f"need n >= 3, got {n}")

    def keep(v: int, p: int) -> bool:
        s = p & ~1
        return s + 1 < n and (v & ((1 << s) - 1)).bit_count() % 2 == 0 \
            and (v >> (s + 2)).bit_count() % 2 == 0

    return subgraph_where(n, keep, f"parity-q2(n={n})")


# ---------------------------------------------------------------------------
# the mod-3 congruence graph and its explicit cycles

def conder_graph(n: int) -> Subgraph:
    """Edges with ones(prefix) - ones(suffix) = 0 mod 3 (Conder's 3-coloring
    class); C_6-free."""
    return subgraph_where(
        n,
        lambda v, p: ((v & ((1 << p) - 1)).bit_count() - (v >> (p + 1)).bit_count()) % 3 == 0,
        f"conder(n={n})")


def _mod3_targets(ell: int) -> tuple[int, ...]:
    # inter-star segments p_0..p_l; for l in {4,5} the middle segments need
    # ones = 1 mod 3, the outer ones 0; for l >= 6 all segments need 0.
    if ell >= 6:
        return (0,) * (ell + 1)
    return (0,) + (1,) * (ell - 1) + (0,)


def _mod3_hit(stars: int, base: int) -> bool:
    """The segment residue rule for the Q_l (star mask, base): the ones of base
    below the lowest star, between consecutive stars and above the highest.
    Each pass takes the segment below the lowest star left and drops that star."""
    for target in _mod3_targets(stars.bit_count()):
        segment = base & ((stars & -stars) - 1) if stars else base
        if segment.bit_count() % 3 != target:
            return False
        base, stars = base ^ segment, stars & (stars - 1)
    return True


def _check_mod3(n: int, ell: int) -> None:
    if ell < 4 or n < ell:
        raise BadRange(f"need l >= 4 and n >= l, got l={ell}, n={n}")


def _mod3_pairs(n: int, ell: int) -> list[tuple[int, int]]:
    """(star mask, base) of every selected Q_l, in `iter_subcubes` order."""
    _check_mod3(n, ell)
    return [pair for pair in iter_subcubes(full_cube(n), ell) if _mod3_hit(*pair)]


def mod3_select(n: int, ell: int) -> Subgraph:
    """The union of the mod-3 selected Q_l's."""
    masks = edge_pair_masks(e for pair in _mod3_pairs(n, ell) for e in subcube_edges(*pair))
    return Subgraph(n, name=f"mod3-select(n={n},l={ell})", masks=masks)


def mod3_ql_selection_count(n: int, ell: int) -> int:
    """Exact selection cardinality via residue-class binomial sums; usable
    when full enumeration is too large."""
    _check_mod3(n, ell)
    targets = _mod3_targets(ell)
    total = 0
    for pos in itertools.combinations(range(n), ell):
        prev = -1
        ways = 1
        for idx, p in enumerate(pos):
            ways *= binomial_residue_sum(p - prev - 1, 3, targets[idx])
            prev = p
        ways *= binomial_residue_sum(n - 1 - prev, 3, targets[ell])
        total += ways
    return total


#: explicit star-position value tables for the in-subcube cycles, one row per
#: vertex; row char i is the value at the i-th star (ascending positions)
_CYCLE_ROWS_L4 = ("0000", "1000", "1100", "1110", "1111", "0111", "0011", "0001")
_CYCLE_ROWS_L5 = ("00100", "01100", "01101", "01001", "11001", "11011",
                  "10011", "10010", "10110", "00110")


def _cycle_row_masks(ell: int) -> list[int]:
    if ell == 4:
        rows = _CYCLE_ROWS_L4
    elif ell == 5:
        rows = _CYCLE_ROWS_L5
    else:
        # sliding 111-block, then a fixed 5-edge closing tail
        sets = [{0, 1, 2}]
        for t in range(ell - 3):
            sets.append({t, t + 1, t + 2, t + 3})
            sets.append({t + 1, t + 2, t + 3})
        sets.append({1, ell - 3, ell - 2, ell - 1})
        sets.append({1, ell - 3, ell - 2})
        sets.append({1, ell - 2})
        sets.append({1, 2, ell - 2})
        sets.append({0, 1, 2, ell - 2})
        return [sum(1 << i for i in s) for s in sets]
    return [parse_cells(r, ell)[1] for r in rows]


def conder_cycles(n: int, ell: int) -> Subgraph:
    """The union of the explicit 2l-cycles, one in every mod-3 selected Q_l and
    using all of its star positions; every edge lies in conder_graph(n)."""
    selected = _mod3_pairs(n, ell)  # checks l >= 4 and n >= l
    rows = _cycle_row_masks(ell)
    pairs = []
    for stars, base in selected:
        corners = subcube_vertices(stars, base)  # indexed by fill, as the row masks are
        cycle = [corners[mask] for mask in rows]
        pairs += zip(cycle, cycle[1:] + cycle[:1])
    return Subgraph(n, name=f"conder-cycles(n={n},l={ell})", masks=edge_pair_masks(pairs))


# ---------------------------------------------------------------------------
# vertex-disjoint subcube packings

def disjoint_qm_packing(n: int, m: int, with_cycles: bool = False,
                        ell: int | None = None) -> Subgraph:
    """2^(n-m) vertex-disjoint Q_m's (stars in the first m positions).

    Without cycles: the full union, which contains no cycle longer than 2^m.
    With cycles: one canonical 2l-cycle per copy (the lexicographically
    smallest in Q_m, translated into each copy), which contains no other
    cycle lengths at all.
    """
    if not 1 <= m <= n:
        raise BadRange(f"need 1 <= m <= n, got m={m}, n={n}")
    if not with_cycles:
        if ell is not None:
            raise BadRange(f"l names the cycle of each copy, so it needs with_cycles, got l={ell}")
        return subgraph_where(n, lambda v, p: p < m, f"qm-packing(n={n},m={m})")
    if ell is None or ell < 2:
        raise BadRange(f"with_cycles needs l >= 2, got {ell}")
    if min_star_count(ell) > m:
        raise CycleDoesNotFit(f"C_{2 * ell} needs {2 * ell} vertices, Q_{m} has {1 << m}")
    witness, _ = find_cycle(full_cube(m), 2 * ell)
    if witness is None:  # cannot happen: Q_m hosts all even lengths up to 2^m
        raise CycleDoesNotFit(f"no C_{2 * ell} found in Q_{m}")
    cycle = edge_pair_masks(witness.edge_pairs())  # the same cycle in every copy
    low = (1 << m) - 1
    return subgraph_where(n, lambda v, p: p < m and cycle.get(v & low, 0) >> p & 1,
                          f"qm-packing(n={n},m={m},c{2 * ell})")


# ---------------------------------------------------------------------------
# construction registry (the CLI dispatch surface)

@dataclass(frozen=True)
class Kind:
    """One construction: its builder, the parameters it needs, those it may take
    (integers, then switches) and the pattern it is claimed free of: None, text
    formatted with the parameters, or a function of the builder's arguments.
    Parameters carry their CLI names; the builders call `l` `ell`."""

    build: Callable[..., Subgraph]
    needs: tuple[str, ...]
    takes: tuple[str, ...] = ()
    flags: tuple[str, ...] = ()
    claim: str | Callable[..., str | None] | None = None

    @property
    def params(self) -> tuple[str, ...]:
        return self.needs + self.takes + self.flags


#: every construction, in the order the CLI lists them
KINDS = {
    "layer-complement": Kind(layer_complement, ("n", "k", "i"), claim="q{k}"),
    "aks": Kind(aks_graph, ("n", "k", "i", "j"), claim="q{k}"),
    "aks-appendix": Kind(aks_appendix_graph, ("n", "k"), claim="q{k}"),
    "parity-q2": Kind(parity_q2_packing, ("n",), claim="c6"),
    "conder": Kind(conder_graph, ("n",), claim="c6"),
    "mod3-select": Kind(mod3_select, ("n", "l")),
    "conder-cycles": Kind(conder_cycles, ("n", "l"), claim="c6"),
    "qm-packing": Kind(
        disjoint_qm_packing, ("n", "m"), takes=("l",), flags=("with_cycles",),
        claim=lambda m, with_cycles=False, ell=None, **_: (
            f"every even cycle except c{2 * ell}" if with_cycles
            else f"every cycle longer than {1 << m}")),
    "layer-mod": Kind(
        layer_union_mod, ("n", "k", "j"), flags=("complement",),
        claim=lambda k, complement=False, **_: (
            f"q{k}" if complement else "c4" if k == 2 else None)),
    "even-odd": Kind(even_odd_layers, ("n", "j"), claim="c4"),
}

#: every parameter some construction reads, in KINDS order, and whether it is a switch
CONSTRUCT_PARAMS = {name: name in row.flags for row in KINDS.values() for name in row.params}


@dataclass(frozen=True)
class ConstructionSpec:
    """A named construction plus its integer/switch parameters: all that its
    KINDS row needs, and no other than those it may take."""

    kind: str
    params: dict

    def __post_init__(self):
        row = KINDS.get(self.kind)
        if row is None:
            raise BadRange(f"unknown construction {self.kind!r}")
        unread = sorted(set(self.params) - set(row.params))
        if unread:
            raise BadRange(f"construction {self.kind!r} does not read {', '.join(unread)}")
        for name in row.needs:
            if name not in self.params:
                raise BadRange(f"construction {self.kind!r} needs parameter {name!r}")

    def _args(self) -> dict:
        """The parameters as the builder takes them: `l` as `ell`, switches as bools."""
        flags = KINDS[self.kind].flags
        return {"ell" if name == "l" else name: bool(value) if name in flags else value
                for name, value in self.params.items()}

    def build(self) -> Subgraph:
        return KINDS[self.kind].build(**self._args())

    def claimed_free_of(self) -> str | None:
        claim = KINDS[self.kind].claim
        if callable(claim):
            return claim(**self._args())
        return claim and claim.format(**self.params)
