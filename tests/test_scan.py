"""The bit-parallel subcube scan (`core.template_hits`) against the brute-force oracles.

Q_k counts, the Q_k-freeness witness and its `checked_count`, and the order of
`iter_subcubes` are checked against `brute_subcube_scan`; C_4 and C_6 counts,
which `count_in_subgraph` takes from the scan, against `brute_cycle_edge_sets`
and the cycle DFS. The per-vertex scan above `MAX_WHOLE_CUBE_N` is checked on
a sparse file of Q_23.
"""

import math
import random

import pytest
from helpers import brute_cycle_edge_sets, brute_subcube_scan, random_subgraph

from cubeturan.core import (
    MAX_WHOLE_CUBE_N,
    Subgraph,
    direction_bitsets,
    edge_pair_masks,
    format_cells,
    full_cube,
    iter_subcubes,
    subcube_edges,
)
from cubeturan.counting import (
    closed_count_c2l,
    closed_count_qk,
    count_copies_qk,
    count_cycles,
    count_in_subgraph,
    short_cycle_templates,
)
from cubeturan.errors import EnumerationTooLarge
from cubeturan.patterns import parse_pattern
from cubeturan.verification import is_qk_free

C4, C6 = parse_pattern("c4"), parse_pattern("c6")


def seeded_graphs(seed: int, max_n: int, keeps=(0.5, 0.8, 0.95, 1.0), count=24):
    rng = random.Random(seed)
    return [random_subgraph(rng.randint(1, max_n), rng.choice(keeps), rng) for _ in range(count)]


def test_direction_bitsets_hold_each_edge_at_its_lower_endpoint():
    for g in seeded_graphs(7, 8):
        bitsets = direction_bitsets(g)
        assert len(bitsets) == g.n
        for p, bits in enumerate(bitsets):
            lower = {v for v in range(1 << g.n) if bits >> v & 1}
            assert lower == {v for v, m in g.masks.items() if (m & ~v) >> p & 1}
            assert bits >> (1 << g.n) == 0


@pytest.mark.parametrize("seed", range(4))
def test_qk_counts_witness_and_order_match_the_brute_scan(seed):
    for g in seeded_graphs(seed, 8, count=8):
        for k in range(1, min(4, g.n) + 1):
            found = list(brute_subcube_scan(g, k))
            assert [format_cells(g.n, *pair) for pair in iter_subcubes(g, k)] == [
                cells for cells, _ in found]
            assert count_copies_qk(g, k) == len(found)
            verdict = is_qk_free(g, k)
            if found:
                assert (verdict.free, verdict.witness.cells, verdict.checked_count) == (
                    False, *found[0])
            else:
                assert (verdict.free, verdict.witness) == (True, None)
                assert verdict.checked_count == math.comb(g.n, k) << (g.n - k)


@pytest.mark.parametrize("seed", range(3))
def test_c4_and_c6_counts_match_the_edge_set_oracle_and_the_dfs(seed):
    for g in seeded_graphs(100 + seed, 7, keeps=(0.4, 0.6, 0.8), count=10):
        for pattern in (C4, C6):
            counted = count_in_subgraph(g, pattern)
            assert counted == len(brute_cycle_edge_sets(g, pattern.order))
            assert counted == count_cycles(g, pattern.order)
    for g in seeded_graphs(200 + seed, 8, keeps=(0.8, 0.95, 1.0), count=6):
        for pattern in (C4, C6):
            assert count_in_subgraph(g, pattern) == count_cycles(g, pattern.order)


def test_short_cycle_templates_are_the_cycles_of_their_cube():
    for length, ell in ((4, 2), (6, 3)):
        templates = short_cycle_templates(length)
        as_edge_sets = {frozenset(frozenset((t, t | 1 << j)) for j, t in cycle)
                        for cycle in templates}
        assert len(as_edge_sets) == len(templates)
        assert as_edge_sets == brute_cycle_edge_sets(full_cube(ell), length)
    assert len(short_cycle_templates(6)) == 16  # z_{3,3}


def test_full_cubes_match_the_closed_forms():
    for n in range(1, 13):
        g = full_cube(n)
        for k in range(1, n + 1):
            assert count_copies_qk(g, k) == closed_count_qk(n, k)
        assert count_in_subgraph(g, C4) == (closed_count_c2l(n, 2) if n >= 2 else 0)
        assert count_in_subgraph(g, C6) == (closed_count_c2l(n, 3) if n >= 3 else 0)


def test_edge_cases():
    for n in (1, 2, 5):
        empty = Subgraph(n)
        assert list(iter_subcubes(empty, 1)) == []
        assert count_copies_qk(empty, n) == 0
        assert count_in_subgraph(empty, C4) == count_in_subgraph(empty, C6) == 0
        assert is_qk_free(empty, 1).checked_count == n << (n - 1)
    assert count_in_subgraph(full_cube(2), C6) == 0  # a C_6 spans three directions
    assert count_in_subgraph(full_cube(1), C4) == 0
    for n in range(1, 7):
        assert list(iter_subcubes(full_cube(n), n)) == [((1 << n) - 1, 0)]
        assert list(iter_subcubes(full_cube(n), n + 1)) == []
        assert count_in_subgraph(full_cube(n), parse_pattern(f"q{n + 1}")) == 0
        assert is_qk_free(full_cube(n), n).checked_count == 1
    with pytest.raises(EnumerationTooLarge):
        count_in_subgraph(Subgraph(13), C4)


def test_sparse_file_above_the_whole_cube_cap_takes_the_per_vertex_scan():
    n = MAX_WHOLE_CUBE_N + 1
    # a Q_3 on positions 20, 21, 22 at base 2^5, and one more edge at vertex 0
    stars, base = 0b111 << 20, 1 << 5
    edges = subcube_edges(stars, base)
    g = Subgraph(n, masks=edge_pair_masks(edges + [(0, 1)]))
    assert list(iter_subcubes(g, 1)) == [(1, 0)] + sorted((v ^ u, u) for u, v in edges)
    assert [count_copies_qk(g, k) for k in (1, 2, 3, 4)] == [13, 6, 1, 0]
    assert list(iter_subcubes(g, 3)) == [(stars, base)]
    verdict = is_qk_free(g, 3)
    # {20, 21, 22} is the last 3-set of 23 positions in colex order, and the
    # base's fill sets the free position 5
    assert verdict.witness.cells == format_cells(n, stars, base)
    assert verdict.checked_count == ((math.comb(n, 3) - 1) << (n - 3)) + (1 << 5) + 1
