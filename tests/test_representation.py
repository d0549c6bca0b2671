"""The direction-mask representation of subgraphs against star strings and vertex sets."""

import math
import random
import tracemalloc

from helpers import brute_subcube_scan, random_subgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeturan.core import (
    Subgraph,
    edge_endpoints,
    full_cube,
    load_subgraph,
    save_subgraph,
)
from cubeturan.counting import count_copies_qk, count_report
from cubeturan.patterns import parse_pattern
from cubeturan.verification import is_qk_free


def edge_sets(n: int):
    return st.sets(st.sampled_from(full_cube(n).sorted_edges()))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.data())
def test_masks_edges_and_file_round_trip(tmp_path_factory, n, data):
    keys = data.draw(edge_sets(n))
    g = Subgraph(n, keys)
    assert g.sorted_edges() == sorted(keys) and g.edge_count == len(keys)
    pairs = {edge_endpoints(key) for key in keys}
    for v in range(1 << n):
        for p in range(n):
            present = (v & ~(1 << p), v | 1 << p) in pairs
            assert bool(g.masks.get(v, 0) >> p & 1) == present
    assert 0 not in g.masks.values()

    rebuilt = Subgraph(n, name="relabelled", masks=g.masks)
    assert rebuilt == g and hash(rebuilt) == hash(g)
    path = tmp_path_factory.mktemp("rt") / "g.cube"
    save_subgraph(g, path)
    loaded = load_subgraph(path)
    assert loaded == g and hash(loaded) == hash(g) and loaded.sorted_edges() == sorted(keys)

    other = data.draw(edge_sets(n))
    assert (Subgraph(n, other) == g) == (other == keys)
    assert Subgraph(n) != Subgraph(n + 1)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.sampled_from([0.6, 0.8, 0.95, 1.0]),
       st.integers(0, 2**32))
def test_subcube_scans_match_vertex_set_oracle(n, k, keep, seed):
    k = min(k, n)
    g = random_subgraph(n, keep, random.Random(seed))
    found = list(brute_subcube_scan(g, k))
    assert count_copies_qk(g, k) == len(found)
    verdict = is_qk_free(g, k)
    if found:
        assert (verdict.free, verdict.witness.cells, verdict.checked_count) == (False, *found[0])
    else:
        assert verdict.free and verdict.witness is None
        assert verdict.checked_count == math.comb(n, k) << (n - k)


def test_one_edge_in_q30_keeps_no_per_vertex_state(tmp_path):
    path, out = tmp_path / "big.cube", tmp_path / "again.cube"
    text = "cube v1 n=30\n" + "0" * 12 + "*" + "1" * 17 + "\n"
    path.write_text(text)
    tracemalloc.start()
    try:
        g = load_subgraph(path)
        report = count_report(30, parse_pattern("e"), g=g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.count == 1 and report.ambient_total == 30 << 29
    assert len(g.masks) == 2
    assert peak < 1 << 20  # one mask per vertex of Q_30 would take gigabytes
    save_subgraph(g, out)
    assert out.read_text() == text
