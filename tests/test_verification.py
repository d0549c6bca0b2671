import itertools
import random

import pytest
from helpers import random_automorphism, random_subgraph

from cubeturan.constructions import (
    aks_graph,
    conder_graph,
    layer_complement,
    parity_q2_packing,
)
from cubeturan.core import StarVector, Subgraph, apply_automorphism, expand_edges, full_cube
from cubeturan.counting import count_copies_qk, count_cycles, count_in_subgraph
from cubeturan.errors import BadRange
from cubeturan.patterns import parse_pattern
from cubeturan.search import exact_extremal
from cubeturan.verification import (
    FreenessVerdict,
    has_k_partite_representation,
    is_c2k_free,
    is_pattern_free,
    is_qk_free,
)


def test_full_cube_is_never_free():
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            verdict = is_qk_free(full_cube(n), k)
            assert not verdict.free
            assert verdict.witness is not None


def test_qk_free_examples():
    assert is_qk_free(aks_graph(6, 3, 0, 0), 3).free
    assert is_qk_free(layer_complement(5, 2, 0), 2).free
    with pytest.raises(BadRange):
        is_qk_free(full_cube(3), 0)


def test_a_subcube_larger_than_the_cube_is_absent():
    # no Q_4 name exists in Q_3, so there is nothing to check; search and
    # count take the same view of a forbidden Q_k with k > n
    assert is_qk_free(full_cube(3), 4) == FreenessVerdict(True, None, 0)
    assert is_pattern_free(full_cube(3), parse_pattern("q4")).free
    assert count_in_subgraph(full_cube(3), parse_pattern("q4")) == 0
    assert exact_extremal(3, parse_pattern("e"), parse_pattern("q4")).value == 12


def test_c2k_free_examples():
    assert is_c2k_free(conder_graph(7), 3).free
    assert is_c2k_free(parity_q2_packing(7), 3).free
    verdict = is_c2k_free(full_cube(3), 2)
    assert not verdict.free
    assert verdict.witness.length == 4
    with pytest.raises(BadRange):
        is_c2k_free(full_cube(3), 1)


def test_witnesses_reverify():
    rng = random.Random(321)
    for _ in range(20):
        g = random_subgraph(4, 0.8, rng)
        vq = is_qk_free(g, 2)
        if not vq.free:
            assert all(g.masks.get(e.pair[1], 0) & e.pair[0] for e in expand_edges(vq.witness))
        vc = is_c2k_free(g, 3)
        if not vc.free:
            assert all(g.masks.get(u, 0) & (u ^ v) for u, v in vc.witness.edge_pairs())


def test_verdicts_agree_with_counts_on_every_q3_subgraph():
    # completeness oracle: all 2^12 subgraphs of Q_3
    keys = full_cube(3).sorted_edges()
    for mask in range(1 << 12):
        g = Subgraph(3, frozenset(k for i, k in enumerate(keys) if mask >> i & 1))
        for k in (1, 2, 3):
            assert is_qk_free(g, k).free == (count_copies_qk(g, k) == 0)
        for k in (2, 3):
            assert is_c2k_free(g, k).free == (count_cycles(g, 2 * k) == 0)


def test_verdict_invariant_under_automorphisms():
    rng = random.Random(17)
    for _ in range(10):
        g = random_subgraph(4, 0.6, rng)
        perm, flips = random_automorphism(4, rng)
        image = apply_automorphism(perm, flips, g)
        assert is_qk_free(image, 2).free == is_qk_free(g, 2).free
        assert is_c2k_free(image, 3).free == is_c2k_free(g, 3).free


def test_qk_witness_is_first_in_colex_order():
    # in the full cube the very first candidate (stars in the lowest colex
    # set, all-zero fill) must be the witness
    verdict = is_qk_free(full_cube(4), 2)
    assert verdict.witness.cells == "**00"
    assert verdict.checked_count == 1


def sigma_oracle(edges, k):
    """Exhaustive search over all k^l maps."""
    ell = edges[0].n
    supports = [tuple(i for i, c in enumerate(sv.cells) if c != "0") for sv in edges]
    if any(len(s) != k for s in supports):
        return False
    for sigma in itertools.product(range(1, k + 1), repeat=ell):
        if all(len({sigma[p] for p in s}) == k for s in supports):
            return True
    return False


def test_kpartite_examples():
    assert sorted(has_k_partite_representation(Subgraph(2, ["1*"]), 2)) == [1, 2]
    q2 = Subgraph(2, ["*0", "*1", "0*", "1*"])
    assert has_k_partite_representation(q2, 2) is None
    sigma = has_k_partite_representation(Subgraph(3, ["1*0", "*10"]), 2)
    assert sigma == (1, 2, 1)  # positions 0 and 1 differ; the free position 2 maps to 1


def test_kpartite_matches_exhaustive_search():
    rng = random.Random(55)
    for _ in range(60):
        ell = rng.randrange(3, 9)
        k = rng.randrange(2, 4)
        edges = []
        for _ in range(rng.randrange(1, 5)):
            nonzero = rng.sample(range(ell), min(k, ell))
            star = rng.choice(nonzero)
            cells = "".join(
                "*" if i == star else ("1" if i in nonzero else "0")
                for i in range(ell)
            )
            edges.append(StarVector(ell, cells))
        sigma = has_k_partite_representation(Subgraph(ell, [sv.cells for sv in edges]), k)
        assert (sigma is not None) == sigma_oracle(edges, k)
        if sigma is not None:
            assert len(sigma) == ell
            for sv in edges:
                support = [i for i, c in enumerate(sv.cells) if c != "0"]
                assert {sigma[p] for p in support} == set(range(1, k + 1))


def test_kpartite_validation():
    with pytest.raises(BadRange):
        has_k_partite_representation(Subgraph(2, []), 2)
