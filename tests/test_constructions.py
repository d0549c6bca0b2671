import math
from fractions import Fraction

import pytest
from helpers import brute_cycle_edge_sets

from cubeturan.constructions import (
    ConstructionSpec,
    aks_appendix_deletes,
    aks_appendix_graph,
    aks_deletes,
    aks_graph,
    conder_cycle_family,
    conder_graph,
    disjoint_qm_packing,
    even_odd_layers,
    layer_complement,
    layer_union_mod,
    mod3_ql_selection,
    mod3_ql_selection_count,
    mod3_selected,
    parity_q2_packing,
    parity_q2_selection,
)
from cubeturan.core import StarVector, edge_layer, full_cube, save_subgraph
from cubeturan.counting import count_copies_qk, count_cycles
from cubeturan.errors import BadRange, CycleDoesNotFit


def test_layer_complement_small():
    g = layer_complement(3, 2, 1)
    assert g.edge_count == 6
    assert {edge_layer(e) for e in g.edges} == {0, 2}
    with pytest.raises(BadRange):
        layer_complement(3, 4, 0)
    with pytest.raises(BadRange):
        layer_complement(5, 3, 7)  # not a residue mod 3


def test_layer_union_mod_small():
    g = layer_union_mod(3, 2, 0)
    assert g.edge_count == 6
    assert layer_union_mod(3, 2, 1, complement=True).edges == layer_complement(3, 2, 1).edges
    # edge layer i of Q_n has n*C(n-1, i) edges
    for n in (3, 4, 5):
        for i in range(n):
            g = layer_union_mod(n, n, i)
            assert g.edge_count == n * math.comb(n - 1, i)
    with pytest.raises(BadRange):
        layer_union_mod(3, 2, 2)


def test_even_odd_layer_graphs_partition_the_cube():
    for n in (3, 4, 5):
        g0, g1 = even_odd_layers(n, 0), even_odd_layers(n, 1)
        assert g0.edges | g1.edges == full_cube(n).edges
        assert not g0.edges & g1.edges
    with pytest.raises(BadRange):
        even_odd_layers(4, 2)


def test_aks_graph_q2_example():
    assert sorted(aks_graph(2, 2, 0, 0).edges) == ["*1"]
    with pytest.raises(BadRange):
        aks_graph(4, 2, 1, 0)  # i must be below floor((k+1)/2) = 1


def test_residue_deletion_worked_edges():
    # the displayed Q_7 with its two inline star assignments, in dimension 26
    left_100 = "010" + "1" + "100" + "0" + "" + "0" + "001"
    right_110_a = "1010" + "1" + "101" + "1" + "101" + "0"
    edge_a = left_100 + "*" + right_110_a
    assert len(edge_a) == 26
    # ones are 4 and 8: hit residue (0,0) for moduli (4,4), i.e. the (k+1)/2 family
    assert aks_deletes(edge_a, 7, 0, 0)
    # but not the (k-1)/2 variant whose moduli are (3,3)
    assert not aks_appendix_deletes(edge_a, 7)

    left_000 = "010" + "0" + "100" + "0" + "" + "0" + "001"
    right_110_b = "1110" + "1" + "101" + "1" + "101" + "0"
    edge_b = left_000 + "*" + right_110_b
    # ones are 3 and 9: deleted by the variant, untouched by the (i,j) family
    assert aks_appendix_deletes(edge_b, 7)
    assert not aks_deletes(edge_b, 7, 0, 0)

    right_000 = "1010" + "0" + "101" + "0" + "101" + "0"
    assert aks_appendix_deletes(left_000 + "*" + right_000, 7)


def test_aks_appendix_validation_and_degenerate_k3():
    with pytest.raises(BadRange):
        aks_appendix_graph(4, 2)
    # k=3 gives moduli (1,1): every edge is deleted
    assert aks_appendix_graph(4, 3).edge_count == 0
    # k=4 keeps exactly the edges with an odd number of ones right of the star
    g = aks_appendix_graph(4, 4)
    for e in full_cube(4).edges:
        right = e.split("*")[1]
        assert g.has_edge(e) == (right.count("1") % 2 == 1)


def test_parity_selection_small():
    sel = parity_q2_selection(5)
    assert len(sel) == 6
    for sv in sel:
        a, b = sv.star_positions
        assert b == a + 1 and a % 2 == 0
        pre, _, suf = sv.cells.partition("**")
        assert pre.count("1") % 2 == 0 and suf.count("1") % 2 == 0
    with pytest.raises(BadRange):
        parity_q2_selection(2)


@pytest.mark.parametrize("n", range(3, 13))
def test_parity_selection_edge_disjoint(n):
    sel = parity_q2_selection(n)
    assert parity_q2_packing(n).edge_count == 4 * len(sel)


@pytest.mark.parametrize("n", range(3, 13))
def test_parity_selection_count_formula(n):
    # sum over the first-star position: even-ones prefixes times even-ones
    # suffixes, with the boundary terms collapsing to single factors
    expected = sum(
        2 ** max(s - 1, 0) * 2 ** max(n - s - 3, 0)
        for s in range(0, n - 1, 2)
    )
    assert len(parity_q2_selection(n)) == expected


@pytest.mark.parametrize("n", range(5, 15))
def test_parity_selection_count_lower_bound(n):
    assert len(parity_q2_selection(n)) >= Fraction(n, 2) * 2 ** (n - 4)


def test_conder_graph_small():
    g = conder_graph(3)
    assert sorted(g.edges) == ["*00", "0*0", "00*", "1*1"]
    assert Fraction(g.edge_count, 12) == Fraction(1, 3)


def test_mod3_selection_rule_on_inline_examples():
    assert mod3_selected(StarVector(12, "*1101**0***0"))
    assert not mod3_selected(StarVector(9, "1***0***0"))
    # the l=4 inline example violates the displayed rule (its empty middle
    # segment has 0 ones, not 1 mod 3), so the rule rejects it
    assert not mod3_selected(StarVector(11, "*11011**1*0"))
    assert mod3_selected(StarVector(8, "*1*1*1*0"))


def test_mod3_selection_enumeration_matches_closed_form():
    for n, ell in ((7, 4), (8, 4), (9, 4), (12, 4), (9, 5), (10, 5), (6, 6), (8, 6)):
        assert len(mod3_ql_selection(n, ell)) == mod3_ql_selection_count(n, ell)
    assert mod3_ql_selection_count(12, 4) == 1122
    with pytest.raises(BadRange):
        mod3_ql_selection(5, 3)


def test_mod3_selection_count_16_4():
    count = mod3_ql_selection_count(16, 4)
    assert count == 59915
    assert count >= math.comb(16, 4) * 2 ** (16 - 3 * 4 - 2)


def test_cycle_family_tables():
    from cubeturan.constructions import _CYCLE_ROWS_L4, _CYCLE_ROWS_L5

    assert _CYCLE_ROWS_L4 == ("0000", "1000", "1100", "1110", "1111",
                              "0111", "0011", "0001")
    assert _CYCLE_ROWS_L5[0] == "00100"


@pytest.mark.parametrize("n,ell", [(7, 4), (9, 5), (6, 6), (8, 6), (7, 7)])
def test_cycle_family_lies_in_conder_graph(n, ell):
    fam = conder_cycle_family(n, ell)
    cg = conder_graph(n)
    assert len(fam.members) == len(mod3_ql_selection(n, ell)) > 0
    seen = set()
    for sv, witness in fam.members:
        assert witness.length == 2 * ell
        assert set(witness.star_list) == set(sv.star_positions)
        for e in witness.edge_keys():
            assert cg.has_edge(e)
        seen.add(witness.vertices)
    assert len(seen) == len(fam.members)
    assert fam.union_graph.edges <= cg.edges


def test_qm_packing_plain():
    g = disjoint_qm_packing(4, 2)
    assert g.edge_count == 16
    assert count_copies_qk(g, 2) == 4
    with pytest.raises(BadRange):
        disjoint_qm_packing(3, 4)


def test_qm_packing_copies_are_vertex_disjoint():
    from cubeturan.core import edge_endpoints

    g = disjoint_qm_packing(5, 2)
    # components are indexed by the bits above position m: no edge crosses
    for e in g.edges:
        u, v = edge_endpoints(e)
        assert u >> 2 == v >> 2
    assert count_copies_qk(g, 2) == 2 ** 3


def test_qm_packing_has_no_long_cycles():
    g = disjoint_qm_packing(5, 3)
    assert count_cycles(g, 16) == 0


def test_qm_packing_with_cycles():
    g = disjoint_qm_packing(6, 3, with_cycles=True, ell=4)
    assert count_cycles(g, 8) == 2 ** 3
    for other in (4, 6, 10, 12):
        assert count_cycles(g, other) == 0
    with pytest.raises(CycleDoesNotFit):
        disjoint_qm_packing(4, 2, with_cycles=True, ell=4)


def test_cycle_counts_on_layer_graph_against_dedup_oracle():
    g = even_odd_layers(4, 0)
    assert count_cycles(g, 6) == len(brute_cycle_edge_sets(g, 6)) == 4


def test_constructions_are_deterministic(tmp_path):
    for spec in (
        ConstructionSpec("conder", {"n": 4}),
        ConstructionSpec("parity-q2", {"n": 5}),
        ConstructionSpec("aks", {"n": 4, "k": 3, "i": 1, "j": 0}),
        ConstructionSpec("qm-packing", {"n": 5, "m": 2, "with_cycles": True, "l": 2}),
        ConstructionSpec("layer-mod", {"n": 4, "k": 3, "j": 1, "complement": True}),
    ):
        a, b = tmp_path / "a.cube", tmp_path / "b.cube"
        save_subgraph(spec.build(), a)
        save_subgraph(spec.build(), b)
        assert a.read_bytes() == b.read_bytes()


def test_construction_spec_dispatch_and_claims():
    spec = ConstructionSpec("layer-complement", {"n": 4, "k": 2, "i": 0})
    assert spec.claimed_free_of() == "q2"
    assert spec.build().edge_count == layer_complement(4, 2, 0).edge_count
    assert ConstructionSpec("even-odd", {"n": 4, "j": 1}).claimed_free_of() == "c4"
    assert ConstructionSpec("conder", {"n": 3}).claimed_free_of() == "c6"
    assert ConstructionSpec("layer-mod", {"n": 4, "k": 3, "j": 0}).claimed_free_of() is None
    assert ConstructionSpec("mod3-select", {"n": 7, "l": 4}).build().edge_count > 0
    assert ConstructionSpec("conder-cycles", {"n": 7, "l": 4}).claimed_free_of() == "c6"
    with pytest.raises(BadRange):
        ConstructionSpec("nope", {})
    with pytest.raises(BadRange):
        ConstructionSpec("aks", {"n": 4}).build()
