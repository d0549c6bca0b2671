import ast
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    aks_oracle_deletes,
    brute_cycle_edge_sets,
    mod3_oracle_selected,
    parity_q2_selection,
    subcube_names,
)

from cubeturan.constructions import (
    KINDS,
    ConstructionSpec,
    _cycle_row_masks,
    _mod3_hit,
    _residue_hit,
    aks_appendix_graph,
    aks_graph,
    conder_cycles,
    conder_graph,
    disjoint_qm_packing,
    even_odd_layers,
    layer_complement,
    layer_union_mod,
    mod3_ql_selection_count,
    parity_q2_packing,
)
from cubeturan.core import (
    StarVector,
    Subgraph,
    edge_layer,
    edge_pair,
    edge_pair_masks,
    expand_edges,
    format_cells,
    full_cube,
    iter_subcubes,
    save_subgraph,
    subcube_vertices,
)
from cubeturan.counting import count_copies_qk, count_cycles
from cubeturan.errors import BadRange, CycleDoesNotFit
from cubeturan.patterns import parse_pattern
from cubeturan.verification import is_pattern_free


def test_layer_complement_small():
    g = layer_complement(3, 2, 1)
    assert g.edge_count == 6
    assert {edge_layer(e) for e in g.sorted_edges()} == {0, 2}
    with pytest.raises(BadRange):
        layer_complement(3, 4, 0)
    with pytest.raises(BadRange):
        layer_complement(5, 3, 7)  # not a residue mod 3


def test_layer_union_mod_small():
    g = layer_union_mod(3, 2, 0)
    assert g.edge_count == 6
    assert layer_union_mod(3, 2, 1, complement=True) == layer_complement(3, 2, 1)
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
        keys0, keys1 = set(g0.sorted_edges()), set(g1.sorted_edges())
        assert keys0 | keys1 == set(full_cube(n).sorted_edges())
        assert not keys0 & keys1
    with pytest.raises(BadRange):
        even_odd_layers(4, 2)


def test_aks_graph_q2_example():
    assert aks_graph(2, 2, 0, 0).sorted_edges() == ["*1"]
    with pytest.raises(BadRange):
        aks_graph(4, 2, 1, 0)  # i must be below floor((k+1)/2) = 1


def test_residue_deletion_worked_edges():
    # the displayed Q_7 with its two inline star assignments, in dimension 26,
    # past the whole-cube cap, so the rule is read on the edge alone: by the
    # cell-text oracle and by the predicate the builders evaluate
    def deletes(key, lo, hi):
        bit, v = edge_pair(key, len(key))
        hit = _residue_hit(v, bit.bit_length() - 1, lo, hi, 0, 0)
        assert hit == aks_oracle_deletes(key, lo, hi, 0, 0), key
        return hit

    left_100 = "010" + "1" + "100" + "0" + "" + "0" + "001"
    right_110_a = "1010" + "1" + "101" + "1" + "101" + "0"
    edge_a = left_100 + "*" + right_110_a
    assert len(edge_a) == 26
    # ones are 4 and 8: hit residue (0,0) for moduli (4,4), i.e. the (k+1)/2 family
    assert deletes(edge_a, 4, 4)
    # but not the (k-1)/2 variant whose moduli are (3,3)
    assert not deletes(edge_a, 3, 3)

    left_000 = "010" + "0" + "100" + "0" + "" + "0" + "001"
    right_110_b = "1110" + "1" + "101" + "1" + "101" + "0"
    edge_b = left_000 + "*" + right_110_b
    # ones are 3 and 9: deleted by the variant, untouched by the (i,j) family
    assert deletes(edge_b, 3, 3)
    assert not deletes(edge_b, 4, 4)

    right_000 = "1010" + "0" + "101" + "0" + "101" + "0"
    assert deletes(left_000 + "*" + right_000, 3, 3)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_residue_deletion_graphs_match_the_cell_text_oracle(n):
    edges = full_cube(n).sorted_edges()
    for k in range(2, n + 1):
        lo, hi = (k + 1) // 2, (k + 2) // 2
        for i in range(lo):
            for j in range(hi):
                kept = [e for e in edges if not aks_oracle_deletes(e, lo, hi, i, j)]
                assert aks_graph(n, k, i, j) == Subgraph(n, kept), (k, i, j)
        if k >= 3:
            kept = [e for e in edges if not aks_oracle_deletes(e, (k - 1) // 2, k // 2, 0, 0)]
            assert aks_appendix_graph(n, k) == Subgraph(n, kept), k


def test_aks_appendix_validation_and_degenerate_k3():
    with pytest.raises(BadRange):
        aks_appendix_graph(4, 2)
    # k=3 gives moduli (1,1): every edge is deleted
    assert aks_appendix_graph(4, 3).edge_count == 0
    # k=4 keeps exactly the edges with an odd number of ones right of the star
    g = aks_appendix_graph(4, 4)
    kept = set(g.sorted_edges())
    for e in full_cube(4).sorted_edges():
        right = e.split("*")[1]
        assert (e in kept) == (right.count("1") % 2 == 1)


def test_parity_selection_small():
    sel = parity_q2_selection(5)
    assert len(sel) == 6
    for cells in sel:
        stars = StarVector(5, cells).pair[0]
        a = stars.bit_length() - 2
        assert stars == 3 << a and a % 2 == 0
    # the packing's Q_2's are exactly the selected names
    packed = [format_cells(5, *pair) for pair in iter_subcubes(parity_q2_packing(5), 2)]
    assert sorted(packed) == sorted(sel)
    with pytest.raises(BadRange):
        parity_q2_packing(2)


@pytest.mark.parametrize("n", range(3, 13))
def test_parity_selection_edge_disjoint(n):
    sel = parity_q2_selection(n)
    union = [e.cells for name in sel for e in expand_edges(StarVector(n, name))]
    assert len(set(union)) == len(union) == 4 * len(sel)
    assert parity_q2_packing(n) == Subgraph(n, union)


@pytest.mark.parametrize("n", range(3, 13))
def test_parity_selection_count_formula(n):
    # sum over the first-star position: even-ones prefixes times even-ones
    # suffixes, with the boundary terms collapsing to single factors
    expected = sum(
        2 ** max(s - 1, 0) * 2 ** max(n - s - 3, 0)
        for s in range(0, n - 1, 2)
    )
    assert len(parity_q2_selection(n)) == expected
    assert count_copies_qk(parity_q2_packing(n), 2) == expected


@pytest.mark.parametrize("n", range(5, 15))
def test_parity_selection_count_lower_bound(n):
    assert len(parity_q2_selection(n)) >= Fraction(n, 2) * 2 ** (n - 4)


def test_conder_graph_small():
    g = conder_graph(3)
    assert g.sorted_edges() == ["*00", "0*0", "00*", "1*1"]
    assert Fraction(g.edge_count, 12) == Fraction(1, 3)


def test_mod3_selection_rule_on_inline_examples():
    def selected(cells):
        hit = _mod3_hit(*StarVector(len(cells), cells).pair)
        assert hit == mod3_oracle_selected(cells), cells
        return hit

    assert selected("*1101**0***0")
    assert not selected("1***0***0")
    # the l=4 inline example violates the displayed rule (its empty middle
    # segment has 0 ones, not 1 mod 3), so the rule rejects it
    assert not selected("*11011**1*0")
    assert selected("*1*1*1*0")


def test_mod3_selection_enumeration_matches_closed_form():
    for n, ell in ((7, 4), (8, 4), (9, 4), (12, 4), (9, 5), (10, 5), (6, 6), (8, 6)):
        sel = [name for name in subcube_names(n, ell) if mod3_oracle_selected(name)]
        assert len(sel) == mod3_ql_selection_count(n, ell), (n, ell)
        built = ConstructionSpec("mod3-select", {"n": n, "l": ell}).build()
        assert built == Subgraph(n, {e.cells for name in sel
                                     for e in expand_edges(StarVector(n, name))})
    assert mod3_ql_selection_count(12, 4) == 1122
    with pytest.raises(BadRange):
        ConstructionSpec("mod3-select", {"n": 5, "l": 3}).build()


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
    cg = conder_graph(n)
    sel = [name for name in subcube_names(n, ell) if mod3_oracle_selected(name)]
    assert sel != []
    union = set()
    for name in sel:
        stars, base = StarVector(n, name).pair
        corners = subcube_vertices(stars, base)
        cycle = [corners[mask] for mask in _cycle_row_masks(ell)]
        assert len(set(cycle)) == len(cycle) == 2 * ell
        edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        assert all((u ^ v).bit_count() == 1 for u, v in edges)  # consecutive ones adjacent
        assert sum({u ^ v for u, v in edges}) == stars  # every star of this Q_l, no other
        for u, v in edges:
            assert cg.masks.get(u, 0) & (u ^ v)
        union |= {(min(u, v), max(u, v)) for u, v in edges}
    assert conder_cycles(n, ell) == Subgraph(n, masks=edge_pair_masks(union))


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
    for e in g.sorted_edges():
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


def test_construction_spec_refuses_parameters_its_kind_does_not_read():
    for kind, params in (("even-odd", {"n": 3, "j": 1, "complement": True}),
                         ("conder", {"n": 4, "k": 3, "m": 9}),
                         ("parity-q2", {"n": 4, "with_cycles": True}),
                         ("aks-appendix", {"n": 5, "k": 3, "i": 0})):
        assert set(params) - set(KINDS[kind].params)
        with pytest.raises(BadRange, match="does not read"):
            ConstructionSpec(kind, params)
    # qm-packing reads l only for the cycle it puts in each copy
    with pytest.raises(BadRange):
        ConstructionSpec("qm-packing", {"n": 4, "m": 2, "l": 2}).build()
    assert ConstructionSpec("qm-packing", {"n": 4, "m": 2}).build().edge_count == 16


#: small instances (n <= 6) of every kind, covering each branch of its claim
CLAIM_CASES = {
    "layer-complement": [{"n": 5, "k": k, "i": i} for k in (2, 3, 4) for i in range(k)],
    "aks": [{"n": 5, "k": k, "i": i, "j": j} for k in (2, 3, 4)
            for i in range((k + 1) // 2) for j in range((k + 2) // 2)],
    "aks-appendix": [{"n": 6, "k": k} for k in (3, 4, 5)],
    "parity-q2": [{"n": n} for n in (3, 4, 5, 6)],
    "conder": [{"n": n} for n in (3, 4, 5, 6)],
    "mod3-select": [{"n": 6, "l": 4}],
    "conder-cycles": [{"n": 6, "l": ell} for ell in (4, 5, 6)],
    "qm-packing": [{"n": 5, "m": 2}, {"n": 5, "m": 3},
                   {"n": 5, "m": 3, "with_cycles": True, "l": 3},
                   {"n": 6, "m": 3, "with_cycles": True, "l": 4},
                   {"n": 6, "m": 4, "with_cycles": True, "l": 5}],
    "layer-mod": [{"n": 5, "k": 3, "j": 1, "complement": True}, {"n": 5, "k": 2, "j": 0},
                  {"n": 5, "k": 2, "j": 1}, {"n": 5, "k": 3, "j": 0}],
    "even-odd": [{"n": 6, "j": 0}, {"n": 6, "j": 1}],
}


def _cycle_free(g, length):
    return is_pattern_free(g, parse_pattern(f"c{length}")).free


@pytest.mark.parametrize("kind", KINDS)
def test_every_claim_in_the_kinds_table_holds_on_small_instances(kind):
    """What a sidecar prints as `claimed_free_of` is true of the graph it describes."""
    for params in CLAIM_CASES[kind]:
        spec = ConstructionSpec(kind, params)
        claim, g = spec.claimed_free_of(), spec.build()
        if claim is None:
            continue
        if claim.startswith("every even cycle except c"):  # one 2l-cycle per Q_m copy
            kept, top = int(claim.rsplit("c", 1)[1]), 1 << params["m"]
            assert not _cycle_free(g, kept), (params, claim)
            assert all(_cycle_free(g, length) for length in range(4, top + 1, 2)
                       if length != kept), (params, claim)
        elif claim.startswith("every cycle longer than "):  # components are Q_m's
            longest = int(claim.rsplit(" ", 1)[1])
            assert longest == 1 << params["m"]
            assert all(_cycle_free(g, length)
                       for length in range(longest + 2, (1 << params["n"]) + 1, 2)), params
        else:
            assert is_pattern_free(g, parse_pattern(claim)).free, (params, claim)


def test_claim_cases_cover_every_kind_and_claim():
    assert CLAIM_CASES.keys() == KINDS.keys()
    claims = {ConstructionSpec(kind, params).claimed_free_of()
              for kind, cases in CLAIM_CASES.items() for params in cases}
    assert {"q2", "q3", "q4", "q5", "c4", "c6", None} <= claims


def test_each_kind_is_named_once_in_the_package():
    """The KINDS row is the one place a construction's name is written."""
    package = Path(__file__).resolve().parents[1] / "src" / "cubeturan"
    literals = Counter(node.value for path in package.rglob("*.py")
                       for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                       if isinstance(node, ast.Constant) and isinstance(node.value, str))
    assert {kind: literals[kind] for kind in KINDS} == dict.fromkeys(KINDS, 1)
