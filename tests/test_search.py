import math
from fractions import Fraction

import pytest
from helpers import density

from cubeturan.core import edge_endpoints, full_cube
from cubeturan.counting import ambient_count, count_in_subgraph
from cubeturan.errors import BadRange, BudgetExceeded, DimensionTooLarge
from cubeturan.patterns import Pattern, parse_pattern
from cubeturan._kernels import _cycles_py, bb_search_kernel
from cubeturan.search import exact_extremal, pattern_copies, search_instance
from cubeturan.verification import is_c2k_free, is_qk_free

try:
    from cubeturan._kernels import _cycles_c
except ImportError:
    _cycles_c = None

# every kernel module that imports: the pure twins and the compiled kernels
BB_BACKENDS = [_cycles_py] + ([_cycles_c] if _cycles_c else [])

# the full n=3 grid, frozen from the 2^12 whole-lattice scan
EX_Q3 = {
    ("e", "q2"): 9, ("e", "q3"): 11, ("e", "c4"): 9, ("e", "c6"): 9,
    ("q2", "q3"): 4, ("q2", "c4"): 0, ("q2", "c6"): 2,
    ("q3", "q2"): 0, ("q3", "c4"): 0, ("q3", "c6"): 0,
    ("c4", "q2"): 0, ("c4", "q3"): 4, ("c4", "c6"): 2,
    ("c6", "q2"): 3, ("c6", "q3"): 8, ("c6", "c4"): 3,
}


def test_paper_values_at_n3():
    r = exact_extremal(3, parse_pattern("e"), parse_pattern("c4"))
    assert r.value == 9
    r = exact_extremal(3, parse_pattern("c6"), parse_pattern("c4"))
    assert r.value == 3
    assert r.density == Fraction(3, 16)
    assert density(3, parse_pattern("c6"), parse_pattern("c4")) == Fraction(3, 16)


def test_trivial_cases():
    assert exact_extremal(2, parse_pattern("e"), parse_pattern("c4")).value == 3
    assert density(2, parse_pattern("c4"), parse_pattern("c6")) == 1
    assert density(3, parse_pattern("q2"), parse_pattern("c4")) == 0


@pytest.mark.parametrize("target,forbid", sorted(EX_Q3))
def test_grid_matches_whole_lattice_scan(target, forbid):
    t, f = parse_pattern(target), parse_pattern(forbid)
    bb = exact_extremal(3, t, f)
    assert bb.value == EX_Q3[target, forbid]
    ex = exact_extremal(3, t, f, method="exhaustive")
    assert ex.value == bb.value
    assert ex.method == "exhaustive" and bb.method == "branch-and-bound"


def test_witness_is_certified():
    r = exact_extremal(3, parse_pattern("c6"), parse_pattern("c4"))
    assert is_c2k_free(r.witness, 2).free
    assert count_in_subgraph(r.witness, parse_pattern("c6")) == 3
    r = exact_extremal(3, parse_pattern("e"), parse_pattern("q2"))
    assert is_qk_free(r.witness, 2).free
    assert r.witness.edge_count == 9


def test_c4_extremal_witness_structure():
    # the 9-edge optimum misses a perfect matching using all three directions
    r = exact_extremal(3, parse_pattern("e"), parse_pattern("c4"))
    missing = sorted(set(full_cube(3).sorted_edges()) - set(r.witness.sorted_edges()))
    assert len(missing) == 3
    assert {e.index("*") for e in missing} == {0, 1, 2}
    ends = [set() for _ in missing]
    for i, e in enumerate(missing):
        u = sum(1 << p for p, c in enumerate(e) if c == "1")
        ends[i] = {u, u | (1 << e.index("*"))}
    assert not (ends[0] & ends[1] or ends[0] & ends[2] or ends[1] & ends[2])


def test_validation():
    with pytest.raises(BadRange):
        exact_extremal(3, parse_pattern("e"), parse_pattern("e"))
    for n in (0, -1):  # refused as every verb refuses n < 1, not as too large
        with pytest.raises(BadRange, match="dimension must be positive"):
            exact_extremal(n, parse_pattern("e"), parse_pattern("c4"))
    with pytest.raises(DimensionTooLarge):
        exact_extremal(5, parse_pattern("e"), parse_pattern("c4"))
    with pytest.raises(DimensionTooLarge):
        exact_extremal(4, parse_pattern("e"), parse_pattern("c4"), method="exhaustive")
    with pytest.raises(BadRange):
        exact_extremal(2, parse_pattern("c6"), parse_pattern("c4"))  # no C_6 in Q_2


def test_nan_time_budget_is_refused_and_inf_is_no_limit():
    # monotonic() >= nan is never true, so a NaN budget would silently be no budget
    with pytest.raises(BadRange):
        exact_extremal(4, parse_pattern("e"), parse_pattern("c6"), budget_seconds=math.nan)
    assert exact_extremal(3, parse_pattern("e"), parse_pattern("c4"), budget_seconds=math.inf).value == 9


@pytest.mark.parametrize("budget", [{"budget_nodes": -1}, {"budget_seconds": -1.0},
                                    {"budget_seconds": -math.inf}])
def test_negative_budgets_are_refused(budget):
    # an input error, not a budget that stops at the root with the trivial bounds
    with pytest.raises(BadRange, match="must be >= 0"):
        exact_extremal(3, parse_pattern("e"), parse_pattern("c4"), **budget)


def test_zero_budgets_stop_at_once():
    for budget in ({"budget_nodes": 0}, {"budget_seconds": 0.0}):
        with pytest.raises(BudgetExceeded):
            exact_extremal(4, parse_pattern("c8"), parse_pattern("c4"), **budget)


def test_budget_exceeded_carries_sane_bounds():
    with pytest.raises(BudgetExceeded) as info:
        exact_extremal(4, parse_pattern("e"), parse_pattern("c6"), budget_nodes=50)
    exc = info.value
    assert 0 <= exc.lower <= 21 <= exc.upper  # optimum is 21
    assert exc.nodes_explored == 51


def _budget_stop(bb, ne, tmasks, fmasks, budget_nodes, budget_seconds):
    with pytest.raises(BudgetExceeded) as info:
        bb(ne, tmasks, fmasks, budget_nodes, budget_seconds)
    exc = info.value
    return exc.lower, exc.upper, exc.nodes_explored


@pytest.mark.parametrize("kernels", BB_BACKENDS, ids=lambda m: m.__name__.rsplit(".", 1)[1])
def test_budget_stops_are_the_same_on_every_backend(kernels):
    bb = kernels.bb_search_kernel
    edges, tmasks, fmasks = search_instance(4, parse_pattern("e"), parse_pattern("c6"))
    # node budget + 1 is the node refused; the bounds are the pure twin's
    for budget, bounds in {10: (0, 32), 50: (19, 32), 1000: (20, 32)}.items():
        assert _budget_stop(bb, len(edges), tmasks, fmasks, budget, None) == (*bounds, budget + 1)
    # the clock is read at the first node
    assert _budget_stop(bb, len(edges), tmasks, fmasks, None, 0)[2] == 1


def test_deterministic_results():
    a = exact_extremal(3, parse_pattern("e"), parse_pattern("c6"))
    b = exact_extremal(3, parse_pattern("e"), parse_pattern("c6"))
    assert a.value == b.value == 9
    assert a.witness.sorted_edges() == b.witness.sorted_edges()
    assert a.nodes_explored == b.nodes_explored


def q4_restart_with_reversed_order(target, forbid):
    """Independent restart: same instance, reversed edge order."""
    edges = full_cube(4).sorted_edges()[::-1]
    eidx = {edge_endpoints(e): i for i, e in enumerate(edges)}
    tmasks = [sum(1 << eidx[e] for e in c) for c in pattern_copies(4, target)]
    fmasks = [sum(1 << eidx[e] for e in c) for c in pattern_copies(4, forbid)]
    value, _, _ = bb_search_kernel(len(edges), tmasks, fmasks, None, None)
    return value


@pytest.mark.parametrize("target,forbid,expected", [
    ("e", "c4", 24),
    ("c6", "c4", 24),
    ("q2", "q3", 15),
])
def test_q4_solver_agrees_with_reordered_restart(target, forbid, expected):
    t, f = parse_pattern(target), parse_pattern(forbid)
    r = exact_extremal(4, t, f)
    assert r.value == expected
    assert q4_restart_with_reversed_order(t, f) == expected


def test_same_number_of_copies_bound_q3():
    # every edge of Q_n lies in the same number of pattern copies, so the
    # density of any target is at most the edge density for the same obstacle
    edge_density = {
        f: Fraction(EX_Q3["e", f], 12) for f in ("q2", "q3", "c4", "c6")
    }
    for (t, f), value in EX_Q3.items():
        if t == "e":
            continue
        d = density(3, parse_pattern(t), parse_pattern(f))
        assert d <= edge_density[f], (t, f)


def test_density_non_increasing_in_dimension_for_subcube_targets():
    cases = [
        ("e", "q2"), ("e", "q3"), ("e", "c4"), ("e", "c6"),
        ("q2", "q3"), ("q2", "c6"), ("q2", "c4"),
    ]
    for t, f in cases:
        tp, fp = parse_pattern(t), parse_pattern(f)
        lower_dims = []
        for n in (2, 3):
            try:
                lower_dims.append(density(n, tp, fp))
            except BadRange:
                lower_dims.append(None)  # pattern does not fit in Q_n
        if lower_dims[0] is not None:
            assert lower_dims[1] <= lower_dims[0], (t, f)
    # one dimension further for two fast instances
    assert density(4, parse_pattern("e"), parse_pattern("c4")) <= density(
        3, parse_pattern("e"), parse_pattern("c4"))
    assert density(4, parse_pattern("q2"), parse_pattern("q3")) <= density(
        3, parse_pattern("q2"), parse_pattern("q3"))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pattern_copies_match_closed_form_and_cover_edges_evenly(n):
    edges = {edge_endpoints(e) for e in full_cube(n).sorted_edges()}
    for text in ("e", "q1", "q2", "q3", "q4", "c4", "c6", "c8"):
        p = parse_pattern(text)
        copies = pattern_copies(n, p)
        assert len(copies) == len(set(copies)) == ambient_count(n, p), (n, text)
        size = {"edge": 1, "subcube": p.order << (p.order - 1), "cycle": p.order}[p.kind]
        assert all(len(c) == size and c <= edges for c in copies), (n, text)
        # Q_n is edge-transitive: every edge lies in equally many copies
        per_edge = {e: 0 for e in edges}
        for c in copies:
            for e in c:
                per_edge[e] += 1
        assert len(set(per_edge.values())) == 1, (n, text)
