import itertools
import json
import math
from fractions import Fraction

import pytest

from cubeturan import cli
from cubeturan.bounds import (
    CATALOG,
    BoundValue,
    bound_sandwich_report,
    eval_bound,
    t1_lower_branches,
)
from cubeturan.constructions import parity_q2_packing
from cubeturan.core import MAX_CLOSED_FORM_N
from cubeturan.counting import ZTable, closed_count_qk, count_copies_qk
from cubeturan.errors import BadRange, BadTheoremId, DimensionTooLarge, MissingParam


def test_t1_lower_examples():
    assert eval_bound("T1", "lower", {"l": 2, "k": 4}).value == Fraction(1, 2)
    bv = eval_bound("T1", "lower", {"l": 2, "k": 10})
    assert bv.value == Fraction(13, 15)
    assert bv.asymptotic


def test_t1_branch_crossover():
    # the second branch wins exactly when k > 2l^2/3 + 2l - 2/3
    for ell in range(2, 60):
        for k in range(ell + 1, 61):
            first, second = t1_lower_branches(ell, k)
            threshold = Fraction(2 * ell * ell, 3) + 2 * ell - Fraction(2, 3)
            assert (second > first) == (k > threshold), (ell, k)
            assert eval_bound("T1", "lower", {"l": ell, "k": k}).value == max(first, second)


def test_t1_upper_is_symbolic():
    bv = eval_bound("T1", "upper", {"l": 2, "k": 4})
    assert bv.value is None
    assert bv.unresolved == ("alpha",)
    blob = bv.to_json_dict()
    assert blob["value"] is None and blob["unresolved"] == ["alpha"]


def test_t2():
    assert eval_bound("T2", "lower", {"n": 8}).value == Fraction(1, 32)
    assert eval_bound("T2", "upper", {"n": 10}).value == Fraction("0.36578") / 10
    with pytest.raises(MissingParam):
        eval_bound("T2", "lower", {})
    with pytest.raises(BadRange):
        eval_bound("T2", "lower", {"n": 0})


def test_t3():
    z = {(4, 4): 648}
    bv = eval_bound("T3", "lower", {"l": 4}, z=z)
    assert bv.value == Fraction(1, 4 ** 5 * 648)
    assert bv.asymptotic
    assert eval_bound("T3", "upper", {"l": 4}).value == Fraction("0.36577")
    assert eval_bound("T3", "lower", {"l": 4}).value == bv.value  # z_{4,4} counted
    with pytest.raises(BadRange):
        eval_bound("T3", "lower", {"l": 3}, z=z)


def test_t4():
    # l >= log2(2k): the density is exactly zero
    assert eval_bound("T4", "lower", {"l": 3, "k": 4}).value == 0
    assert eval_bound("T4", "upper", {"l": 3, "k": 4}).value == 0
    assert eval_bound("T4", "lower", {"l": 10 ** 11, "k": 4}).value == 0  # 2^l never built
    # m = ceil(log2(8)) - 1 = 2
    bv = eval_bound("T4", "lower", {"l": 2, "k": 4, "n": 6})
    assert bv.value == Fraction(math.comb(2, 2), math.comb(6, 2))
    assert not bv.asymptotic
    up = eval_bound("T4", "upper", {"l": 2, "k": 4})
    assert up.value is None and up.unresolved == ("c_k",)
    with pytest.raises(BadRange):
        eval_bound("T4", "lower", {"l": 2, "k": 5, "n": 6})
    with pytest.raises(BadRange):
        eval_bound("T4", "lower", {"l": 2, "k": 4, "n": 1})  # C(n, l) = 0


def test_t5():
    z = {(4, 4): 648}
    bv = eval_bound("T5", "lower", {"l": 4, "k": 3}, z=z)
    first = (1 - Fraction(1, 3)) * Fraction(math.factorial(3), 2 * 648)
    second = 1 - Fraction(4, 3)
    assert bv.value == max(first, second) == first
    # large k: the layer branch dominates
    bv = eval_bound("T5", "lower", {"l": 4, "k": 100}, z=z)
    assert bv.value == 1 - Fraction(4, 100)
    assert eval_bound("T5", "upper", {"l": 4, "k": 3}).unresolved == ("alpha",)


def test_t6():
    lo = eval_bound("T6", "lower")
    hi = eval_bound("T6", "upper")
    assert lo.value == Fraction(1, 32)
    assert hi.value == Fraction(13, 80)
    assert lo.asymptotic and hi.asymptotic


def test_t7():
    z = ZTable()
    bv = eval_bound("T7", "lower", {"l": 4, "k": 6, "n": 10}, z=z)
    assert bv.value == Fraction(2 ** (4 - 3), math.comb(10, 4) * 648)
    with pytest.raises(BadRange):
        eval_bound("T7", "lower", {"l": 4, "k": 4, "n": 10}, z=z)
    with pytest.raises(BadRange):
        eval_bound("T7", "lower", {"l": 4, "k": 6, "n": 2}, z=z)  # C(n, l) = 0


def test_a6():
    bv = eval_bound("A6", "lower", {"l": 2, "k": 10})
    assert bv.value == 1 - Fraction(4 * math.comb(4, 3), 100 - 20)
    with pytest.raises(BadTheoremId):
        eval_bound("A6", "upper", {"l": 2, "k": 10})


@pytest.mark.parametrize("k", [3, 4, 5])
def test_a6_refuses_its_negative_range(k, capsys):
    # 1 - 16/(k^2 - 2k) is -13/3, -1 and -1/15 here: a density bound that says nothing
    with pytest.raises(BadRange, match=r"^A6 needs k\^2 - 2k >= 4\*C\(l\+2,3\), got l=2, k="):
        eval_bound("A6", "lower", {"l": 2, "k": k})
    assert cli.main(["bounds", "--theorem", "a6", "--l", "2", "--k", str(k)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err)["error"] == "BadRange"
    assert eval_bound("A6", "lower", {"l": 2, "k": 6}).value == Fraction(1, 3)


def test_a7_improves_t3_by_four_thirds_power():
    z = {(4, 4): 648, (5, 5): 47616}
    for ell in (4, 5):
        t3 = eval_bound("T3", "lower", {"l": ell}, z=z).value
        a7 = eval_bound("A7", "lower", {"l": ell}, z=z).value
        assert a7 == t3 * Fraction(4, 3) ** (ell + 1)
        assert a7 > t3


def test_unknown_ids():
    with pytest.raises(BadTheoremId):
        eval_bound("T9", "lower", {})
    with pytest.raises(BadRange):
        eval_bound("T1", "sideways", {"l": 2, "k": 4})


def test_k_past_the_closed_form_cap_is_refused_by_every_theorem():
    # k*(k+2) past str()'s 4300 digits would otherwise break the report
    k = MAX_CLOSED_FORM_N + 1
    for tid, params in (("T1", {"l": 2}), ("T4", {"l": 3}), ("T6", {}), ("A6", {"l": 2})):
        with pytest.raises(DimensionTooLarge, match=f"k={k}"):
            eval_bound(tid, "lower", {**params, "k": k})
    assert eval_bound("T1", "lower", {"l": 2, "k": MAX_CLOSED_FORM_N}).value is not None


def test_sandwich_report_refuses_an_unknown_theorem():
    with pytest.raises(BadTheoremId):
        bound_sandwich_report("T9", exact=Fraction(1, 2))


def test_sandwich_report_t6_at_n3():
    report = bound_sandwich_report("T6", exact=Fraction(3, 16))
    comparisons = {c["comparison"]: c for c in report["comparisons"]}
    lower = comparisons["lower <= exact"]
    upper = comparisons["exact <= upper"]
    assert lower["holds"] is True
    # 3/16 > 0.1625 is permitted at finite n because the bound is asymptotic
    assert upper["holds"] is False
    assert upper["advisory"] is True
    assert report["exact"] == {"num": "3", "den": "16"}


def test_sandwich_report_lists_symbolic_sides():
    report = bound_sandwich_report("T1", {"l": 2, "k": 4}, exact=Fraction(1, 2))
    assert any("symbolic" in note for note in report["notes"])
    report = bound_sandwich_report("A7", {"l": 4}, z={(4, 4): 648})
    assert any("no upper bound" in note for note in report["notes"])


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_parity_packing_meets_t2_lower_bound(n):
    g = parity_q2_packing(n)
    measured = Fraction(count_copies_qk(g, 2), closed_count_qk(n, 2))
    assert measured >= eval_bound("T2", "lower", {"n": n}).value


#: n, k and l over -1..6: every range of every row is refused somewhere here
PARAM_GRID = [dict(zip("nkl", values)) for values in itertools.product(range(-1, 7), repeat=3)]


@pytest.mark.parametrize("tid", sorted(CATALOG))
def test_each_range_of_a_row_refuses_with_its_id_and_condition(tid):
    row, z = CATALOG[tid], ZTable()
    conditions = {side: [text for text, _ in row.ranges + getattr(row, side).ranges]
                  for side in row.sides}
    refused = set()
    for side, params in itertools.product(row.sides, PARAM_GRID):
        try:
            eval_bound(tid, side, params, z=z)
        except BadRange as exc:
            named = [text for text in conditions[side]
                     if str(exc).startswith(f"{tid} needs {text}, got ")]
            assert len(named) == 1, str(exc)
            assert all(f"{name}={params[name]}" in str(exc) for name in row.needs), str(exc)
            refused.add(named[0])
    assert refused == {text for texts in conditions.values() for text in texts}


@pytest.mark.parametrize("tid", sorted(CATALOG))
def test_bounds_prints_exactly_the_sides_a_row_defines(tid, capsys):
    row = CATALOG[tid]
    argv = ["bounds", "--theorem", tid.lower(), "--n", "10", "--k", "11", "--l", "4"]
    assert cli.main(argv) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["theorem"] == tid
    assert [b["side"] for b in blob["bounds"]] == [
        side for side in ("lower", "upper") if getattr(row, side) is not None]
    assert all(b["value"] is not None or b["unresolved"] for b in blob["bounds"])
