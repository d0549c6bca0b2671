import math
from fractions import Fraction

import pytest

from cubeturan.bounds import (
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
