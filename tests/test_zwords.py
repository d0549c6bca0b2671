import math

import pytest
from helpers import brute_z_kl, brute_z_words

from cubeturan.counting import z_kl
from cubeturan.errors import BadRange, EnumerationTooLarge, NonIntegralResult
from cubeturan.zwords import (
    _z_from_word_count,
    count_canonical_words,
    count_z_words,
    enumerate_z_words,
    iter_z_words,
    z_ll_via_words,
)


def test_z2_exact_set():
    assert set(enumerate_z_words(2)) == {(1, 2, 1, 2), (2, 1, 2, 1)}


def test_words_are_well_formed():
    for ell in (2, 3, 4):
        for w in iter_z_words(ell):
            assert len(w) == 2 * ell
            assert all(w.count(s) == 2 for s in range(1, ell + 1))


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_matches_naive_window_filter(ell):
    assert set(enumerate_z_words(ell)) == brute_z_words(ell)


def test_enumeration_is_lexicographic_and_duplicate_free():
    words = enumerate_z_words(4)
    assert words == sorted(set(words))


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_count_equals_enumeration(ell):
    assert count_z_words(ell) == len(enumerate_z_words(ell))


def test_z3_cross_check():
    # |Z(3)| * 2^3 / 12 must give the 16 six-cycles of Q_3
    assert count_z_words(3) * 8 // 12 == 16


def test_word_formula_matches_direct_enumeration():
    # the values brute_z_kl enumerates (test_z_kl_matches_cycle_enumeration)
    assert [z_ll_via_words(ell) for ell in (2, 3, 4, 5)] == [1, 16, 648, 47616]


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
def test_factorial_upper_bound(ell):
    value = z_ll_via_words(ell)
    assert value <= math.factorial(2 * ell) // (4 * ell)


def test_non_integral_division_is_an_error():
    with pytest.raises(NonIntegralResult):
        _z_from_word_count(1, 3, 3)  # 1 * 8 is not divisible by 12


def test_bad_range():
    with pytest.raises(BadRange):
        count_z_words(1)
    with pytest.raises(BadRange):
        z_ll_via_words(1)


ORACLE_CASES = [(k, ell) for ell in range(2, 6) for k in range(1, ell + 1)] + [(3, 6), (4, 6)]


@pytest.mark.parametrize("k, ell", ORACLE_CASES)
def test_z_kl_matches_cycle_enumeration(k, ell):
    # on the selected kernel here, and on both in the compiled and pure CI jobs
    assert z_kl(k, ell) == brute_z_kl(k, ell)


@pytest.mark.parametrize("k, ell, value", [
    (5, 6, 540960),
    (6, 6, 5433600),
    (6, 7, 147755520),
    (7, 7, 880865280),
    (4, 8, 1344),  # the Hamiltonian cycles of Q_4
])
def test_z_kl_pinned_values(k, ell, value):
    assert z_kl(k, ell) == value


@pytest.mark.parametrize("ell", [2, 3, 4, 5])  # listing Z(6) takes ~7 s on a 2-vCPU host
def test_z_kl_diagonal_equals_word_formula(ell):
    # z_{l,l} = |Z(l)| 2^l / 4l, each side from a route that counts no canonical
    # words: |Z(l)| from the listing DFS, z_{l,l} from cycle enumeration
    assert 4 * ell * brute_z_kl(ell, ell) == len(enumerate_z_words(ell)) << ell
    assert z_ll_via_words(ell) == z_kl(ell, ell) == brute_z_kl(ell, ell)


def test_canonical_word_count_vanishes_where_no_cycle_fits():
    # z_kl answers these without counting, so the count is checked directly
    assert count_canonical_words(3, 6) == 0  # 12 distinct masks do not fit in Q_3
    assert count_canonical_words(5, 4) == 0  # 5 symbols need at least 10 letters


def test_word_count_to_z_checks_divisibility_off_the_diagonal():
    assert _z_from_word_count(math.factorial(5) * 3381, 6, 5) == 540960
    with pytest.raises(NonIntegralResult):
        _z_from_word_count(1, 6, 5)  # 32 is not divisible by 24


def test_word_count_refuses_l_beyond_its_recursion_depth():
    with pytest.raises(EnumerationTooLarge):
        count_z_words(600)  # would otherwise recurse 1200 frames deep
    with pytest.raises(EnumerationTooLarge):
        z_kl(12, 600)
