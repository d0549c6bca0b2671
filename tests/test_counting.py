import concurrent.futures
import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction

import pytest
from helpers import brute_cycle_edge_sets, closed_walk_count, random_automorphism, random_subgraph

from cubeturan import __version__, counting
from cubeturan.cli import main
from cubeturan.core import Subgraph, apply_automorphism, full_cube
from cubeturan.counting import (
    CountReport,
    CycleWitness,
    ZTable,
    binomial_residue_sum,
    closed_count_c2l,
    closed_count_qk,
    count_copies_qk,
    count_cycles,
    count_report,
    enumerate_cycle_witnesses,
    find_cycle,
    z_kl,
)
from cubeturan.errors import BadLength, BadRange, EnumerationTooLarge
from cubeturan.patterns import parse_pattern

# values frozen from the brute-force oracles (closed-walk and edge-set dedup)
Z_TABLE = {
    (2, 2): 1, (3, 3): 16, (3, 4): 6,
    (4, 4): 648, (4, 5): 2112, (4, 6): 5024,
    (5, 5): 47616, (5, 6): 540960,
}
CYCLE_COUNTS = {
    (2, 4): 1,
    (3, 4): 6, (3, 6): 16, (3, 8): 6,
    (4, 4): 24, (4, 6): 128, (4, 8): 696, (4, 10): 2112, (4, 12): 5024,
    (5, 4): 80, (5, 6): 640, (5, 8): 6720,
}


def test_closed_count_qk_values():
    assert closed_count_qk(3, 2) == 6
    assert closed_count_qk(5, 3) == 40
    for n in range(1, 9):
        assert closed_count_qk(n, n) == 1
        assert closed_count_qk(n, 0) == 2 ** n
    with pytest.raises(BadRange):
        closed_count_qk(3, 4)


def test_closed_count_c2l_values():
    assert closed_count_c2l(3, 3, {(3, 3): 16}) == 16
    for n in range(3, 10):
        assert closed_count_c2l(n, 2, {(2, 2): 1}) == n * (n - 1) * 2 ** (n - 3)
    assert closed_count_c2l(4, 3, {(3, 3): 16}) == 128
    assert closed_count_c2l(5, 3) == CYCLE_COUNTS[5, 6]  # z from a fresh ZTable
    with pytest.raises(BadRange):
        closed_count_c2l(2, 3, {})  # a C_6 does not fit in Q_2


def test_z_kl_values():
    assert z_kl(3, 3) == 16
    assert z_kl(3, 2) == 0
    assert z_kl(2, 2) == 1
    for (k, ell), v in Z_TABLE.items():
        assert z_kl(k, ell) == v


def test_z_kl_vanishing_range():
    for k in range(1, 6):
        for ell in range(2, 7):
            expected_zero = k > ell or k < (2 * ell - 1).bit_length()
            assert (z_kl(k, ell) == 0) == (expected_zero or Z_TABLE.get((k, ell), 0) == 0)
            if expected_zero:
                assert z_kl(k, ell) == 0
    with pytest.raises(BadRange):
        z_kl(0, 2)
    with pytest.raises(EnumerationTooLarge):
        z_kl(13, 13)


def test_count_cycles_frozen_values():
    for (n, length), expected in CYCLE_COUNTS.items():
        assert count_cycles(full_cube(n), length) == expected


def test_count_cycles_validation():
    with pytest.raises(BadLength):
        count_cycles(full_cube(3), 5)
    with pytest.raises(BadLength):
        count_cycles(full_cube(3), 2)
    with pytest.raises(EnumerationTooLarge):
        count_cycles(Subgraph(13, frozenset()), 4)
    assert count_cycles(full_cube(2), 8) == 0  # longer than the vertex count


def test_count_cycles_threads_do_not_change_totals():
    g = full_cube(4)
    for length in (4, 6, 8):
        base = count_cycles(g, length, threads=1)
        assert count_cycles(g, length, threads=4) == base


def test_count_cycles_starts_at_most_cpu_count_threads(monkeypatch):
    started = []

    class Spy(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    assert count_cycles(full_cube(3), 4, threads=64) == 6
    assert started == [2]


def test_count_cycles_submits_at_most_one_class_per_start_vertex(monkeypatch):
    # Executor.map submits every task up front, so the class count must not
    # grow with `threads` past the 2^n start vertices
    submitted = []

    class Spy(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    assert count_cycles(full_cube(3), 4, threads=10**9) == 6
    assert len(submitted) == 8


def test_count_copies_qk():
    for n in range(1, 6):
        for k in range(0, n + 1):
            assert count_copies_qk(full_cube(n), k) == closed_count_qk(n, k)
    assert count_copies_qk(Subgraph(3, frozenset()), 1) == 0
    g = full_cube(3)
    minus_one = Subgraph(3, g.sorted_edges()[1:])
    assert count_copies_qk(minus_one, 2) == 4


def test_formula_vs_enumeration_grid():
    table = ZTable()
    for n in range(2, 5):
        for ell in range(2, 5):
            if ell > 2 ** (n - 1):
                continue
            assert count_cycles(full_cube(n), 2 * ell) == closed_count_c2l(n, ell, table)


def test_walk_oracle_on_full_cubes():
    for n in range(2, 5):
        for ell in range(2, 5):
            if 2 * ell > 2 ** n:
                continue
            g = full_cube(n)
            assert 4 * ell * count_cycles(g, 2 * ell) == closed_walk_count(g, 2 * ell)


def test_walk_oracle_on_random_subgraphs():
    rng = random.Random(2024)
    for _ in range(12):
        g = random_subgraph(4, 0.7, rng)
        for ell in (2, 3):
            assert 4 * ell * count_cycles(g, 2 * ell) == closed_walk_count(g, 2 * ell)


def test_monotone_under_edge_deletion():
    rng = random.Random(99)
    for _ in range(10):
        g = random_subgraph(4, 0.8, rng)
        if not g.edge_count:
            continue
        keys = g.sorted_edges()
        smaller = Subgraph(4, set(keys) - {rng.choice(keys)})
        for ell in (2, 3):
            assert count_copies_qk(smaller, ell) <= count_copies_qk(g, ell)
            assert count_cycles(smaller, 2 * ell) <= count_cycles(g, 2 * ell)


def test_automorphism_invariance_of_counts():
    rng = random.Random(4242)
    for n in (3, 4):
        for _ in range(8):
            g = random_subgraph(n, 0.7, rng)
            perm, flips = random_automorphism(n, rng)
            image = apply_automorphism(perm, flips, g)
            assert count_copies_qk(image, 2) == count_copies_qk(g, 2)
            assert count_cycles(image, 6) == count_cycles(g, 6)


def test_binomial_residue_sum():
    assert binomial_residue_sum(4, 3, 1) == math.comb(4, 1) + math.comb(4, 4) == 5
    for m in range(0, 12):
        assert binomial_residue_sum(m, 1, 0) == 2 ** m
    for m in range(0, 41):
        for a in range(3):
            diff = Fraction(binomial_residue_sum(m, 3, a)) - Fraction(2 ** m, 3)
            assert abs(diff) <= 1
    with pytest.raises(BadRange):
        binomial_residue_sum(4, 3, 3)
    with pytest.raises(BadRange):
        binomial_residue_sum(-1, 3, 0)


def test_cycle_witness_canonicalization():
    square = [0, 1, 3, 2]
    orders = set()
    for shift in range(4):
        rotated = square[shift:] + square[:shift]
        orders |= {tuple(rotated), tuple(rotated[::-1])}
    assert len(orders) == 8
    for seq in orders - {(0, 1, 3, 2)}:  # of the 8 orders only the canonical one is taken
        with pytest.raises(BadRange):
            CycleWitness(2, seq)
    w = CycleWitness(2, (0, 1, 3, 2))
    assert w.edge_pairs() == [(0, 1), (1, 3), (2, 3), (0, 2)]
    assert w.to_json_dict() == {"type": "cycle", "length": 4, "vertices": [0, 1, 3, 2]}
    assert str(w) == "0 1 3 2"
    with pytest.raises(BadRange):
        CycleWitness(2, (0, 2, 3, 1))  # not canonical (second > last)
    with pytest.raises(BadRange):
        CycleWitness(2, (0, 1, 3, 3))
    with pytest.raises(BadLength):
        CycleWitness(2, (0, 1, 3))


def test_star_list_has_even_multiplicities():
    for w in enumerate_cycle_witnesses(full_cube(3), 6):
        stars = [u ^ v for u, v in w.edge_pairs()]
        for bit in set(stars):
            assert stars.count(bit) % 2 == 0


def test_enumerate_matches_count_and_find():
    g = full_cube(3)
    for length in (4, 6, 8):
        witnesses = enumerate_cycle_witnesses(g, length)
        assert len(witnesses) == count_cycles(g, length)
        assert len(set(witnesses)) == len(witnesses)
        first, _ = find_cycle(g, length)
        assert first == min(witnesses, key=lambda w: w.vertices)
    empty, nodes = find_cycle(Subgraph(3, frozenset()), 4)
    assert empty is None and nodes == 0


@pytest.mark.parametrize("g", [full_cube(3), random_subgraph(5, 0.7, random.Random(5))],
                         ids=["Q3", "random-Q5"])
def test_enumerated_witnesses_match_brute_edge_sets(g):
    # the package's count and its witness list share one DFS under CUBETURAN_PURE=1,
    # so the witnesses are also checked against an oracle that shares none of it
    for length in (4, 6, 8):
        got = {frozenset(frozenset(e) for e in w.edge_pairs())
               for w in enumerate_cycle_witnesses(g, length)}
        assert got == brute_cycle_edge_sets(g, length)


def test_ztable_cache_round_trip(tmp_path):
    path = tmp_path / "z.cache"
    table = ZTable(path)
    assert table.get(3, 3) == 16
    assert table.get(2, 2) == 1
    text = path.read_text()
    assert "z 3 3 16" in text and text.startswith("# cubeturan-ztable")
    again = ZTable(path)
    assert (3, 3) in again
    assert again.get(3, 3) == 16


def test_ztable_discards_stale_version(tmp_path):
    path = tmp_path / "z.cache"
    path.write_text("# cubeturan-ztable 0.0.0-old\nz 3 3 999\n")
    table = ZTable(path)
    assert (3, 3) not in table
    assert table.get(3, 3) == 16  # recomputed, not the poisoned value


# then four keys z never stores: z_{5,4} = 0 (k > l), k = 0, l = 1, a zero;
# last a value past int()'s 4300 digits
@pytest.mark.parametrize("bad_line", ["z 4 4", "z 3 3 16 7", "y 3 3 16", "z 3 x 16",
                                      "z 5 4 7", "z 0 4 5", "z 1 1 3", "z 4 4 0",
                                      pytest.param("z 2 2 " + "1" * 5000, id="z 2 2 <5000 ones>")])
def test_ztable_discards_malformed_cache(tmp_path, bad_line):
    path = tmp_path / "z.cache"
    path.write_text(f"# cubeturan-ztable {__version__}\nz 2 2 1\nz 3 3 999\n{bad_line}\n")
    table = ZTable(path)
    assert (3, 3) not in table and (2, 2) not in table  # nothing of a corrupt file is trusted
    assert table.get(3, 3) == 16
    assert path.read_text() == f"# cubeturan-ztable {__version__}\nz 3 3 16\n"


def test_cli_recovers_from_truncated_z_cache(tmp_path):
    path = tmp_path / "z.cache"
    path.write_text(f"# cubeturan-ztable {__version__}\nz 4 4\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["zl", "--l", "4", "--z-cache", str(path)]) == 0
    assert json.loads(out.getvalue())["value"] == "648"
    assert "z 4 4 648" in path.read_text()


def test_cli_recovers_from_undecodable_z_cache(tmp_path):
    path = tmp_path / "z.cache"
    path.write_bytes(b"\xff\xfe not a z-table\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["zl", "--l", "4", "--z-cache", str(path)]) == 0
    assert json.loads(out.getvalue())["value"] == "648"
    assert path.read_text() == f"# cubeturan-ztable {__version__}\nz 4 4 648\n"


def test_ztable_failed_write_keeps_old_cache(tmp_path, monkeypatch):
    path = tmp_path / "z.cache"
    ZTable(path).get(3, 3)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        ZTable(path).get(2, 2)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["z.cache"]  # no temp file left behind


def test_count_report_json():
    rep = count_report(3, parse_pattern("c6"))
    assert rep.count == 16 and rep.method == "closed-form"
    blob = rep.to_json_dict()
    assert blob["count"] == "16"
    assert blob["density"] == {"num": "1", "den": "1"}
    g = full_cube(3)
    sub = Subgraph(3, g.sorted_edges()[:9])
    rep = count_report(3, parse_pattern("e"), g=sub)
    assert rep.count == 9 and rep.ambient_total == 12
    assert rep.density == Fraction(3, 4)
    assert rep.method == "enumeration"


def test_count_report_closed_form_has_no_dimension_cap():
    rep = count_report(40, parse_pattern("q3"))
    assert rep.count == math.comb(40, 3) * 2 ** 37


def test_q2_and_c4_count_the_same_objects():
    # distinct pattern names, identical counts: every 4-cycle is a subsquare
    for n in range(2, 9):
        assert (count_report(n, parse_pattern("q2")).count
                == count_report(n, parse_pattern("c4")).count
                == n * (n - 1) * 2 ** (n - 3))


def test_ztable_get_validates_before_the_zero_range(tmp_path):
    path = tmp_path / "z.cache"
    table = ZTable(path)
    for k, ell in ((0, 0), (-3, 2), (0, 2), (2, 1), (5, 1)):
        with pytest.raises(BadRange):
            table.get(k, ell)
    assert (0, 0) not in table and not path.exists()
    assert table.get(5, 4) == 0 and table.get(2, 4) == 0  # valid but vanishing
    assert table.get(3, 300) == 0  # vanishing beyond the word count's refusal
    assert not path.exists()  # zeros stay out of the file
