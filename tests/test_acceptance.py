"""Acceptance suite: one test per criterion, exact tolerances, with a printed
pass/fail line each (run `pytest -s tests/test_acceptance.py` to watch them).
"""

import itertools
import json
import math
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from helpers import (
    brute_z_kl,
    closed_walk_count,
    density,
    parity_q2_selection,
    random_automorphism,
    random_subgraph,
)

from cubeturan.constructions import (
    aks_appendix_graph,
    aks_graph,
    conder_graph,
    disjoint_qm_packing,
    even_odd_layers,
    layer_complement,
    layer_union_mod,
    mod3_ql_selection_count,
    parity_q2_packing,
)
from cubeturan.core import StarVector, Subgraph, apply_automorphism, full_cube
from cubeturan.counting import (
    ZTable,
    binomial_residue_sum,
    closed_count_c2l,
    closed_count_qk,
    count_copies_qk,
    count_cycles,
    z_kl,
)
from cubeturan.patterns import parse_pattern
from cubeturan.search import exact_extremal
from cubeturan.verification import (
    has_k_partite_representation,
    is_c2k_free,
    is_qk_free,
)
from cubeturan.zwords import enumerate_z_words, z_ll_via_words


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def test_criterion_1_formulas_vs_enumeration():
    with criterion(1, "counting formulas vs brute force"):
        for n in range(1, 7):
            for k in range(1, n + 1):
                assert count_copies_qk(full_cube(n), k) == closed_count_qk(n, k)
        table = ZTable()
        grid = [(n, ell) for n in range(2, 6) for ell in (2, 3, 4)
                if ell <= 1 << (n - 1)]
        grid += [(4, 5), (4, 6)]
        for n, ell in grid:
            assert count_cycles(full_cube(n), 2 * ell) == closed_count_c2l(n, ell, table), (n, ell)


def test_criterion_2_paper_constants():
    with criterion(2, "fixed small-cube constants"):
        assert count_cycles(full_cube(3), 6) == 16
        assert count_cycles(full_cube(3), 4) == 6
        assert z_kl(3, 3) == 16


def test_criterion_3_word_machinery():
    with criterion(3, "word-count formula for z_ll"):
        # |Z(l)| by the listing DFS and z_{l,l} by cycle enumeration: neither
        # counts canonical words, as z_ll_via_words does
        for ell in range(2, 6):
            zll = z_ll_via_words(ell)
            assert zll == brute_z_kl(ell, ell)
            assert zll * 4 * ell == len(enumerate_z_words(ell)) << ell
        for ell in range(2, 7):
            assert z_ll_via_words(ell) <= math.factorial(2 * ell) // (4 * ell)


def test_criterion_4_exact_extremal_values():
    with criterion(4, "exact extremal values at n=3"):
        e, c4, c6 = parse_pattern("e"), parse_pattern("c4"), parse_pattern("c6")
        r_edges = exact_extremal(3, e, c4)
        assert r_edges.value == 9
        r_cycles = exact_extremal(3, c6, c4)
        assert r_cycles.value == 3
        assert r_cycles.density == Fraction(3, 16)
        # witnesses are certified
        assert is_c2k_free(r_edges.witness, 2).free
        assert r_edges.witness.edge_count == 9
        assert is_c2k_free(r_cycles.witness, 2).free
        assert count_cycles(r_cycles.witness, 6) == 3
        # full 2^12 enumeration cross-check
        assert exact_extremal(3, e, c4, method="exhaustive").value == 9
        assert exact_extremal(3, c6, c4, method="exhaustive").value == 3


def test_criterion_5_construction_certification():
    with criterion(5, "construction certification"):
        for n in range(2, 9):
            assert is_c2k_free(conder_graph(n), 3).free, f"conder({n})"
        for n in range(3, 9):
            assert is_c2k_free(parity_q2_packing(n), 3).free, f"parity({n})"
        for k in (2, 3):
            lo, hi = (k + 1) // 2, (k + 2) // 2
            for i in range(lo):
                for j in range(hi):
                    for n in range(k, 8):
                        assert is_qk_free(aks_graph(n, k, i, j), k).free, (n, k, i, j)
        for k in (3, 4):
            for n in range(k, 8):
                assert is_qk_free(aks_appendix_graph(n, k), k).free, (n, k)
        for k in (2, 3):
            for n in range(k, 8):
                for i in range(k):
                    assert is_qk_free(layer_complement(n, k, i), k).free, (n, k, i)
        for k in (1, 2, 3):
            for n in range(max(k, 2), 8):
                for j in range(k):
                    g = layer_union_mod(n, k, j, complement=True)
                    assert is_qk_free(g, k).free, (n, k, j)
        for n in range(2, 10):
            for j in (0, 1):
                assert is_c2k_free(even_odd_layers(n, j), 2).free, (n, j)
        for m, ell in ((2, 2), (3, 3), (3, 4)):
            for n in range(m, 9):
                g = disjoint_qm_packing(n, m, with_cycles=True, ell=ell)
                for two_k in (4, 6, 8, 10, 12):
                    if two_k == 2 * ell:
                        continue
                    assert is_c2k_free(g, two_k // 2).free, (n, m, ell, two_k)


def test_criterion_6_cardinality_inequalities():
    with criterion(6, "finite-n cardinality inequalities"):
        for n in range(5, 15):
            assert len(parity_q2_selection(n)) >= Fraction(n, 2) * 2 ** (n - 4)
        assert mod3_ql_selection_count(16, 4) >= math.comb(16, 4) * 2 ** (16 - 14)
        table = ZTable()
        for n in range(3, 8):
            total = closed_count_c2l(n, 3, table)
            best = max(count_cycles(even_odd_layers(n, j), 6) for j in (0, 1))
            assert best >= Fraction(total, 32), n


def test_criterion_7_lemma_consistency():
    with criterion(7, "counting-lemma consistency"):
        patterns = ("q2", "q3", "c4", "c6")
        ex_edges = {f: exact_extremal(3, parse_pattern("e"), parse_pattern(f)).value
                    for f in patterns}
        assert ex_edges["c4"] == 9
        # every copy-transitive target obeys d(Q_3, T, H) <= ex(Q_3, e, H)/12
        for t in ("q2", "q3", "c4", "c6"):
            for f in patterns:
                if t == f:
                    continue
                d = density(3, parse_pattern(t), parse_pattern(f))
                assert d <= Fraction(ex_edges[f], 12), (t, f)
        assert density(3, parse_pattern("c6"), parse_pattern("c4")) == Fraction(3, 16)
        assert Fraction(3, 16) <= Fraction(9, 12)
        # subcube-target density never grows with the dimension
        consecutive = []
        for t, f in (("e", "c4"), ("e", "c6"), ("e", "q2"), ("e", "q3"),
                     ("q2", "c6"), ("q2", "q3"), ("q2", "c4")):
            tp, fp = parse_pattern(t), parse_pattern(f)
            d2 = density(2, tp, fp)
            d3 = density(3, tp, fp)
            assert d3 <= d2, (t, f)
            consecutive.append((t, f, d2, d3))
        assert density(4, parse_pattern("e"), parse_pattern("c4")) <= density(
            3, parse_pattern("e"), parse_pattern("c4"))
        assert density(4, parse_pattern("q2"), parse_pattern("q3")) <= density(
            3, parse_pattern("q2"), parse_pattern("q3"))


def test_criterion_8_property_suites():
    with criterion(8, "randomized property suites"):
        rng = random.Random(20240817)
        # automorphism invariance of counts, n <= 5
        for n in (3, 4, 5):
            for _ in range(6):
                g = random_subgraph(n, 0.7, rng)
                perm, flips = random_automorphism(n, rng)
                image = apply_automorphism(perm, flips, g)
                assert count_copies_qk(image, 2) == count_copies_qk(g, 2)
                assert count_cycles(image, 6) == count_cycles(g, 6)
        # edge-deletion monotonicity, n <= 4
        for n in (3, 4):
            for _ in range(8):
                g = random_subgraph(n, 0.85, rng)
                if not g.edge_count:
                    continue
                keys = g.sorted_edges()
                smaller = Subgraph(n, set(keys) - {rng.choice(keys)})
                assert count_copies_qk(smaller, 2) <= count_copies_qk(g, 2)
                assert count_cycles(smaller, 4) <= count_cycles(g, 4)
                assert count_cycles(smaller, 6) <= count_cycles(g, 6)
        # walk-counting oracle, n <= 4, l <= 4
        for n in (3, 4):
            for ell in (2, 3, 4):
                g = full_cube(n)
                assert 4 * ell * count_cycles(g, 2 * ell) == closed_walk_count(g, 2 * ell)
        for _ in range(6):
            g = random_subgraph(4, 0.7, rng)
            for ell in (2, 3):
                assert 4 * ell * count_cycles(g, 2 * ell) == closed_walk_count(g, 2 * ell)
        # residue binomial sums stay within 1 of 2^m/3
        for m in range(41):
            for a in range(3):
                assert abs(Fraction(binomial_residue_sum(m, 3, a)) - Fraction(2 ** m, 3)) <= 1
        # partite-representation checker vs exhaustive sigma search, l <= 8
        for _ in range(40):
            ell = rng.randrange(2, 9)
            k = rng.randrange(2, 4)
            edges = []
            for _ in range(rng.randrange(1, 4)):
                nonzero = rng.sample(range(ell), min(k, ell))
                star = rng.choice(nonzero)
                cells = "".join("*" if i == star else ("1" if i in nonzero else "0")
                                for i in range(ell))
                edges.append(StarVector(ell, cells))
            graph = Subgraph(ell, [sv.cells for sv in edges])
            got = has_k_partite_representation(graph, k) is not None
            supports = [tuple(i for i, c in enumerate(sv.cells) if c != "0")
                        for sv in edges]
            want = all(len(s) == k for s in supports) and any(
                all(len({sigma[p] for p in s}) == k for s in supports)
                for sigma in itertools.product(range(k), repeat=ell)
            )
            assert got == want


def _run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "cubeturan", *args],
                          capture_output=True, text=True)
    return proc


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI determinism across runs and thread counts"):
        src = tmp_path / "conder5.cube"
        first = _run_cli("construct", "conder", "--n", "5", "--out", str(src))
        assert first.returncode == 0
        commands = [
            ("count", "--n", "5", "--pattern", "c6", "--input", str(src)),
            ("count", "--n", "4", "--pattern", "q2"),
            ("zl", "--l", "4"),
            ("zwords", "--l", "3", "--count-only"),
            ("verify", "--forbid", "c6", str(src)),
            ("density", "--n", "3", "--target", "c6", "--forbid", "c4"),
            ("bounds", "--theorem", "t6", "--exact", "3/16"),
            ("kpartite", "--k", "2", str(src)),
        ]
        for cmd in commands:
            outputs = set()
            for threads in ("1", "8"):
                for _ in range(2):
                    proc = _run_cli(*cmd, "--threads", threads)
                    assert proc.returncode in (0, 1), (cmd, proc.stderr)
                    outputs.add(proc.stdout)
            assert len(outputs) == 1, cmd
        # search twice with both thread counts: identical JSON and witness file
        blobs, witnesses = set(), set()
        for threads in ("1", "8"):
            for run in range(2):
                w = tmp_path / f"w-{threads}-{run}.cube"
                proc = _run_cli("search", "--n", "3", "--target", "e",
                                "--forbid", "c4", "--threads", threads,
                                "--witness-out", str(w))
                assert proc.returncode == 0
                blobs.add(proc.stdout)
                witnesses.add(w.read_bytes())
        assert len(blobs) == 1 and len(witnesses) == 1
        # construction files are byte-identical run to run
        again = tmp_path / "conder5b.cube"
        second = _run_cli("construct", "conder", "--n", "5", "--out", str(again))
        assert second.returncode == 0
        assert src.read_bytes() == again.read_bytes()
        assert first.stdout == second.stdout
