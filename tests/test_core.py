import ast
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubeturan
from cubeturan.core import (
    MAX_WHOLE_CUBE_N,
    StarVector,
    Subgraph,
    apply_automorphism,
    compose_automorphisms,
    edge_endpoints,
    edge_layer,
    edge_pair,
    expand_edges,
    expand_vertices,
    format_cells,
    full_cube,
    load_subgraph,
    parse_cells,
    parse_star_vector,
    save_subgraph,
    subgraph_where,
    vertex_to_bits,
)
from cubeturan.errors import (
    BadChar,
    BadLength,
    BadRange,
    DimensionMismatch,
    DimensionTooLarge,
    DuplicateEdge,
    NoStars,
    ParseError,
)


def test_parse_basic():
    sv = parse_star_vector("01*10", 5)
    assert sv.k == 1
    assert sv.pair == (0b00100, 0b01010)  # star and base bits, position 0 lowest
    assert str(sv) == "01*10"


def test_parse_all_stars():
    assert parse_star_vector("***", 3).k == 3


def test_parse_errors():
    with pytest.raises(BadLength):
        parse_star_vector("0★10", 5)  # four characters, not five
    with pytest.raises(BadChar):
        parse_star_vector("0★10!", 5)
    with pytest.raises(BadLength):
        parse_star_vector("0101", 5)
    with pytest.raises(BadRange):
        StarVector(0, "")


def test_cells_round_trip_every_word_up_to_n6():
    for n in range(1, 7):
        for word in map("".join, itertools.product("01*", repeat=n)):
            stars, base = parse_cells(word, n)
            assert stars == sum(1 << i for i, c in enumerate(word) if c == "*")
            assert base == sum(1 << i for i, c in enumerate(word) if c == "1")
            assert format_cells(n, stars, base) == word


@pytest.mark.parametrize("call", [lambda: edge_endpoints("010"), lambda: edge_pair("010", 3),
                                  lambda: edge_layer("1**")])
def test_edge_helpers_refuse_words_that_are_not_edges(call):
    with pytest.raises(BadRange):
        call()


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cubeturan"

#: top-level names that only tests call today, each with the open item that gives it a caller
NO_CALLER_YET = {
    "compose_automorphisms": "orbital branching under Aut(Q_n) composes automorphisms "
                             "(ROADMAP item 2)",
    "mod3_ql_selection_count": "mod3-select lists the selected bases from its segment "
                               "counts instead of scanning Q_n (ROADMAP item 9)",
}


def test_every_top_level_name_has_a_caller_in_the_package():
    """A function, class or constant defined at the top of a module must be named
    by some other top-level statement of the package (an import, an export, a
    call, an attribute), not only by itself or by the tests."""
    def defined(stmt):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [stmt.name]
        targets = stmt.targets if isinstance(stmt, ast.Assign) else (
            [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]

    def named(stmt):
        out = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
        return out

    stmts = [(path, stmt) for path in sorted(PACKAGE.rglob("*.py"))
             for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    uses = [named(stmt) for _, stmt in stmts] + [set(cubeturan.__all__)]  # exports name theirs
    orphans = sorted(f"{path.relative_to(PACKAGE)}:{name}"
                     for i, (path, stmt) in enumerate(stmts) for name in defined(stmt)
                     if not any(name in used for j, used in enumerate(uses) if j != i))
    assert [o for o in orphans if o.split(":")[1] not in NO_CALLER_YET] == []
    # and every allowlisted name still exists and still lacks a caller
    assert sorted(o.split(":")[1] for o in orphans) == sorted(NO_CALLER_YET)


def test_every_public_method_has_a_caller_in_the_package():
    """A public method or property of a class defined in the package must be read
    as an attribute somewhere in the package outside its own body, not only by
    the tests."""
    from collections import Counter

    def read(node):
        return [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)]

    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py"))]
    reads = Counter(name for tree in trees for name in read(tree))
    orphans = sorted(f"{cls.name}.{fn.name}" for tree in trees for cls in tree.body
                     if isinstance(cls, ast.ClassDef) for fn in cls.body
                     if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                     and reads[fn.name] == read(fn).count(fn.name))
    assert orphans == []


def test_star_text_is_read_and_written_only_in_core():
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "core.py" and path.parent == PACKAGE:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            assert not (isinstance(node, ast.Constant) and node.value == "*"), path
            names = {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None) if isinstance(node, ast.alias) else None}
            assert "STAR" not in names, path


def test_expand_edges_small():
    got = {e.cells for e in expand_edges(StarVector(3, "0**"))}
    assert got == {"0*0", "0*1", "00*", "01*"}
    assert [e.cells for e in expand_edges(StarVector(1, "*"))] == ["*"]
    with pytest.raises(NoStars):
        expand_edges(StarVector(2, "01"))


def test_expand_edges_full_q3_matches_adjacency_oracle():
    # independent oracle: pair up all Hamming-distance-1 vertex pairs of Q_3
    expected = set()
    for u in range(8):
        for i in range(3):
            v = u | (1 << i)
            if v != u:
                key = "".join("*" if j == i else "01"[u >> j & 1] for j in range(3))
                expected.add(key)
    got = {e.cells for e in expand_edges(StarVector(3, "***"))}
    assert len(got) == 12
    assert got == expected


def test_expand_vertices():
    got = {vertex_to_bits(v, 4) for v in expand_vertices(StarVector(4, "1*0*"))}
    assert got == {"1000", "1001", "1100", "1101"}
    assert expand_vertices(StarVector(2, "00")) == [0]
    assert sorted(expand_vertices(StarVector(2, "**"))) == [0, 1, 2, 3]


@pytest.mark.parametrize("edge,layer", [("01*10", 2), ("*000", 0), ("111*", 3)])
def test_edge_layer(edge, layer):
    assert edge_layer(edge) == layer


def test_edge_endpoints():
    u, v = edge_endpoints("01*10")
    assert vertex_to_bits(u, 5) == "01010"
    assert vertex_to_bits(v, 5) == "01110"


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.data())
def test_expansion_counts(n, data):
    cells = "".join(data.draw(st.sampled_from("01*")) for _ in range(n))
    sv = StarVector(n, cells)
    k = sv.k
    vertices = expand_vertices(sv)
    assert len(set(vertices)) == 2 ** k
    if k:
        edges = expand_edges(sv)
        assert len({e.cells for e in edges}) == k * 2 ** (k - 1)
        vset = set(vertices)
        for e in edges:
            u, v = edge_endpoints(e)
            assert u in vset and v in vset


def test_layer_changes_by_one_under_single_flip():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(2, 7)
        cells = ["01"[rng.randrange(2)] for _ in range(n)]
        star = rng.randrange(n)
        cells[star] = "*"
        key = "".join(cells)
        flip_at = rng.choice([i for i in range(n) if i != star])
        flipped = list(cells)
        flipped[flip_at] = "0" if cells[flip_at] == "1" else "1"
        assert abs(edge_layer(key) - edge_layer("".join(flipped))) == 1


def test_automorphism_identity_and_swap():
    g = full_cube(3)
    assert apply_automorphism([0, 1, 2], 0, g) == g
    h = Subgraph(2, frozenset({"*0"}))
    assert apply_automorphism([1, 0], 0, h).sorted_edges() == ["0*"]


def test_automorphism_preserves_edge_count_and_inverts():
    rng = random.Random(11)
    g = full_cube(4)
    some = Subgraph(4, g.sorted_edges()[:9])
    for _ in range(25):
        perm = list(range(4))
        rng.shuffle(perm)
        flips = rng.randrange(16)
        image = apply_automorphism(perm, flips, some)
        assert image.edge_count == some.edge_count
        inv = [0] * 4
        for i, p in enumerate(perm):
            inv[p] = i
        inv_flips = sum(((flips >> perm[i]) & 1) << i for i in range(4))
        assert apply_automorphism(inv, inv_flips, image).sorted_edges() == some.sorted_edges()


def test_automorphism_preserves_layer_multiset_when_not_flipping():
    from collections import Counter

    rng = random.Random(23)
    g = Subgraph(4, full_cube(4).sorted_edges()[5:20])
    layers = Counter(edge_layer(e) for e in g.sorted_edges())
    for _ in range(10):
        perm = list(range(4))
        rng.shuffle(perm)
        image = apply_automorphism(perm, 0, g)
        assert Counter(edge_layer(e) for e in image.sorted_edges()) == layers


def test_automorphism_composition():
    rng = random.Random(13)
    base = Subgraph(4, full_cube(4).sorted_edges()[3:17])
    for _ in range(25):
        p1 = list(range(4)); rng.shuffle(p1)
        p2 = list(range(4)); rng.shuffle(p2)
        f1 = rng.randrange(16)
        f2 = rng.randrange(16)
        two_steps = apply_automorphism(p2, f2, apply_automorphism(p1, f1, base))
        perm, flips = compose_automorphisms(p2, f2, p1, f1)
        assert apply_automorphism(perm, flips, base).sorted_edges() == two_steps.sorted_edges()


def test_automorphism_validation():
    g = full_cube(2)
    with pytest.raises(DimensionMismatch):
        apply_automorphism([0, 1, 2], 0, g)
    with pytest.raises(DimensionMismatch):
        apply_automorphism([0, 0], 0, g)
    with pytest.raises(DimensionMismatch):
        apply_automorphism([0, 1], 1 << 5, g)


def test_save_load_round_trip(tmp_path):
    g = full_cube(3)
    path = tmp_path / "q3.cube"
    save_subgraph(g, path)
    again = load_subgraph(path)
    assert again == Subgraph(3, g.sorted_edges())
    assert again.edge_count == 12
    # saving is canonical: do it twice, bytes agree
    path2 = tmp_path / "q3b.cube"
    save_subgraph(again, path2)
    assert path2.read_bytes().replace(b"# Q_3\n", b"") == path.read_bytes().replace(b"# Q_3\n", b"")


def test_load_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.cube"
    path.write_text("cube v1 n=3\n0*0\n0*0\n")
    with pytest.raises(DuplicateEdge) as info:
        load_subgraph(path)
    assert info.value.line == 3


def test_load_rejects_bad_edge(tmp_path):
    path = tmp_path / "bad.cube"
    path.write_text("cube v1 n=5\n01*1\n")
    with pytest.raises(ParseError) as info:
        load_subgraph(path)
    assert info.value.line == 2
    path.write_text("not a header\n")
    with pytest.raises(ParseError):
        load_subgraph(path)
    path.write_bytes(b"cube v1 n=3\n\xff0*\n")
    with pytest.raises(ParseError):
        load_subgraph(path)


def test_load_ignores_comments_and_blanks(tmp_path):
    path = tmp_path / "c.cube"
    path.write_text("cube v1 n=2\n# comment\n\n*0\n")
    assert load_subgraph(path).sorted_edges() == ["*0"]


def test_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        full_cube(31)
    # the whole-cube builders stop lower, before allocating anything
    with pytest.raises(DimensionTooLarge):
        full_cube(MAX_WHOLE_CUBE_N + 1)
    with pytest.raises(DimensionTooLarge):
        subgraph_where(MAX_WHOLE_CUBE_N + 1, lambda v, p: True)


def test_subgraph_validates_edges():
    with pytest.raises(BadRange):
        Subgraph(3, frozenset({"000"}))
    with pytest.raises(BadLength):
        Subgraph(3, frozenset({"0*"}))
