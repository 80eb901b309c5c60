import itertools
import random
import re
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cayleyball import (
    BudgetExceededError,
    DistanceMatrix,
    all_pairs_distances,
    build_ball,
    cli,
    geodesics,
    interval,
    parse_group_spec,
    read_ball,
    write_ball,
)
from cayleyball import ball as ball_module
from cayleyball.ball import components, resolve_letters
from cayleyball.groups import GroupSpec
from oracles import (
    all_pairs_oracle,
    ball_bfs_oracle,
    bfs_distances,
    grid_bigon_oracle,
    monotone_lattice_paths,
    nx_graph,
    one_sided_hausdorff_l1,
)

ROW_CASES = [
    (text, r_in)
    for text in ("Z x Z", "Z6", "S4", "Z2 * Z3", "F(a,b)", "(Z2 * Z3) x Z")
    for r_in in (1, 2)
]


def test_tree_ball_sizes(make_pair):
    ball, _ = make_pair("F(a,b)", 1)
    assert ball.inner_count == 5  # identity + 4 generators
    assert ball.counts_per_radius[:2] == [1, 4]
    ball2, _ = make_pair("F(a,b)", 2)
    assert ball2.inner_count == 17  # 1 + 4 + 12 reduced words
    assert ball2.r_out == 6


@settings(max_examples=200)
@given(st.lists(st.integers(-5, 5), max_size=30), st.integers(1, 3))
def test_unique_matches_numpy(values, rows):
    x = np.array(values * rows, dtype=np.int64).reshape(rows, -1)
    assert np.array_equal(ball_module._unique(x), np.unique(x))


@settings(max_examples=200)
@given(data=st.data())
def test_row_classes_match_first_occurrence(data):
    # a small pool of rows, drawn from many times, so most rows repeat and
    # pool rows may differ in one column only
    dtype = np.dtype(data.draw(st.sampled_from([np.int8, np.int64])))
    info = np.iinfo(dtype)
    width = data.draw(st.integers(1, 4))
    value = st.one_of(st.integers(-3, 3), st.integers(int(info.min), int(info.max)))
    pool = data.draw(st.lists(st.lists(value, min_size=width, max_size=width), min_size=1, max_size=6))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60))
    rows = np.array([pool[i] for i in picks], dtype=dtype)
    first, cls = ball_module._row_classes(rows)
    seen = {}
    want = [seen.setdefault(tuple(row), len(seen)) for row in rows.tolist()]
    assert (np.diff(first) > 0).all()
    assert np.array_equal(cls[first], np.arange(len(first)))
    assert cls.tolist() == want
    assert first.tolist() == [want.index(c) for c in range(len(seen))]


def test_grid_ball_size(make_pair):
    ball, _ = make_pair("Z x Z", 1)
    assert ball.inner_count == 5


def test_distances_examples(make_pair):
    ball, dist = make_pair("F(a,b)", 2)
    a, b = ball.index_of_word("a"), ball.index_of_word("b")
    assert dist.d(a, b) == 2
    assert dist.d(a, a) == 0
    grid, gd = make_pair("Z x Z", 2)
    assert gd.d(grid.index_of_word("t1.t2"), grid.index_of_word("t1^-1")) == 3


def test_padding_exactness_against_reduced_length(make_pair):
    # in the free group the true distance is the reduced length of u^-1 v:
    # the summed absolute exponents of its syllables
    ball, dist = make_pair("F(a,b)", 2)
    spec = ball.spec
    for u in range(ball.inner_count):
        for v in range(ball.inner_count):
            w = spec.multiply(spec.invert(ball.elements[u]), ball.elements[v])
            assert dist.d(u, v) == sum(abs(k) for _, k in w)


@pytest.mark.parametrize(
    "r_in,generators", [(2, None), (3, None), (2, ["t1.t2", "t2^2", "t1^3.t2^-1"])]
)
def test_free_group_builds_the_ball_of_z_star_z(r_in, generators):
    # F(t1,t2) keys its prefix table one letter at a time, Z * Z one syllable
    # at a time; both are the free product of two infinite cyclic groups, so
    # the balls agree element for element, edge for edge and in their export
    free, star = (
        build_ball(parse_group_spec(text), r_in, generators=generators) for text in ("F(t1,t2)", "Z * Z")
    )
    assert free.elements == star.elements
    assert free.words() == star.words()
    assert np.array_equal(free.nbr, star.nbr)
    assert write_ball(free) == write_ball(star)


def test_matrix_against_networkx(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    oracle = all_pairs_oracle(ball)
    for u in range(ball.inner_count):
        for v in range(ball.inner_count):
            assert dist.d(u, v) == oracle[u][v]


def test_left_invariance(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    spec = ball.spec
    rng = random.Random(42)
    checked = 0
    while checked < 500:
        g, h = rng.randrange(ball.inner_count), rng.randrange(ball.inner_count)
        shifted = spec.multiply(spec.invert(ball.elements[g]), ball.elements[h])
        idx = ball.index.get(shifted)
        if idx is None or idx >= ball.inner_count:
            continue
        assert dist.d(g, h) == dist.d(0, idx)
        checked += 1


def test_metric_axioms_sampled(make_pair):
    ball, dist = make_pair("Z2 * Z3", 2)
    n = ball.inner_count
    D = dist.inner
    assert (np.diag(D) == 0).all()
    assert (D == D.T).all()
    rng = random.Random(7)
    for _ in range(500):
        u, v, w = (rng.randrange(n) for _ in range(3))
        assert D[u, v] <= D[u, w] + D[w, v]


def _draw_words(data, text):
    # None (the standard generators) or one to three random words over them
    if data.draw(st.booleans()):
        return None
    spec = parse_group_spec(text)
    token = st.sampled_from([f"{n}{e}" for n in spec.generator_names for e in ("", "^-1")])
    words = data.draw(st.lists(st.lists(token, min_size=1, max_size=2).map(".".join), min_size=1, max_size=3))
    assume(all(spec.parse_word(w) != spec.identity() for w in words))
    return words


@settings(max_examples=40)
@given(data=st.data())
def test_table_is_right_multiplication(data):
    # nbr[u, li] is the vertex of elements[u] * letters[li], -1 exactly outside
    text, r_in = data.draw(st.sampled_from(ROW_CASES))
    spec = parse_group_spec(text)
    ball = build_ball(spec, r_in, generators=_draw_words(data, text))
    assert ball.nbr.shape == (ball.n_vertices, len(ball.letters)) and ball.nbr.dtype == np.int32
    assert ball.index == {e: i for i, e in enumerate(ball.elements)}
    for u, row in enumerate(ball.nbr.tolist()):
        for letter, v in zip(ball.letters, row):
            assert v == ball.index.get(spec.multiply(ball.elements[u], letter.element), -1)


def test_letters_closed_under_inversion():
    spec = parse_group_spec("Z2 * Z3")
    letters = resolve_letters(spec)
    elements = {l.label: l.element for l in letters}
    assert len(letters) == 3  # t1 self-inverse, t2 and its inverse
    for letter in letters:
        assert spec.format_element(spec.invert(letter.element)) in elements


def test_duplicate_and_identity_generators():
    spec = parse_group_spec("Z x Z")
    letters = resolve_letters(spec, ["t1", "t1^-1", "t1"])
    assert len(letters) == 2
    with pytest.raises(ValueError):
        resolve_letters(spec, ["t1.t1^-1"])


def test_radius_beyond_int16_rejected_before_enumeration(monkeypatch):
    # 4 * r_in must fit int16: R8192 is refused before any sphere is built
    def unreachable(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(ball_module, "ElementCodes", unreachable)
    with pytest.raises(ValueError, match="8191"):
        build_ball(parse_group_spec("Z"), 8192)


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError) as err:
        build_ball(parse_group_spec("F(a,b)"), 3, budget=100)
    assert err.value.budget == 100
    assert err.value.vertices_found == 100
    assert err.value.radius_reached >= 1


@pytest.mark.parametrize("k", [2, 3])
def test_grid_extreme_bigon_hausdorff(make_pair, k):
    # the two extreme monotone geodesics (0,0) -> (k,k) are Hausdorff distance
    # k apart, pinned by brute force over all monotone lattice paths
    ball, dist = make_pair("Z x Z", k)
    via_x = [ball.index[(i, 0)] for i in range(k + 1)] + [ball.index[(k, j)] for j in range(1, k + 1)]
    via_y = [ball.index[(0, j)] for j in range(k + 1)] + [ball.index[(i, k)] for i in range(1, k + 1)]

    def one_sided(P, Q):  # on the clipped distance rows
        return max(min(dist.d(a, b) for b in Q) for a in P)

    assert max(one_sided(via_x, via_y), one_sided(via_y, via_x)) == k

    paths = monotone_lattice_paths((0, 0), (k, k))
    oracle = max(
        max(one_sided_hausdorff_l1(a, b), one_sided_hausdorff_l1(b, a))
        for a in paths
        for b in paths
    )
    assert oracle == k
    assert grid_bigon_oracle((0, 0), (k, k)) == k


def test_export_round_trip(make_pair):
    ball, dist = make_pair("Z2 * Z3", 1)
    text = write_ball(ball)
    loaded = read_ball(text, spec=ball.spec)
    assert write_ball(loaded) == text  # bit-exact
    assert loaded.n_vertices == ball.n_vertices
    assert loaded.inner_count == ball.inner_count
    d2 = all_pairs_distances(loaded)
    assert (d2.inner == dist.inner).all()


@pytest.mark.parametrize(
    "text,r_in,generators,order",
    [
        ("Z x Z", 2, None, 8),
        ("F(a,b)", 2, None, 8),
        ("(Z2 * Z3) x Z", 2, None, 4),
        ("Z2 * Z3", 3, None, 2),
        ("Z2 * Z3", 3, ["t1", "t2", "t1.t2"], 1),
        ("Z x Z x Z x Z", 1, None, ball_module._MAX_MAPS),  # of 384
    ],
)
def test_automorphisms_map_the_graph_onto_itself(text, r_in, generators, order):
    # each map, taken on the whole ball, fixes vertex 0, permutes the
    # vertices and maps networkx's edge set onto itself; the cached maps
    # are the first mid_count entries, the identity first
    ball = build_ball(parse_group_spec(text), r_in, generators=generators)
    full = ball_module._automorphisms(ball, ball.n_vertices)
    assert len(full) == order and (full[0] == np.arange(ball.n_vertices)).all()
    edges = {frozenset(e) for e in nx_graph(ball).edges}
    for phi in full.tolist():
        assert phi[0] == 0 and sorted(phi) == list(range(ball.n_vertices))
        assert {frozenset((phi[u], phi[v])) for u, v in edges} == edges
    assert ball.automorphisms().dtype == np.int32
    assert (ball.automorphisms() == full[:, : ball.mid_count]).all()


# a Z x Z R1 export, whose vertices reach distance 3, under a radius_out 1 header
_OUT_OF_RADIUS = write_ball(build_ball(parse_group_spec("Z x Z"), 1)).replace("radius_out 3", "radius_out 1", 1)


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "bad ball header"),
        ("vertices 2 radius_in 1 radius_out 1\n0 1\n1 a\n0 -1 a\n", None),
        ("vertices 2 radius_in 1 radius_out 1\n0 1\n1 a\n0 2 a\n", None),
        ("vertices 2 radius_in 1 radius_out 1\n0 1\n1 a\n0 1 a\n0 1 a\n1 0 a\n", None),
        ("vertices 2 radius_in 1 radius_out 1\n0 1\n1 a\n0 1 a\n", None),
        ("vertices 3 radius_in 1 radius_out 1\n0 1\n1 a\n2 b\n0 1 a\n0 2 a\n1 0 a\n2 0 a\n", None),
        # the path 0 - 2 - 1: dist0 = [0, 2, 1] would drop vertex 2 from the inner ball
        ("vertices 3 radius_in 1 radius_out 2\n0 1\n1 a^2\n2 a\n0 2 a\n2 0 a^-1\n2 1 a\n1 2 a^-1\n", None),
        ("vertices 2 radius_in -1 radius_out 1\n0 1\n1 a\n0 1 a\n1 0 a^-1\n", "radius_in must lie"),
        # build_ball refuses r_in > 8191: 4 * r_in must fit int16
        ("vertices 2 radius_in 9000 radius_out 1\n0 1\n1 a\n0 1 a\n1 0 a^-1\n", "radius_in must lie"),
        (_OUT_OF_RADIUS, "line 1 is"),
        ("vertices 1 radius_in 1 radius_out 3\n0 1\n", "no edge lines"),
        # vertex 2 has no edge, and the F(a,b) ball over a and a^-1 has 7
        # vertices: more than the text's 6 lines
        ("vertices 3 radius_in 1 radius_out 1\n0 1\n1 a\n2 a^2\n0 1 a\n1 0 a^-1\n", "outgrows the text"),
    ],
    ids=[
        "empty", "negative-endpoint", "endpoint-past-end", "repeated-edge", "one-way-edge",
        "two-edges-one-label", "not-breadth-first", "negative-radius-in", "radius-in-past-int16",
        "vertex-beyond-radius-out", "no-edges", "disconnected",
    ],
)
def test_import_rejects_malformed_text(text, match):
    # _OUT_OF_RADIUS is a Z x Z export; the other labels are F(a,b) words
    spec = parse_group_spec("Z x Z" if text is _OUT_OF_RADIUS else "F(a,b)")
    with pytest.raises(ValueError, match=match):
        read_ball(text, spec)


def test_import_rejects_words_naming_one_element():
    # the F(a,b) R1 export with vertex 2 renamed a.b.b^-1, vertex 1's element
    lines = write_ball(build_ball(parse_group_spec("F(a,b)"), 1)).splitlines()
    assert lines[2:4] == ["1 a", "2 a^-1"]
    lines[3] = "2 a.b.b^-1"
    with pytest.raises(ValueError, match=re.escape("line 4 is '2 a.b.b^-1'")):
        read_ball("\n".join(lines) + "\n", spec=parse_group_spec("F(a,b)"))


def test_import_rejects_swapped_words():
    # the Z x Z R2 export with the words of t1 and t2 swapped: each vertex
    # line still names a distinct element, but not the one its edges reach
    spec = parse_group_spec("Z x Z")
    ball = build_ball(spec, 2)
    lines = write_ball(ball).splitlines()
    for i in range(1, 1 + ball.n_vertices):
        lines[i] = re.sub(r"t([12])", lambda m: "t" + "21"[int(m[1]) - 1], lines[i])
    first = next(i for i in range(1, 1 + ball.n_vertices) if "t1" in lines[i] or "t2" in lines[i])
    with pytest.raises(ValueError, match=re.escape(f"line {first + 1} is {lines[first]!r}")):
        read_ball("\n".join(lines) + "\n", spec)


def test_import_of_a_huge_header_stays_small():
    # a 3-line text claiming a billion vertices at radius_in 8000: the
    # rebuild stops at the text's 3 lines
    text = "vertices 1000000000 radius_in 8000 radius_out 24000\n0 1\n0 1 t1\n"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="vertex budget 3 exceeded"):
            read_ball(text, parse_group_spec("Z x Z"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@settings(max_examples=40)
@given(data=st.data())
def test_export_round_trip_random(data):
    # text -> ball -> text is the identity, and the imported table and
    # inner distances are the built ball's
    text, r_in = data.draw(st.sampled_from(ROW_CASES + [("Z * Z4", 1), ("S3 * Z", 1), ("Z", 2)]))
    spec = parse_group_spec(text)
    ball = build_ball(spec, r_in, generators=_draw_words(data, text))
    exported = write_ball(ball)
    loaded = read_ball(exported, spec=spec)
    assert write_ball(loaded) == exported
    assert (loaded.nbr == ball.nbr).all() and (loaded.dist0 == ball.dist0).all()
    assert loaded.index == ball.index
    assert (all_pairs_distances(loaded).inner == all_pairs_distances(ball).inner).all()


def _least_labels(n, edges):
    """Each vertex's least component-mate, from networkx's components."""
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    labels = [0] * n
    for part in nx.connected_components(graph):
        for v in part:
            labels[v] = min(part)
    return labels


def _ruler_path(k):
    """The path through ``2**k`` vertices whose i-th vertex is numbered by
    the trailing zeros of i, most first: the local minima of each round's
    contracted path are every second one of its vertices, so min-label
    hooking needs k rounds."""
    def zeros(i):
        return k if i == 0 else (i & -i).bit_length() - 1

    ranked = sorted(range(2**k), key=lambda i: (-zeros(i), i))
    number = [0] * 2**k
    for rank, i in enumerate(ranked):
        number[i] = rank
    return list(zip(number, number[1:]))


@settings(max_examples=60)
@given(data=st.data())
def test_components_match_networkx(data):
    n = data.draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=60))
    if data.draw(st.booleans()):  # a ruler path, shifted, among the edges
        k = data.draw(st.integers(1, 5))
        n += 2**k
        edges += [(n - 2**k + a, n - 2**k + b) for a, b in _ruler_path(k)]
    a, b = (np.array([e[i] for e in edges], dtype=np.int64) for i in (0, 1))
    assert components(n, a, b).tolist() == _least_labels(n, edges)


def test_components_of_a_ruler_path():
    edges = _ruler_path(10)
    a, b = (np.array(c) for c in zip(*edges))
    assert components(2**10, a, b).tolist() == [0] * 2**10
    assert components(2**10, b, a).tolist() == [0] * 2**10


def _shuffled_export(ball, rng):
    """``write_ball`` text of the ball with its vertices renumbered at random
    within each sphere: still breadth-first, and the same graph and words,
    but not ``build_ball``'s numbering."""
    cuts = np.searchsorted(ball.dist0, np.arange(ball.r_out + 2))
    new = np.concatenate([rng.permutation(np.arange(lo, hi)) for lo, hi in zip(cuts, cuts[1:])])
    old = np.argsort(new)
    lines = [f"vertices {ball.n_vertices} radius_in {ball.r_in} radius_out {ball.r_out}"]
    lines += [f"{i} {ball.word(v)}" for i, v in enumerate(old.tolist())]
    us, lis = np.nonzero(ball.nbr >= 0)
    for u, v, li in zip(new[us].tolist(), new[ball.nbr[us, lis]].tolist(), lis.tolist()):
        lines.append(f"{u} {v} {ball.label(li)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=40)
@given(data=st.data())
def test_import_rejects_sphere_shuffled_exports(make_pair, data):
    # the rebuilt ball's export differs from a shuffled one, and the error
    # names the first line where they part
    atoms = st.sampled_from(["Z", "Z2", "Z3", "Z4", "S3"])
    text = f"{data.draw(atoms)} {data.draw(st.sampled_from(['x', '*']))} {data.draw(atoms)}"
    built, _ = make_pair(text, data.draw(st.integers(1, 2)))
    shuffled = _shuffled_export(built, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    lines = shuffled.splitlines()
    first = next((i for i, (a, b) in enumerate(zip(lines, write_ball(built).splitlines())) if a != b), None)
    assume(first is not None)
    with pytest.raises(ValueError, match=re.escape(f"line {first + 1} is {lines[first]!r}")):
        read_ball(shuffled, built.spec)


def test_custom_generating_set(make_pair):
    standard, _ = make_pair("Z x Z", 2)
    redundant, _ = make_pair("Z x Z", 2, generators=["t1", "t2", "t1.t2"])
    assert len(redundant.letters) == 6
    assert redundant.inner_count > standard.inner_count


@settings(max_examples=100)
@given(data=st.data())
def test_rows_match_clipped_bfs(make_pair, data):
    # any vertex's row, inner, mid or outer, is min(BFS distance, 2R + 1)
    text, r_in = data.draw(st.sampled_from(ROW_CASES))
    ball, _ = make_pair(text, r_in)
    u = data.draw(st.integers(0, ball.n_vertices - 1))
    dist = DistanceMatrix(ball)
    assert dist.clip == 2 * r_in + 1
    bfs = nx.single_source_shortest_path_length(nx_graph(ball), u)
    oracle = [min(bfs[w], dist.clip) for w in range(ball.n_vertices)]
    assert dist.row(u).tolist() == oracle
    assert dist.row(u).dtype == np.int16


@pytest.mark.parametrize("text,r_in", ROW_CASES)
def test_mid_block_rows_match_lazy_rows(make_pair, text, r_in):
    # the hull's rows cut at mid_count, built in bulk on a fresh store,
    # against a fresh store asked for one row at a time: the ball's last
    # vertex (off the hull) first, then the hull backwards; every row is
    # min(BFS distance, 2R + 1)
    ball, dist = make_pair(text, r_in)
    hull = geodesics.hull(dist).tolist()
    lazy = DistanceMatrix(ball)
    order = [ball.n_vertices - 1] + hull[::-1]
    rows = {u: lazy.row(u).copy() for u in order}
    for u in order:
        assert rows[u].tolist() == [min(d, lazy.clip) for d in bfs_distances(ball, u)]
    block = DistanceMatrix(ball).ensure_mid_rows(hull)
    assert block.shape == (len(hull), ball.mid_count) and block.dtype == np.int16
    assert (block == np.stack([rows[u][: ball.mid_count] for u in hull])).all()
    assert (lazy.ensure_mid_rows(hull) == block).all()


@settings(max_examples=30)
@given(data=st.data())
def test_rows_match_clipped_bfs_in_any_request_order(make_pair, data):
    # a fresh store asked for inner, hull and off-hull vertices in any
    # order, through rows (whole, on shared columns or on per-row columns)
    # and row: every row is min(BFS distance, 2R + 1), and afterwards the
    # hull's mid rows are those rows cut at mid_count
    text, r_in = data.draw(st.sampled_from(ROW_CASES))
    ball, _ = make_pair(text, r_in)
    dist = DistanceMatrix(ball)
    hull = geodesics.hull(dist).tolist()
    off = sorted(set(range(ball.n_vertices)) - set(hull))
    vertex = st.one_of(
        [st.integers(0, ball.inner_count - 1), st.sampled_from(hull)] + ([st.sampled_from(off)] if off else [])
    )
    column = st.integers(0, ball.n_vertices - 1)

    def clipped(u):
        return [min(d, dist.clip) for d in bfs_distances(ball, u)]

    for _ in range(data.draw(st.integers(1, 5))):
        vs = data.draw(st.lists(vertex, min_size=1, max_size=4))
        how = data.draw(st.sampled_from(["rows", "shared", "own", "row"]))
        if how == "rows":
            assert dist.rows(vs).tolist() == [clipped(u) for u in vs]
        elif how == "shared":
            cols = data.draw(st.lists(column, min_size=1, max_size=5))
            assert dist.rows(vs, cols).tolist() == [[clipped(u)[w] for w in cols] for u in vs]
        elif how == "own":
            cols = [data.draw(st.lists(column, min_size=3, max_size=3)) for _ in vs]
            got = dist.rows(vs, np.array(cols))
            assert got.tolist() == [[clipped(u)[w] for w in c] for u, c in zip(vs, cols)]
        else:
            for u in vs:
                assert dist.row(u).tolist() == clipped(u)
    block = dist.ensure_mid_rows(hull)
    assert block.dtype == np.int16
    assert block.tolist() == [clipped(u)[: ball.mid_count] for u in hull]


def _draw_generators(data, text):
    # the standard generators, or those plus one product of two of them
    names = list(parse_group_spec(text).generator_names)
    if len(names) < 2 or not data.draw(st.booleans()):
        return None
    first, second = data.draw(st.permutations(names))[:2]
    return names + [f"{first}.{second}"]


@settings(max_examples=40)
@given(data=st.data())
def test_hull_is_union_of_inner_intervals(make_pair, data):
    # inner-pair intervals and the hull, their union, against networkx BFS
    text, r_in = data.draw(st.sampled_from(ROW_CASES))
    ball, dist = make_pair(text, r_in, generators=_draw_generators(data, text))
    graph = nx_graph(ball)
    ni = ball.inner_count
    bfs = np.full((ni, ball.n_vertices), -1)
    for a in range(ni):
        for w, d in nx.single_source_shortest_path_length(graph, a).items():
            bfs[a, w] = d
    union = set()
    for a in range(ni):
        for b in range(ni):
            between = np.flatnonzero(bfs[a] + bfs[b] == bfs[a, b]).tolist()
            assert list(interval(dist, a, b)) == between
            union.update(between)
    hull = geodesics.hull(dist)
    assert hull.tolist() == sorted(union)
    assert all(ball.dist0[w] <= 2 * r_in for w in hull)


@settings(max_examples=60)
@given(data=st.data())
def test_interval_of_any_pair_matches_bfs(make_pair, data):
    # intervals of pairs outside the inner ball may leave the 2R ball
    text, r_in = data.draw(st.sampled_from(ROW_CASES))
    ball, dist = make_pair(text, r_in)
    graph = nx_graph(ball)
    u = data.draw(st.integers(0, ball.n_vertices - 1))
    from_u = nx.single_source_shortest_path_length(graph, u)
    v = data.draw(st.sampled_from([w for w, d in from_u.items() if d <= 2 * r_in]))
    from_v = nx.single_source_shortest_path_length(graph, v)
    between = [w for w in range(ball.n_vertices) if from_u[w] + from_v[w] == from_u[v]]
    assert list(interval(dist, u, v)) == between


@settings(max_examples=60)
@given(data=st.data())
def test_hull_rows_serve_row(make_pair, data):
    # once the hull's mid rows exist, row(u) of a hull vertex is
    # min(BFS distance, 2R + 1)
    text, r_in = data.draw(st.sampled_from(ROW_CASES))
    ball, dist = make_pair(text, r_in)
    hull = geodesics.hull(dist)
    dist.ensure_mid_rows(hull)
    u = int(hull[data.draw(st.integers(0, len(hull) - 1))])
    bfs = nx.single_source_shortest_path_length(nx_graph(ball), u)
    assert dist.row(u).tolist() == [min(bfs[w], dist.clip) for w in range(ball.n_vertices)]


@pytest.mark.parametrize(
    "read",
    [
        lambda dist: dist.row(-1),
        lambda dist: dist.rows([-2]),
        lambda dist: dist.d(-1, 0),
        lambda dist: dist.d(0, -1),
        lambda dist: dist.rows([0], [-1]),
        lambda dist: dist.rows([0, 1], np.array([[0, 1], [2, -1]])),
    ],
    ids=["row", "rows", "d", "d-column", "rows-columns", "rows-own-columns"],
)
def test_negative_vertex_raises(make_pair, read):
    # a negative index would wrap round to a real vertex's row or column
    ball, dist = make_pair("Z x Z", 2)
    with pytest.raises(IndexError):
        read(dist)


@settings(max_examples=40)
@given(data=st.data())
def test_clipped_rows_match_bfs(make_pair, data):
    # one sweep for a source list in any order, repeats allowed, mixing
    # inner, hull and off-hull vertices: every row is min(BFS, 2R + 1)
    atoms = st.sampled_from(["Z", "Z2", "Z3", "Z4", "S3"])
    text = f"{data.draw(atoms)} {data.draw(st.sampled_from(['x', '*']))} {data.draw(atoms)}"
    r_in = data.draw(st.integers(1, 2))
    generators = data.draw(st.sampled_from([_draw_generators, _draw_words]))(data, text)
    ball, dist = make_pair(text, r_in, generators=generators)
    hull = geodesics.hull(dist).tolist()
    off = sorted(set(range(ball.n_vertices)) - set(hull))
    vertex = st.one_of(
        [st.integers(0, ball.inner_count - 1), st.sampled_from(hull)] + ([st.sampled_from(off)] if off else [])
    )
    sources = data.draw(st.lists(vertex, max_size=8))
    rows = dist._clipped_rows(np.array(sources, dtype=np.int64))
    assert rows.dtype == np.int16 and rows.shape == (len(sources), ball.n_vertices)
    for s, row in zip(sources, rows.tolist()):
        assert row == [min(d, dist.clip) for d in bfs_distances(ball, s)]


def test_distance_rows_allocate_little_beyond_the_block():
    # the inner rows are swept on B(5R/2) and kept over B(2R): the traced
    # construction peak of Z2 * Z3 R9 read 29.7 MiB with the inner rows
    # swept and kept over the whole 3R ball, and 6.8 MiB this way
    ball = build_ball(parse_group_spec("Z2 * Z3"), 9)
    tracemalloc.start()
    try:
        dist = DistanceMatrix(ball)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist.inner_rows.shape == (ball.inner_count, ball.mid_count) and not len(dist.block)
    assert peak <= 12 * 2**20


@pytest.mark.parametrize("text,r_in,mib", [("F(a,b)", 3, 10.5), ("Z2 * Z3", 9, 12), ("(Z2 * Z3) x Z", 6, 5)])
def test_build_memory_peak_is_bounded(text, r_in, mib):
    # one id column per free-group or free-product element keeps the build's
    # own peak below these bounds; codes with a slot per syllable peaked at
    # 10.9 and 21.6 MiB.  The two-column codes of a direct product are
    # sorted and compared a column at a time.
    spec = parse_group_spec(text)
    build_ball(spec, 1)
    tracemalloc.start()
    try:
        build_ball(spec, r_in)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= mib * 2**20


@pytest.mark.parametrize("text,r_in", [("F(a,b)", 2), ("Z2 * Z3", 3), ("(Z2 * Z3) x Z", 1)])
def test_word_matches_format_element(text, r_in):
    ball = build_ball(parse_group_spec(text), r_in)
    for i in reversed(range(ball.n_vertices)):
        assert ball.word(i) == ball.spec.format_element(ball.elements[i])


def test_analysis_formats_few_words(monkeypatch):
    # witness words are formatted on request, not the whole ball at once
    config = cli.AnalysisConfig(group="Z2 * Z3", radii=[4])
    n_vertices = build_ball(config.spec, 4).n_vertices
    calls = []
    original = GroupSpec.format_element

    def counting(self, element):
        calls.append(element)
        return original(self, element)

    monkeypatch.setattr(GroupSpec, "format_element", counting)
    cli.run_analysis(config)
    assert 0 < len(calls) < n_vertices


def test_bfs_order_is_by_distance(make_pair):
    ball, _ = make_pair("Z2 * Z3", 2)
    assert (np.diff(ball.dist0) >= 0).all()
    assert ball.dist0[ball.inner_count - 1] <= ball.r_in
    if ball.inner_count < ball.n_vertices:
        assert ball.dist0[ball.inner_count] == ball.r_in + 1


# ---------------------------------------------------------------------------
# the sphere-by-sphere build against the scalar breadth-first search

def _outcome(build, spec, r_in, generators, budget):
    """The ball ``build`` returns, or the fields of the budget error it raises."""
    try:
        return build(spec, r_in, generators, budget=budget)
    except BudgetExceededError as exc:
        return (str(exc), exc.budget, exc.vertices_found, exc.radius_reached)


def _assert_same_ball(ball, oracle):
    assert ball.nbr.dtype == np.int32 and ball.nbr.shape == oracle.nbr.shape
    assert (ball.nbr == oracle.nbr).all()
    assert (ball.dist0 == oracle.dist0).all()
    assert ball.counts_per_radius == oracle.counts_per_radius
    assert [l.label for l in ball.letters] == [l.label for l in oracle.letters]


_ATOMS = ["Z", "Z2", "Z3", "Z4", "Z5", "S3", "F(a)", "F(a,b)"]


def _draw_spec(data, depth=2):
    """A group expression: ``*`` and ``x`` nested up to ``depth`` over the atoms."""
    if depth == 0 or data.draw(st.booleans()):
        return data.draw(st.sampled_from(_ATOMS))
    op = data.draw(st.sampled_from([" * ", " x "]))
    parts = [_draw_spec(data, depth - 1) for _ in range(2)]
    return op.join(f"({p})" if " " in p else p for p in parts)


@settings(max_examples=60)
@given(data=st.data())
def test_build_matches_bfs_oracle_on_random_specs(data):
    # free generators get fresh names, so any two atoms can meet
    names = (f"x{k}" for k in itertools.count(1))
    text = re.sub(r"\b[ab]\b", lambda m: next(names), _draw_spec(data))
    spec = parse_group_spec(text)
    r_in = data.draw(st.integers(1, 2))
    generators = _draw_words(data, text)
    ball = _outcome(build_ball, spec, r_in, generators, budget=1500)
    oracle = _outcome(ball_bfs_oracle, spec, r_in, generators, budget=1500)
    if isinstance(oracle, tuple):
        assert ball == oracle
        return
    _assert_same_ball(ball, oracle)
    # words first, walked up the tree one vertex at a time; then the whole list
    assert [ball.word(i) for i in range(ball.n_vertices)] == [oracle.word(i) for i in range(ball.n_vertices)]
    assert ball.elements == oracle.elements and ball.index == oracle.index
    graph = nx_graph(ball)
    from_identity = nx.single_source_shortest_path_length(graph, 0)
    assert ball.dist0.tolist() == [from_identity[v] for v in range(ball.n_vertices)]
    dist = DistanceMatrix(ball)
    for u in range(min(ball.inner_count, 8)):
        bfs = nx.single_source_shortest_path_length(graph, u)
        assert dist.row(u).tolist() == [min(bfs[w], dist.clip) for w in range(ball.n_vertices)]
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    for _ in range(20):  # d(g, h) = |g^-1 h| on inner pairs
        g, h = rng.randrange(ball.inner_count), rng.randrange(ball.inner_count)
        shifted = spec.multiply(spec.invert(ball.elements[g]), ball.elements[h])
        assert dist.d(g, h) == ball.dist0[ball.index[shifted]]


@settings(max_examples=80)
@given(data=st.data())
def test_inner_rows_from_the_5r_over_2_prefix_match_bfs(data):
    # the inner rows are swept on B(floor(5R/2)) alone; against a BFS over
    # the whole 3R ball, clipped at 2R + 1 and cut at mid_count, for odd and
    # even R (the largest drawn R whose ball fits the budget)
    names = (f"x{k}" for k in itertools.count(1))
    text = re.sub(r"\b[ab]\b", lambda m: next(names), _draw_spec(data))
    generators = _draw_words(data, text)
    for r_in in range(data.draw(st.integers(1, 4)), 0, -1):
        ball = _outcome(build_ball, parse_group_spec(text), r_in, generators, budget=4000)
        if not isinstance(ball, tuple):
            break
    assume(not isinstance(ball, tuple))
    dist = DistanceMatrix(ball)
    assert dist.inner_rows.shape == (ball.inner_count, ball.mid_count)
    for u in range(ball.inner_count):
        want = [min(d, dist.clip) for d in bfs_distances(ball, u)[: ball.mid_count]]
        assert dist.inner_rows[u].tolist() == want


@pytest.mark.parametrize("text", ["F(a,b)", "Z2 * Z3", "Z x Z"])
@pytest.mark.parametrize("budget", [-5, 0, 1, 2, 5, 13, 40, 100, 300, 2000])
def test_budget_matches_bfs_oracle(text, budget):
    # the same error fields where the scalar search stops, the same ball where it does not
    spec = parse_group_spec(text)
    for r_in in (1, 2, 3):
        ball = _outcome(build_ball, spec, r_in, None, budget)
        oracle = _outcome(ball_bfs_oracle, spec, r_in, None, budget)
        if isinstance(oracle, tuple):
            assert ball == oracle
        else:
            _assert_same_ball(ball, oracle)


@pytest.mark.parametrize("text,r_in", [("Z2 * Z3", 9), ("F(a,b)", 3)])
def test_large_ball_matches_bfs_oracle(text, r_in):
    spec = parse_group_spec(text)
    _assert_same_ball(build_ball(spec, r_in), ball_bfs_oracle(spec, r_in))


@pytest.mark.parametrize(
    "text,r_in,generators",
    [(text, r_in, None) for text, r_in in ROW_CASES]
    + [
        ("Z x Z", 2, ["t1", "t2", "t1.t2"]),
        ("Z2 * Z3", 2, ["t1.t2", "t2"]),
        ("S3 * Z", 1, ["s1_1.s1_2", "t2^2"]),
        # a letter's first syllables can leave the ball at the last sphere,
        # where products are looked up without being added
        ("F(a,b)", 3, ["a.b", "b"]),
        ("Z2 * Z3", 3, ["t1.t2.t1", "t2"]),
    ],
)
def test_export_matches_bfs_oracle(text, r_in, generators):
    spec = parse_group_spec(text)
    built, oracle = build_ball(spec, r_in, generators), ball_bfs_oracle(spec, r_in, generators)
    assert write_ball(built) == write_ball(oracle)


def test_analysis_derives_few_elements(monkeypatch):
    # the ball keeps no elements: an analysis multiplies only along the
    # parent chains of its witness words
    config = cli.AnalysisConfig(group="Z2 * Z3", radii=[4])
    n_vertices = build_ball(config.spec, 4).n_vertices
    calls = []
    original = GroupSpec.multiply

    def counting(self, a, b):
        calls.append(a)
        return original(self, a, b)

    monkeypatch.setattr(GroupSpec, "multiply", counting)
    cli.run_analysis(config)
    assert 0 < len(calls) < n_vertices
