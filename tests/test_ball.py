import random

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
    interval,
    parse_group_spec,
    read_ball,
    write_ball,
)
from cayleyball.ball import resolve_letters
from cayleyball.groups import GroupSpec
from oracles import (
    all_pairs_oracle,
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
    # in the free group the true distance is the reduced length of u^-1 v
    ball, dist = make_pair("F(a,b)", 2)
    spec = ball.spec
    for u in range(ball.inner_count):
        for v in range(ball.inner_count):
            w = spec.multiply(spec.invert(ball.elements[u]), ball.elements[v])
            assert dist.d(u, v) == len(w)


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


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError) as err:
        build_ball(parse_group_spec("F(a,b)"), 3, budget=100)
    assert err.value.budget == 100
    assert err.value.vertices_found == 100
    assert err.value.radius_reached >= 1


def test_hausdorff_basics(make_pair):
    ball, dist = make_pair("F(a,b)", 2)
    Y = [0, 1, 2]
    assert dist.hausdorff(Y, Y) == 0
    assert dist.hausdorff([0], [ball.index_of_word("a.a")]) == 2
    with pytest.raises(ValueError):
        dist.hausdorff([], Y)


@pytest.mark.parametrize("k", [2, 3])
def test_grid_extreme_bigon_hausdorff(make_pair, k):
    # the two extreme monotone geodesics (0,0) -> (k,k) are Hausdorff distance
    # k apart, pinned by brute force over all monotone lattice paths
    ball, dist = make_pair("Z x Z", k)
    via_x = [ball.index[(i, 0)] for i in range(k + 1)] + [ball.index[(k, j)] for j in range(1, k + 1)]
    via_y = [ball.index[(0, j)] for j in range(k + 1)] + [ball.index[(i, k)] for i in range(1, k + 1)]
    assert dist.hausdorff(via_x, via_y) == k

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


def test_import_without_spec(make_pair):
    ball, dist = make_pair("F(a,b)", 1)
    loaded = read_ball(write_ball(ball))
    assert loaded.spec is None
    d2 = all_pairs_distances(loaded)
    assert (d2.inner == dist.inner).all()
    assert write_ball(loaded) == write_ball(ball)
    with pytest.raises(ValueError):
        loaded.index_of_word("a")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "vertices 2 radius_in 1 radius_out 1\n0 1\n1 a\n0 -1 a\n",
        "vertices 2 radius_in 1 radius_out 1\n0 1\n1 a\n0 2 a\n",
        "vertices 2 radius_in 1 radius_out 1\n0 1\n1 a\n0 1 a\n0 1 a\n1 0 a\n",
        "vertices 2 radius_in 1 radius_out 1\n0 1\n1 a\n0 1 a\n",
        "vertices 3 radius_in 1 radius_out 1\n0 1\n1 a\n2 b\n0 1 a\n0 2 a\n1 0 a\n2 0 a\n",
        # the path 0 - 2 - 1: dist0 = [0, 2, 1] would drop vertex 2 from the inner ball
        "vertices 3 radius_in 1 radius_out 2\n0 1\n1 a^2\n2 a\n0 2 a\n2 0 a^-1\n2 1 a\n1 2 a^-1\n",
    ],
    ids=[
        "empty", "negative-endpoint", "endpoint-past-end", "repeated-edge", "one-way-edge",
        "two-edges-one-label", "not-breadth-first",
    ],
)
def test_import_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        read_ball(text)


def test_import_rejects_words_naming_one_element():
    text = "vertices 2 radius_in 1 radius_out 1\n0 a\n1 a.b.b^-1\n0 1 b\n1 0 b^-1\n"
    read_ball(text)  # graph-only: the words are not evaluated
    with pytest.raises(ValueError):
        read_ball(text, spec=parse_group_spec("F(a,b)"))


@settings(max_examples=40)
@given(data=st.data())
def test_export_round_trip_random(data):
    # text -> graph-only ball -> text is the identity; with the spec the
    # imported table and inner distances are the built ball's
    text, r_in = data.draw(st.sampled_from(ROW_CASES + [("Z * Z4", 1), ("S3 * Z", 1), ("Z", 2)]))
    spec = parse_group_spec(text)
    ball = build_ball(spec, r_in, generators=_draw_words(data, text))
    exported = write_ball(ball)
    assert write_ball(read_ball(exported)) == exported
    loaded = read_ball(exported, spec=spec)
    assert (loaded.nbr == ball.nbr).all() and (loaded.dist0 == ball.dist0).all()
    assert loaded.index == ball.index
    assert (all_pairs_distances(loaded).inner == all_pairs_distances(ball).inner).all()


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
    # the bulk hull rows, in hull order, against rows computed one at a time
    ball, _ = make_pair(text, r_in)
    lazy = DistanceMatrix(ball)
    hull = lazy.hull()
    rows = [lazy.row(u).copy() for u in hull]
    block = DistanceMatrix(ball).ensure_mid_rows()
    assert block.shape == (len(hull), ball.n_vertices) and block.dtype == np.int16
    assert (block == np.stack(rows)).all()


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
            assert list(interval(dist, a, b).vertices) == between
            union.update(between)
    hull = dist.hull()
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
    assert list(interval(dist, u, v).vertices) == between


@settings(max_examples=60)
@given(data=st.data())
def test_hull_rows_serve_row(make_pair, data):
    # once the block exists, row(u) of a hull vertex is its block row, and
    # it is min(BFS distance, 2R + 1)
    text, r_in = data.draw(st.sampled_from(ROW_CASES))
    ball, dist = make_pair(text, r_in)
    block = dist.ensure_mid_rows()
    k = data.draw(st.integers(0, len(dist.hull()) - 1))
    u = int(dist.hull()[k])
    assert np.shares_memory(dist.row(u), block[k])
    bfs = nx.single_source_shortest_path_length(nx_graph(ball), u)
    assert dist.row(u).tolist() == [min(bfs[w], dist.clip) for w in range(ball.n_vertices)]


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
