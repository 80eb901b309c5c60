import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleyball import (
    all_pairs_distances,
    build_ball,
    enumerate_geodesics,
    geodesics,
    interval,
    invariants,
    parse_group_spec,
)
from cayleyball.cli import AnalysisConfig, run_analysis
from cayleyball.geodesics import (
    _avoidance_units,
    _capped_pairs,
    _first_padded,
    _geodesic_rows,
    _interval_dags,
    _one_pair,
    geodesic_through,
    inner_dags,
    max_avoidance,
    max_avoidance_block,
    most_avoiding_geodesic,
)
from oracles import (
    bfs_distances,
    count_geodesics_oracle,
    geodesics_dfs_oracle,
    interval_oracle,
    max_avoidance_oracle,
    polygon_thinness_oracle,
)


def test_interval_point(make_pair):
    ball, dist = make_pair("F(a,b)", 2)
    assert interval(dist, 3, 3) == (3,)


def test_interval_tree(make_pair):
    ball, dist = make_pair("F(a,b)", 2)
    one, ab = ball.index_of_word("1"), ball.index_of_word("a.b")
    assert sorted(ball.word(w) for w in interval(dist, one, ab)) == ["1", "a", "a.b"]


def test_interval_grid(make_pair):
    ball, dist = make_pair("Z x Z", 1)
    iv = interval(dist, ball.index[(0, 0)], ball.index[(1, 1)])
    assert {ball.elements[w] for w in iv} == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_interval_rejects_pair_beyond_clip(make_pair):
    ball, dist = make_pair("Z x Z", 1)
    u, v = ball.index_of_word("t1.t1"), ball.index_of_word("t1^-1.t1^-1")
    assert dist.d(u, v) == dist.clip == 3  # true distance 4, clipped
    with pytest.raises(ValueError):
        interval(dist, u, v)
    w = ball.index_of_word("t2.t2")
    assert dist.d(u, w) == dist.clip  # exactly 2R + 1 apart
    with pytest.raises(ValueError):
        interval(dist, w, u)


def test_tree_geodesics_unique(make_pair):
    ball, dist = make_pair("F(a,b)", 2)
    rng = random.Random(1)
    for _ in range(50):
        u, v = rng.randrange(ball.inner_count), rng.randrange(ball.inner_count)
        paths, truncated = enumerate_geodesics(ball, dist, u, v)
        assert len(paths) == 1 and not truncated


def test_grid_geodesic_counts(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    origin = ball.index[(0, 0)]
    for target, expected in (((2, 2), 6), ((2, 1), 3)):
        t = ball.index[target]
        paths, truncated = enumerate_geodesics(ball, dist, origin, t)
        assert len(paths) == expected and not truncated
        assert count_geodesics_oracle(ball, origin, t) == expected


def test_cap_semantics(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    paths, truncated = enumerate_geodesics(
        ball, dist, ball.index[(0, 0)], ball.index[(2, 2)], cap=2
    )
    assert len(paths) == 2 and truncated
    with pytest.raises(ValueError):
        enumerate_geodesics(ball, dist, 0, 1, cap=0)


def test_geodesics_lie_in_interval(make_pair):
    ball, dist = make_pair("Z2 * Z3", 2)
    rng = random.Random(5)
    for _ in range(40):
        u, v = rng.randrange(ball.inner_count), rng.randrange(ball.inner_count)
        iv = interval_oracle(ball, u, v)
        assert interval(dist, u, v) == iv
        paths, _ = enumerate_geodesics(ball, dist, u, v)
        union = set()
        for path in paths:
            assert len(path) - 1 == dist.d(u, v)
            assert set(path) <= set(iv)
            union |= set(path)
        assert union == set(iv)  # every interval vertex is on some geodesic


def test_enumeration_order_is_ball_independent(make_pair):
    # the k-th geodesic of a pair is determined by edge labels, not indices
    small, sd = make_pair("Z x Z", 2)
    big, bd = make_pair("Z x Z", 3)
    for target in ((2, 1), (1, 1), (2, 2)):
        ps, _ = enumerate_geodesics(small, sd, small.index[(0, 0)], small.index[target])
        pb, _ = enumerate_geodesics(big, bd, big.index[(0, 0)], big.index[target])
        words_small = [[small.elements[w] for w in p] for p in ps]
        words_big = [[big.elements[w] for w in p] for p in pb]
        assert words_small == words_big


# pins of the thinness oracle, with which the polygon tests measure literal
# polygons

def test_degenerate_bigon_thinness(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    paths, _ = enumerate_geodesics(ball, dist, ball.index[(0, 0)], ball.index[(1, 1)])
    assert polygon_thinness_oracle(ball, [paths[0], paths[0][::-1]]) == 0


def test_grid_extreme_bigon_thinness(make_pair):
    # corner-to-corner staircase bigon on (-1,-1) -> (1,1): thinness 2,
    # matching brute force over both extreme staircase paths
    ball, dist = make_pair("Z x Z", 2)
    lo, hi = ball.index[(-1, -1)], ball.index[(1, 1)]
    via_x = [ball.index[p] for p in [(-1, -1), (0, -1), (1, -1), (1, 0), (1, 1)]]
    via_y = [ball.index[p] for p in [(-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1)]]
    value = polygon_thinness_oracle(ball, [via_x, via_y[::-1]])
    oracle = max(
        min(abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in [(-1, -1), (0, -1), (1, -1), (1, 0), (1, 1)])
        for p in [(-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1)]
    )
    assert value == oracle == 2


def test_tree_polygons_are_zero_thin(make_pair):
    ball, dist = make_pair("F(a,b)", 2)
    rng = random.Random(9)
    for _ in range(30):
        corners = [rng.randrange(ball.inner_count) for _ in range(rng.randint(2, 5))]
        sides = []
        for u, v in zip(corners, corners[1:] + corners[:1]):
            paths, _ = enumerate_geodesics(ball, dist, u, v)
            sides.append(paths[0])
        assert polygon_thinness_oracle(ball, sides) == 0


def test_thinness_monotone_in_sides(make_pair):
    # dropping sides from the comparison set can only increase thinness
    ball, dist = make_pair("Z x Z", 2)
    rng = random.Random(11)
    for _ in range(30):
        corners = [rng.randrange(ball.inner_count) for _ in range(3)]
        sides = []
        for u, v in zip(corners, corners[1:] + corners[:1]):
            paths, _ = enumerate_geodesics(ball, dist, u, v)
            sides.append(paths[0])
        full = polygon_thinness_oracle(ball, sides)
        partial = max(min(bfs_distances(ball, p)[w] for w in sides[0]) for p in sides[-1])
        assert full <= partial


def test_polygon_validation(make_pair):
    ball, _ = make_pair("Z x Z", 1)
    with pytest.raises(ValueError):
        polygon_thinness_oracle(ball, [(0, 1)])
    with pytest.raises(ValueError):
        polygon_thinness_oracle(ball, [(0, 1), (0, 1)])


def test_geodesic_through(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    u, v = ball.index[(0, 0)], ball.index[(2, 2)]
    for via in interval(dist, u, v):
        path = geodesic_through(ball, dist, u, v, via)
        assert path[0] == u and path[-1] == v
        assert len(path) - 1 == dist.d(u, v)
        assert all(dist.d(a, b) == 1 for a, b in zip(path, path[1:]))
        assert via in path


def test_geodesic_through_rejects_vertex_off_the_interval(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    assert 7 not in interval(dist, 0, 1)
    with pytest.raises(ValueError, match="vertex 7 .* from 0 to 1"):
        geodesic_through(ball, dist, 0, 1, 7)


def test_max_avoidance_matches_enumeration(make_pair):
    for text, r_in in (("Z x Z", 2), ("Z2 * Z3", 2), ("Z6", 3)):
        ball, dist = make_pair(text, r_in)
        rng = random.Random(13)
        for _ in range(25):
            u, v = rng.randrange(ball.inner_count), rng.randrange(ball.inner_count)
            p = rng.randrange(ball.mid_count)
            paths, _ = geodesics_dfs_oracle(ball, u, v)
            literal = max(min(dist.d(p, w) for w in path) for path in paths)
            assert max_avoidance(ball, dist, u, v, p) == literal
            best = most_avoiding_geodesic(ball, dist, u, v, p)
            assert min(dist.d(p, w) for w in best) == literal


SMALL_CASES = [
    (text, r_in)
    for text in ("Z x Z", "Z6", "S4", "Z2 * Z3", "(Z2 * Z3) x Z", "F(a,b)")
    for r_in in (1, 2)
]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bottleneck_dp_matches_uncapped_enumeration(make_pair, data):
    # scalar, backtracked and block forms of the one DP against the literal
    # max over every geodesic, enumerated by the oracle's depth-first walk
    text, r_in = data.draw(st.sampled_from(SMALL_CASES))
    ball, dist = make_pair(text, r_in)
    u = data.draw(st.integers(0, ball.inner_count - 1))
    v = data.draw(st.integers(0, ball.inner_count - 1))
    probes = interval_oracle(ball, u, v)
    p = data.draw(st.sampled_from(probes))
    paths, truncated = geodesics_dfs_oracle(ball, u, v)
    assert not truncated
    literal = max(min(dist.d(p, w) for w in path) for path in paths)
    assert max_avoidance_oracle(ball, u, v, [p]) == [literal]
    assert max_avoidance(ball, dist, u, v, p) == literal

    best = most_avoiding_geodesic(ball, dist, u, v, p)
    assert best[0] == u and best[-1] == v and len(best) - 1 == dist.d(u, v)
    assert all(dist.d(a, b) == 1 for a, b in zip(best, best[1:]))
    assert min(dist.d(p, w) for w in best) == literal

    rows = np.stack([dist.row(q) for q in probes])
    block = max_avoidance_block(ball, dist, [u], [v], rows)
    assert block.shape == (1, len(probes))
    assert block[0].tolist() == max_avoidance_oracle(ball, u, v, probes)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_avoidance_units_match_oracle(make_pair, data):
    # the chunked driver against the oracle's scalar DP per (unit, probe):
    # random inner pairs, u == v among them, several units sharing a pair,
    # and ragged probe rows anywhere in the ball, on or off the interval or
    # beyond the 2R ball, padded by repeating a unit's first probe; chunks
    # of one DP value hold one unit each, chunks of 2^16 hold many
    text, r_in = data.draw(st.sampled_from(SMALL_CASES))
    ball, dist = make_pair(text, r_in)
    inner = st.integers(0, ball.inner_count - 1)
    probe = st.one_of(st.integers(0, ball.mid_count - 1), st.integers(0, ball.n_vertices - 1))
    probe_rows = st.lists(probe, min_size=1, max_size=6)
    units = data.draw(st.lists(st.tuples(inner, inner, probe_rows), min_size=1, max_size=30))
    if data.draw(st.booleans()):
        units += [(u, u, ps) for u, _, ps in units]
    us, vs, probes = zip(*units)
    ni = ball.inner_count
    codes = np.minimum(us, vs) * ni + np.maximum(us, vs)
    pairs, pair_of = np.unique(codes, return_inverse=True)
    dags = _interval_dags(ball, dist, pairs // ni, pairs % ni)
    sizes = np.array([len(ps) for ps in probes])
    used, local = np.unique(np.concatenate(probes), return_inverse=True)
    padded = local.ravel()[_first_padded(np.cumsum(sizes) - sizes, sizes)]
    rows = np.stack([dist.row(p) for p in used.tolist()])

    def values(entry, owner):
        return rows[padded[owner], dags.verts[entry][:, None]]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geodesics, "_AVOIDANCE_ENTRIES", data.draw(st.sampled_from([1, 1 << 16])))
        got = _avoidance_units(dags, pair_of, padded.shape[1], values)
    assert got.dtype == np.int16 and got.shape == padded.shape
    for (u, v, ps), row in zip(units, got.tolist()):
        assert row == max_avoidance_oracle(ball, u, v, ps) + [row[0]] * (len(row) - len(ps))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_store_paths_match_dfs_oracle(make_pair, data):
    # unranked geodesics, one pair at a time and batched as the mesh reads
    # them, against the depth-first walk: same paths in the same order, the
    # same cap and the same truncated flag, u == v included
    text, r_in = data.draw(st.sampled_from(SMALL_CASES))
    ball, dist = make_pair(text, r_in)
    cap = data.draw(st.sampled_from([1, 2, None]))
    inner = st.integers(0, ball.inner_count - 1)
    pairs = data.draw(st.lists(st.tuples(inner, inner), min_size=1, max_size=12))
    u = pairs[0][0]
    pairs.append((u, u))
    expected = [geodesics_dfs_oracle(ball, x, y, cap=cap) for x, y in pairs]
    for (x, y), (paths, truncated) in zip(pairs, expected):
        got, got_truncated = enumerate_geodesics(ball, dist, x, y, cap=cap)
        assert got == paths and got_truncated == truncated
    xs, ys = (np.array(c) for c in zip(*pairs))
    rows, counts, truncated = _geodesic_rows(ball, dist, xs, ys, cap)
    assert counts.tolist() == [len(paths) for paths, _ in expected]
    assert truncated.tolist() == [t for _, t in expected]
    assert rows.shape == (counts.sum(), max(len(paths[0]) for paths, _ in expected))
    flat = [path for paths, _ in expected for path in paths]
    for row, path in zip(rows.tolist(), flat):
        assert row == list(path) + [path[-1]] * (len(row) - len(path))


def _store_pairs(ball, dist):
    """Every inner pair a <= b in store order, and which of them have more
    than one geodesic: more interval vertices than d(a, b) + 1."""
    a, b = np.triu_indices(ball.inner_count)
    sizes = np.diff(inner_dags(dist).ptr)
    return a, b, sizes, sizes > dist.inner[a, b] + 1


@pytest.mark.parametrize("text, r_in", [("F(a,b)", 2), ("Z2 * Z3", 3), ("Z x Z", 2)])
def test_layered_kernels_see_no_single_geodesic_pair(monkeypatch, make_pair, text, r_in):
    # the max-min DP and the path counts run on exactly the entries of the
    # pairs with more than one geodesic; a pair with one is read directly
    ball, dist = make_pair(text, r_in)
    a, b, sizes, branching = _store_pairs(ball, dist)
    dags = inner_dags(dist)
    seen = {"_maxmin_layers": [], "_path_counts": []}

    def recording(name, arg):  # records the entry count of each call
        real = getattr(geodesics, name)

        def record(*args):
            seen[name].append(len(args[arg]))
            return real(*args)

        return record

    monkeypatch.setattr(geodesics, "_maxmin_layers", recording("_maxmin_layers", 1))
    monkeypatch.setattr(geodesics, "_path_counts", recording("_path_counts", 0))
    by_vertex = dist.rows(np.arange(0, ball.inner_count, 3), np.arange(ball.mid_count)).T
    _avoidance_units(dags, np.arange(len(a)), by_vertex.shape[1], lambda entry, _: by_vertex[dags.verts[entry]])
    _geodesic_rows(ball, dist, np.r_[a, b], np.r_[b, a], 2)
    expected = int(sizes[branching].sum())
    assert sum(seen["_maxmin_layers"]) == expected
    assert sum(seen["_path_counts"]) == 2 * expected
    if text != "Z x Z":  # a tree and a block graph: every pair has one geodesic
        assert seen == {"_maxmin_layers": [], "_path_counts": []}
    else:
        assert expected > 0


@pytest.mark.parametrize("entries", [1, 1 << 16])
def test_mixed_pairs_keep_their_order(monkeypatch, make_pair, entries):
    # single-geodesic pairs from either end, branching pairs and u == v,
    # interleaved in one call of each kernel, against the oracles
    ball, dist = make_pair("Z x Z", 2)
    a, b, _, branching = _store_pairs(ball, dist)
    path = np.flatnonzero(~branching & (a != b))[::7][:3]
    many = np.flatnonzero(branching)[::5][:3]
    pairs = []
    for p, q in zip(path.tolist(), many.tolist()):
        pairs += [(a[p], b[p]), (a[q], b[q]), (a[q], a[q]), (b[p], a[p]), (b[q], a[q])]
    pairs = [(int(u), int(v)) for u, v in pairs]
    assert len(pairs) == 15
    us, vs = (np.array(c) for c in zip(*pairs))
    probes = [0, 4, ball.inner_count - 1, ball.mid_count - 1]
    rows = dist.rows(probes, np.arange(ball.mid_count)).T
    dags = inner_dags(dist)
    monkeypatch.setattr(geodesics, "_AVOIDANCE_ENTRIES", entries)
    got = _avoidance_units(
        dags, geodesics._pair_ids(ball.inner_count, us, vs), len(probes), lambda entry, _: rows[dags.verts[entry]]
    )
    assert got.tolist() == [max_avoidance_oracle(ball, u, v, probes) for u, v in pairs]
    for cap in (1, 2, None):
        expected = [geodesics_dfs_oracle(ball, u, v, cap=cap) for u, v in pairs]
        paths, counts, truncated = _geodesic_rows(ball, dist, us, vs, cap)
        assert counts.tolist() == [len(p) for p, _ in expected]
        assert truncated.tolist() == [t for _, t in expected]
        width = max(len(p[0]) for p, _ in expected)
        assert paths.tolist() == [list(p) + [p[-1]] * (width - len(p)) for ps, _ in expected for p in ps]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_capped_pairs_match_uncapped_enumeration(make_pair, data):
    # the cap test the exhaustive mesh reads, against counting every
    # geodesic, for each inner pair from both ends, on random two-atom
    # groups with or without an extra product generator
    atoms = st.sampled_from(["Z", "Z2", "Z3", "Z4", "S3"])
    text = f"{data.draw(atoms)} {data.draw(st.sampled_from(['x', '*']))} {data.draw(atoms)}"
    names = list(parse_group_spec(text).generator_names)
    gens = None
    if data.draw(st.booleans()):
        first, second = data.draw(st.permutations(names))[:2]
        gens = names + [f"{first}.{second}"]
    ball, dist = make_pair(text, data.draw(st.integers(1, 2)), generators=gens)
    cap = data.draw(st.sampled_from([1, 2, 3, None]))
    capped = _capped_pairs(dist, cap)
    n = ball.inner_count
    assert capped.shape == (n, n) and capped.dtype == bool
    for a, b in itertools.product(range(n), repeat=2):
        count = len(enumerate_geodesics(ball, dist, a, b)[0])
        assert capped[a, b] == (cap is not None and count > cap)


WP_CASES = [
    ("S4", 1), ("S4", 2), ("(Z2 * Z3) x Z", 1), ("(Z2 * Z3) x Z", 2),
    ("Z x Z", 2), ("Z2 * Z3", 2), ("F(a,b)", 1), ("Z6", 2),
]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_wp_block_matches_oracle(make_pair, data):
    # the polygon scan's WP fill: every inner pair against every hull row,
    # on standard or extended generating sets, in chunks of one pair or in
    # one chunk, against the oracle's scalar DP
    text, r_in = data.draw(st.sampled_from(WP_CASES))
    names = list(parse_group_spec(text).generator_names)
    gens = None
    if len(names) >= 2 and data.draw(st.booleans()):
        first, second = data.draw(st.permutations(names))[:2]
        gens = names + [f"{first}.{second}"]
    ball, dist = make_pair(text, r_in, generators=gens)
    hull = geodesics.hull(dist)
    rows = dist.ensure_mid_rows(hull)
    hull = hull.tolist()
    us, vs = np.triu_indices(ball.inner_count)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geodesics, "_AVOIDANCE_ENTRIES", data.draw(st.sampled_from([1, 1 << 16])))
        block = max_avoidance_block(ball, dist, us, vs, rows)
    assert block.dtype == np.int16 and block.shape == (len(us), len(hull))
    for k, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
        assert block[k].tolist() == max_avoidance_oracle(ball, u, v, hull)


def test_max_avoidance_block_edge_cases(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    rows = np.stack([dist.row(0), dist.row(1)])
    empty = max_avoidance_block(ball, dist, [], [], rows)
    assert empty.dtype == np.int16 and empty.shape == (0, 2)
    outer = ball.inner_count  # the first vertex outside the inner ball
    for us, vs in (([0, outer], [1, 0]), ([0, 1], [0, outer]), ([-1], [0])):
        with pytest.raises(ValueError):
            max_avoidance_block(ball, dist, us, vs, rows)
    with pytest.raises(ValueError):
        max_avoidance_block(ball, dist, [0, 1], [1], rows)


def _labelled(dags):
    """A one-pair store as vertex -> (layer, successor vertex per column,
    predecessor vertex per column), free of the order of its entries."""
    verts = dags.verts.tolist()
    name = lambda links: tuple(verts[j] if j >= 0 else -1 for j in links)
    return {
        v: (t, name(s), name(p))
        for v, t, s, p in zip(verts, dags.layer.tolist(), dags.succ.tolist(), dags.pred.tolist())
    }


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_store_entries_match_one_pair_dags(make_pair, data):
    # every inner pair's slice of the store, read from either end, against
    # the DAG grown for that pair alone, on standard or extended generators
    text, r_in = data.draw(st.sampled_from(SMALL_CASES + WP_CASES))
    names = list(parse_group_spec(text).generator_names)
    gens = None
    if len(names) >= 2 and data.draw(st.booleans()):
        first, second = data.draw(st.permutations(names))[:2]
        gens = names + [f"{first}.{second}"]
    ball, dist = make_pair(text, r_in, generators=gens)
    dags = inner_dags(dist)
    us, vs = np.triu_indices(ball.inner_count)
    assert len(dags.ptr) == len(us) + 1
    for k, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
        alone = _interval_dags(ball, dist, [u], [v])
        lo, hi = dags.ptr[k], dags.ptr[k + 1]
        for field in ("verts", "layer", "succ", "pred"):
            assert getattr(dags, field)[lo:hi].tolist() == getattr(alone, field).tolist()
        assert _labelled(_one_pair(ball, dist, v, u)) == _labelled(_interval_dags(ball, dist, [v], [u]))


def test_store_is_built_once_per_radius(monkeypatch):
    # one store per ball, and no invariant or witness grows a multi-pair
    # store of its own
    builds, stray, building = [], [], []
    build_store, grow = geodesics.inner_dags, geodesics._interval_dags

    def counted_store(dist):
        if dist._dags is None:
            builds.append(dist.ball.r_in)
            building.append(True)
            try:
                return build_store(dist)
            finally:
                building.pop()
        return build_store(dist)

    def counted_grow(ball, dist, a, b):
        if not building and np.size(a) > 1:
            stray.append(np.size(a))
        return grow(ball, dist, a, b)

    monkeypatch.setattr(geodesics, "inner_dags", counted_store)
    monkeypatch.setattr(invariants, "inner_dags", counted_store)
    monkeypatch.setattr(geodesics, "_interval_dags", counted_grow)
    run_analysis(AnalysisConfig(group="Z2 * Z3", radii=[3, 4]))
    run_analysis(AnalysisConfig(
        group="Z x Z", radii=[3], samples=300, seed=5, geodesic_cap=4,
        invariants=["four_point", "polygon:3", "bigons", "detour", "mesh:geodesic"],
    ))
    assert builds == [3, 4, 3]
    assert stray == []


def test_store_build_allocates_little_beyond_the_store():
    # the chunks' working arrays are small next to the store they fill
    ball = build_ball(parse_group_spec("Z2 * Z3"), 6)
    dist = all_pairs_distances(ball)
    tracemalloc.start()
    try:
        dags = inner_dags(dist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sum(field.nbytes for field in dags)
