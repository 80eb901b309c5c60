import itertools
import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.sparse.csgraph import shortest_path

from cayleyball import (
    DistanceMatrix,
    bigon_constants,
    build_ball,
    cli,
    chain_defect,
    detour_epsilon,
    doubled_gromov_product,
    enumerate_geodesics,
    four_point_delta,
    h2_center_distance,
    mesh_estimate,
    parse_group_spec,
    polygon_delta,
    polygon_thinness,
    rips_delta,
    subgroup_quasiconvexity,
)
from cayleyball import invariants
from cayleyball.geodesics import GeodesicPath, Polygon, interval
from cayleyball.invariants import (
    SamplingPlan,
    _bottleneck_chain,
    _bottleneck_defect,
    _bruteforce_defect,
    _gromov_matrix,
    detour_for_pair,
    masked_path,
    polygon_tuple_value,
)
from oracles import detour_pair_oracle, grid_bigon_oracle, grid_sync_oracle, mesh_bruteforce, nx_graph

EXHAUSTIVE = SamplingPlan.exhaustive()
UNCAPPED = SamplingPlan(mode="exhaustive", geodesic_cap=None)


# ---------------------------------------------------------------------------
# Gromov products

def test_gromov_product_examples(make_pair):
    ball, dist = make_pair("F(a,b)", 2)
    one = ball.index_of_word("1")
    a, b = ball.index_of_word("a"), ball.index_of_word("b")
    ab, ab_inv = ball.index_of_word("a.b"), ball.index_of_word("a.b^-1")
    assert doubled_gromov_product(dist, a, b, one) == 0
    assert doubled_gromov_product(dist, ab, ab_inv, one) == 2
    assert doubled_gromov_product(dist, a, a, one) == 2 * dist.d(one, a)


def test_gromov_product_bounds(make_pair):
    ball, dist = make_pair("Z2 * Z3", 2)
    rng = random.Random(3)
    for _ in range(500):
        x, y, p = (rng.randrange(ball.inner_count) for _ in range(3))
        g = doubled_gromov_product(dist, x, y, p)
        assert 0 <= g <= 2 * min(dist.d(p, x), dist.d(p, y))


# ---------------------------------------------------------------------------
# four-point condition

def test_four_point_tree_zero(make_pair):
    _, dist = make_pair("F(a,b)", 2)
    res = four_point_delta(dist, EXHAUSTIVE)
    assert res.value_doubled == 0 and res.bound == "exact"


def test_four_point_grid_growth(make_pair):
    _, d2 = make_pair("Z x Z", 2)
    _, d4 = make_pair("Z x Z", 4)
    v2 = four_point_delta(d2, EXHAUSTIVE).value_doubled
    v4 = four_point_delta(d4, EXHAUSTIVE).value_doubled
    assert 0 < v2 < v4


def test_four_point_tiny_ball(make_pair):
    _, dist = make_pair("Z2", 1)
    assert four_point_delta(dist, EXHAUSTIVE).value_doubled == 0


def test_four_point_sampled_below_exhaustive(make_pair):
    _, dist = make_pair("Z x Z", 2)
    exhaustive = four_point_delta(dist, EXHAUSTIVE)
    sampled = four_point_delta(dist, SamplingPlan.random(300, 11))
    assert sampled.value_doubled <= exhaustive.value_doubled
    assert sampled.bound == "lower"


def test_four_point_witness_reevaluates(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    res = four_point_delta(dist, EXHAUSTIVE)
    w = res.witness
    x0, x1, x2, p = (
        ball.index_of_word(w[k]) for k in ("x0", "x1", "x2", "basepoint")
    )
    recomputed = min(
        doubled_gromov_product(dist, x0, x1, p),
        doubled_gromov_product(dist, x1, x2, p),
    ) - doubled_gromov_product(dist, x0, x2, p)
    assert recomputed == res.value_doubled
    # the witness is the lexicographically first (p, x1, x0, x2) attaining the max
    n = ball.inner_count
    values = {
        (q, y1, y0, y2): min(
            doubled_gromov_product(dist, y0, y1, q),
            doubled_gromov_product(dist, y1, y2, q),
        ) - doubled_gromov_product(dist, y0, y2, q)
        for q, y1, y0, y2 in itertools.product(range(n), repeat=4)
    }
    best = max(values.values())
    assert res.value_doubled == best
    assert (p, x1, x0, x2) == min(key for key, value in values.items() if value == best)


# ---------------------------------------------------------------------------
# chain defect

def test_chain_tree_zero(make_pair):
    _, dist = make_pair("F(a,b)", 2)
    assert chain_defect(dist).value_doubled == 0
    assert chain_defect(dist, method="bruteforce", maxlen=4).value_doubled == 0


def test_chain_two_vertex_ball(make_pair):
    _, dist = make_pair("Z2", 1)
    assert chain_defect(dist).value_doubled == 0


@pytest.mark.parametrize(
    "text,r_in", [("Z x Z", 2), ("Z2 * Z3", 2), ("S3", 2), ("Z", 2), ("Z6", 3)]
)
def test_bottleneck_equals_bruteforce(make_pair, text, r_in):
    ball, dist = make_pair(text, r_in)
    for p in range(ball.inner_count):
        fast = chain_defect(dist, basepoint=p)
        slow = chain_defect(dist, basepoint=p, method="bruteforce", maxlen=4)
        assert fast.value_doubled == slow.value_doubled


def test_chain_dominates_four_point(make_pair):
    # a 2-chain is a special chain, so at any fixed basepoint the chain
    # defect is at least the four-point defect
    ball, dist = make_pair("Z x Z", 2)
    for p in range(ball.inner_count):
        chain = chain_defect(dist, basepoint=p).value_doubled
        G = _gromov_matrix(dist, p)
        n = ball.inner_count
        four = max(
            min(G[x0, x1], G[x1, x2]) - G[x0, x2]
            for x0 in range(n)
            for x1 in range(n)
            for x2 in range(n)
        )
        assert chain >= max(0, four)


def test_chain_witness_reevaluates(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    res = chain_defect(dist)
    assert res.value_doubled > 0
    p = ball.index_of_word(res.witness["basepoint"])
    chain = [ball.index_of_word(w) for w in res.witness["chain"]]
    G = _gromov_matrix(dist, p)
    value = min(int(G[u, v]) for u, v in zip(chain, chain[1:])) - int(G[chain[0], chain[-1]])
    assert value == res.value_doubled


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_bottleneck_defect_matches_all_simple_chains(data):
    # shortest-path metric of a random connected graph: a random spanning tree
    # plus random extra edges; chains of up to n - 1 steps cover every simple chain
    n = data.draw(st.integers(1, 6))
    edges = [(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = list(itertools.combinations(range(n), 2))
    extra = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges += [e for e, keep in zip(pairs, extra) if keep]
    D = np.full((n, n), n, dtype=np.int32)
    np.fill_diagonal(D, 0)
    for u, v in edges:
        D[u, v] = D[v, u] = 1
    for k in range(n):
        D = np.minimum(D, D[:, k, None] + D[None, k, :])
    p = data.draw(st.integers(0, n - 1))
    G = D[p][:, None] + D[p][None, :] - D

    value, (x, y) = _bottleneck_defect(G)
    assert value == _bruteforce_defect(G, maxlen=n - 1)[0]
    chain = _bottleneck_chain(G, x, y, value)
    assert (chain[0], chain[-1]) == (x, y)
    assert min(int(G[u, v]) for u, v in zip(chain, chain[1:])) - int(G[x, y]) == value
    assert x == y or len(set(chain)) == len(chain)


# ---------------------------------------------------------------------------
# polygon thinness constants

def test_rips_and_polygon_tree_zero(make_pair):
    ball, dist = make_pair("F(a,b)", 2)
    assert rips_delta(ball, dist, EXHAUSTIVE).value_doubled == 0
    for n in (1, 2, 3, 4):
        res = polygon_delta(ball, dist, n, EXHAUSTIVE)
        assert res.value_doubled == 0 and res.bound == "exact"


def test_tree_suite_exhaustive_r3(make_pair):
    # the whole tree suite vanishes exhaustively on F(a,b) at R_in = 3
    ball, dist = make_pair("F(a,b)", 3)
    assert four_point_delta(dist, EXHAUSTIVE).value_doubled == 0
    assert chain_defect(dist).value_doubled == 0
    assert rips_delta(ball, dist, EXHAUSTIVE).value_doubled == 0
    for n in (1, 2, 3, 4, 5):
        assert polygon_delta(ball, dist, n, EXHAUSTIVE).value_doubled == 0
    assert detour_epsilon(ball, dist, EXHAUSTIVE).value_doubled == 0
    assert mesh_estimate(ball, dist, EXHAUSTIVE).value_doubled == 0


def test_degenerate_triple_in_tree(make_pair):
    ball, dist = make_pair("F(a,b)", 2)
    x, y = ball.index_of_word("a"), ball.index_of_word("b.b")
    value, _ = polygon_tuple_value(ball, dist, (x, x, y))
    assert value == 0


def test_polygon_scan_matches_literal_enumeration(make_pair):
    # dual route: the bottleneck scan against direct enumeration of all
    # geodesic choices for every corner tuple
    for text, r_in in (("Z x Z", 1), ("Z4", 1), ("Z2 * Z3", 2)):
        ball, dist = make_pair(text, r_in)
        for n in (1, 2):
            scanned = polygon_delta(ball, dist, n, UNCAPPED).value_doubled
            literal = 0
            for corners in itertools.product(range(ball.inner_count), repeat=n + 1):
                side_paths = []
                for u, v in zip(corners, corners[1:] + corners[:1]):
                    paths, _ = enumerate_geodesics(ball, dist, u, v)
                    side_paths.append(paths)
                for combo in itertools.product(*side_paths):
                    literal = max(literal, polygon_thinness(dist, Polygon(list(combo))))
                tuple_val, _ = polygon_tuple_value(ball, dist, corners)
            assert scanned == 2 * literal


def test_polygon_tuple_value_matches_literal(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    rng = random.Random(17)
    for _ in range(25):
        corners = tuple(rng.randrange(ball.inner_count) for _ in range(3))
        side_paths = []
        for u, v in zip(corners, corners[1:] + corners[:1]):
            paths, _ = enumerate_geodesics(ball, dist, u, v)
            side_paths.append(paths)
        literal = max(
            polygon_thinness(dist, Polygon(list(combo)))
            for combo in itertools.product(*side_paths)
        )
        value, _ = polygon_tuple_value(ball, dist, corners)
        assert value == literal


def test_grid_bigons_strictly_increase(make_pair):
    values = []
    for r_in in (2, 3, 4):
        ball, dist = make_pair("Z x Z", r_in)
        values.append(polygon_delta(ball, dist, 1, UNCAPPED).value_doubled)
    assert values[0] < values[1] < values[2]


def test_polygon_monotone_in_gon_size(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    vals = [polygon_delta(ball, dist, n, EXHAUSTIVE).value_doubled for n in (1, 2, 3)]
    assert vals == sorted(vals)
    assert vals[0] > 0  # grid triangles are never all 0-thin


@pytest.mark.parametrize("text,r_in", [("Z x Z", 2), ("(Z2 * Z3) x Z", 1), ("S4", 2)])
def test_polygon_scan_continues_powers(monkeypatch, text, r_in):
    # sizes asked in rising order continue from each probe's last power:
    # one max-min product per hull probe and size above 1, each probe ends
    # at its 3-step power, and the results are those of a scan asked for
    # the largest size at once
    ball = build_ball(parse_group_spec(text), r_in)
    products = []
    maxmin = invariants._maxmin
    monkeypatch.setattr(invariants, "_maxmin", lambda A, B: products.append(1) or maxmin(A, B))
    stepwise = invariants._polygon_scan(ball, DistanceMatrix(ball))
    for n in (1, 2, 3):
        stepwise.ensure(n)
    assert len(products) == 2 * len(stepwise.hull)
    for W, last in zip(stepwise.WP, stepwise.last):
        assert (last == maxmin(maxmin(W, W), W)).all()
    direct = invariants._polygon_scan(ball, DistanceMatrix(ball))
    direct.ensure(3)
    for n in (1, 2, 3):
        assert (stepwise.results[n].value, stepwise.results[n].key) == (direct.results[n].value, direct.results[n].key)
        assert stepwise.witness(n) == direct.witness(n)


def test_rips_positive_on_grid(make_pair):
    ball, dist = make_pair("Z x Z", 3)
    res = rips_delta(ball, dist, EXHAUSTIVE)
    assert res.value_doubled > 0 and res.bound == "exact"


def test_virtually_free_plateau_exhaustive(make_pair):
    for r_in in (2, 3):
        ball, dist = make_pair("Z2 * Z3", r_in)
        assert polygon_delta(ball, dist, 3, EXHAUSTIVE).value_doubled == 0


def test_polygon_sampled_below_exhaustive(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    exhaustive = polygon_delta(ball, dist, 2, EXHAUSTIVE).value_doubled
    sampled = polygon_delta(ball, dist, 2, SamplingPlan.random(150, 23))
    assert sampled.value_doubled <= exhaustive
    assert sampled.bound == "lower"


def test_polygon_interval_mode_is_lower_bound(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    plan = SamplingPlan.random(100, 5)
    lo = polygon_delta(ball, dist, 2, plan, method="interval")
    hi = polygon_delta(ball, dist, 2, plan, method="tuples")
    assert lo.value_doubled <= hi.value_doubled
    assert lo.bound == "lower"


def test_polygon_too_many_corners(make_pair):
    ball, dist = make_pair("Z2", 1)
    with pytest.raises(ValueError):
        polygon_delta(ball, dist, ball.inner_count, EXHAUSTIVE)


def test_polygon_witness_reevaluates(make_pair):
    for plan in (EXHAUSTIVE, SamplingPlan.random(100, 31)):
        ball, dist = make_pair("Z x Z", 2)
        res = polygon_delta(ball, dist, 2, plan)
        w = res.witness
        sides = [
            GeodesicPath(tuple(ball.index_of_word(t) for t in side))
            for side in w["sides"] + [w["last_side"]]
        ]
        assert polygon_thinness(dist, Polygon(sides)) == res.value_doubled // 2


# ---------------------------------------------------------------------------
# bigons

def test_bigons_tree(make_pair):
    ball, dist = make_pair("F(a,b)", 2)
    res_async, res_sync = bigon_constants(ball, dist, EXHAUSTIVE)
    assert res_async.value_doubled == 0 and res_sync.value_doubled == 0


def test_bigons_grid_values(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    res_async, res_sync = bigon_constants(ball, dist, UNCAPPED)
    assert res_async.value_doubled == 4   # async constant 2
    assert res_sync.value_doubled == 8    # sync constant 4
    assert res_async.bound == "exact"


def test_bigon_async_matches_monotone_path_oracle(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    res_async, res_sync = bigon_constants(ball, dist, UNCAPPED)
    u = ball.spec.parse_word(res_async.witness["start"])
    v = ball.spec.parse_word(res_async.witness["end"])
    assert grid_bigon_oracle(u, v) == res_async.value_doubled // 2
    u = ball.spec.parse_word(res_sync.witness["start"])
    v = ball.spec.parse_word(res_sync.witness["end"])
    assert grid_sync_oracle(u, v) == res_sync.value_doubled // 2


def test_fellow_traveler_bound(make_pair):
    # sync <= 2 * async on every coterminal geodesic pair
    for text, r_in in (("Z x Z", 2), ("Z2 * Z3", 2), ("Z6", 3)):
        ball, dist = make_pair(text, r_in)
        for x, y in itertools.combinations(range(ball.inner_count), 2):
            paths, _ = enumerate_geodesics(ball, dist, x, y)
            for pi, pj in itertools.permutations(paths, 2):
                async_val = max(
                    min(dist.d(w, w2) for w2 in pj.vertices) for w in pi.vertices
                )
                sync_val = max(dist.d(w, w2) for w, w2 in zip(pi.vertices, pj.vertices))
                assert sync_val <= 2 * async_val


def _bigon_enumeration_oracle(ball, dist):
    """Literal (async, sync) over every ordered pair of uncapped geodesics."""
    best_async = best_sync = 0
    for x, y in itertools.combinations(range(ball.inner_count), 2):
        paths, truncated = enumerate_geodesics(ball, dist, x, y, cap=None)
        assert not truncated
        for pi, pj in itertools.permutations(paths, 2):
            best_async = max(
                best_async,
                max(min(dist.d(w, w2) for w2 in pj.vertices) for w in pi.vertices),
            )
            best_sync = max(
                best_sync, max(dist.d(w, w2) for w, w2 in zip(pi.vertices, pj.vertices))
            )
    return 2 * best_async, 2 * best_sync


def _bigon_witness_values(ball, dist, res_async, res_sync):
    def path(res, key):
        return [ball.index_of_word(w) for w in res.witness[key]]

    geo, other = path(res_async, "geodesic"), path(res_async, "coterminal")
    async_val = max(min(dist.d(w, w2) for w2 in other) for w in geo)
    geo, other = path(res_sync, "geodesic"), path(res_sync, "coterminal")
    sync_val = max(dist.d(w, w2) for w, w2 in zip(geo, other))
    return 2 * async_val, 2 * sync_val


@pytest.mark.parametrize(
    "text,r_in",
    [("Z x Z", 2), ("Z6", 2), ("S4", 2), ("Z2 * Z3", 2), ("(Z2 * Z3) x Z", 2)],
)
def test_bigons_match_uncapped_enumeration(make_pair, text, r_in):
    # the default plan keeps the 64-path cap, which bigons no longer use
    ball, dist = make_pair(text, r_in)
    res_async, res_sync = bigon_constants(ball, dist, EXHAUSTIVE)
    values = (res_async.value_doubled, res_sync.value_doubled)
    assert values == _bigon_enumeration_oracle(ball, dist)
    assert res_async.bound == res_sync.bound == "exact"
    if values != (0, 0):
        assert _bigon_witness_values(ball, dist, res_async, res_sync) == values


def test_bigons_grid_r4_exact(make_pair):
    # pairs at distance 8 have 70 geodesics, past the default cap of 64
    ball, dist = make_pair("Z x Z", 4)
    res_async, res_sync = bigon_constants(ball, dist, EXHAUSTIVE)
    assert (res_async.value_doubled, res_sync.value_doubled) == (8, 16)
    assert res_async.bound == res_sync.bound == "exact"
    assert "capped" not in res_async.extra
    assert _bigon_witness_values(ball, dist, res_async, res_sync) == (8, 16)


def test_bigon_witness_reevaluates(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    res_async, _ = bigon_constants(ball, dist, UNCAPPED)
    geo = [ball.index_of_word(w) for w in res_async.witness["geodesic"]]
    other = [ball.index_of_word(w) for w in res_async.witness["coterminal"]]
    value = max(min(dist.d(w, w2) for w2 in other) for w in geo)
    assert value == res_async.value_doubled // 2


# ---------------------------------------------------------------------------
# detour constant

def test_detour_tree_zero_all_pairs(make_pair):
    ball, dist = make_pair("F(a,b)", 1)
    for x, y in itertools.combinations(range(ball.inner_count), 2):
        value, _ = detour_for_pair(ball, dist, x, y)
        assert value == detour_pair_oracle(ball, x, y) == 0


@pytest.mark.parametrize(
    "text,r_in,word,expected",
    [("Z6", 3, "t1^3", 1), ("Z10", 5, "t1^5", 2)],
)
def test_detour_cyclic_antipodal(make_pair, text, r_in, word, expected):
    ball, dist = make_pair(text, r_in)
    x, y = ball.index_of_word("1"), ball.index_of_word(word)
    value, _ = detour_for_pair(ball, dist, x, y)
    assert value == expected
    assert detour_pair_oracle(ball, x, y) == expected


def test_detour_matches_oracle_on_small_balls(make_pair):
    for text, r_in in (("Z6", 3), ("Z2 * Z3", 1), ("Z x Z", 1)):
        ball, dist = make_pair(text, r_in)
        for x, y in itertools.combinations(range(ball.inner_count), 2):
            value, _ = detour_for_pair(ball, dist, x, y)
            assert value == detour_pair_oracle(ball, x, y)


@settings(max_examples=60)
@given(data=st.data())
def test_detour_for_pair_matches_oracle_random(make_pair, data):
    # two-atom specs at R1: padded balls of at most 53 vertices, where the
    # oracle's simple-path enumeration stays small
    atoms = st.sampled_from(["Z", "Z2", "Z3", "Z4", "S3"])
    text = f"{data.draw(atoms)} {data.draw(st.sampled_from(['x', '*']))} {data.draw(atoms)}"
    ball, dist = make_pair(text, 1)
    x, y = data.draw(st.lists(st.integers(0, ball.inner_count - 1), min_size=2, max_size=2, unique=True))
    value, p = detour_for_pair(ball, dist, x, y)
    assert value == detour_pair_oracle(ball, x, y)
    # the probe is the smallest one attaining the value: x and y stay linked
    # outside its open (value)-ball, and outside no smaller probe's
    graph = nx_graph(ball)

    def linked(q, r):
        sub = graph.subgraph(np.flatnonzero(dist.row(q) >= r).tolist())
        return x in sub and y in sub and nx.has_path(sub, x, y)

    probes = interval(dist, x, y).vertices
    assert p in probes and linked(p, value)
    assert not any(linked(q, value) for q in probes if q < p)


@pytest.mark.parametrize("text,r_in", [("Z x Z", 2), ("Z10", 5)])
@pytest.mark.parametrize("entries", [1, 1 << 30], ids=["one-probe-per-chunk", "one-chunk"])
def test_detour_report_independent_of_chunk(make_pair, monkeypatch, text, r_in, entries):
    ball, dist = make_pair(text, r_in)
    expected = detour_epsilon(ball, dist, EXHAUSTIVE).to_dict()
    monkeypatch.setattr(invariants, "_DETOUR_ENTRIES", entries)
    assert detour_epsilon(ball, dist, EXHAUSTIVE).to_dict() == expected


@pytest.mark.parametrize("text,r_in", [("Z", 1), ("Z2 * Z3", 1), ("Z x Z", 1)])
def test_masked_path_ignores_outside_entries(make_pair, text, r_in):
    # with nothing masked, a path between boundary vertices is a shortest
    # path of the ball: the -1 entries of boundary rows are not edges
    ball, _ = make_pair(text, r_in)
    graph = nx_graph(ball)
    boundary = np.flatnonzero(ball.dist0 == ball.r_out).tolist()
    everything = np.zeros(ball.n_vertices, dtype=np.int16)
    for x in boundary:
        for y in boundary:
            path = masked_path(ball, everything, 0, x, y)
            assert path[0] == x and path[-1] == y
            assert len(path) - 1 == nx.shortest_path_length(graph, x, y)
            assert all(graph.has_edge(a, b) for a, b in zip(path, path[1:]))


def test_detour_probe_at_endpoint_contributes_zero(make_pair):
    ball, dist = make_pair("Z6", 3)
    res = detour_epsilon(ball, dist, EXHAUSTIVE)
    assert res.bound == "lower"
    # the endpoint itself can never be avoided
    x, y = ball.index_of_word("1"), ball.index_of_word("t1^3")
    assert list(invariants._detour_levels(ball, dist, [x], [x], [y])) == [0]


def test_detour_of_a_point_is_zero(make_pair):
    # the only probe is the point itself, at distance 0 from every path
    ball, dist = make_pair("Z x Z", 1)
    for x in range(ball.inner_count):
        assert detour_for_pair(ball, dist, x, x) == (0, x)


def test_detour_witness_reevaluates(make_pair):
    ball, dist = make_pair("Z10", 5)
    res = detour_epsilon(ball, dist, EXHAUSTIVE)
    assert res.value_doubled == 4
    p = ball.index_of_word(res.witness["geodesic_point"])
    path = [ball.index_of_word(w) for w in res.witness["adversarial_path"]]
    assert path[0] == ball.index_of_word(res.witness["start"])
    assert path[-1] == ball.index_of_word(res.witness["end"])
    assert min(dist.d(p, w) for w in path) == res.value_doubled // 2


# ---------------------------------------------------------------------------
# mesh

def test_mesh_tree_zero(make_pair):
    ball, dist = make_pair("F(a,b)", 2)
    res = mesh_estimate(ball, dist, EXHAUSTIVE)
    assert res.value_doubled == 0 and res.bound == "lower"


def test_mesh_grid_nondecreasing(make_pair):
    values = []
    for r_in in (2, 3, 4):
        ball, dist = make_pair("Z x Z", r_in)
        plan = SamplingPlan(mode="exhaustive", geodesic_cap=4)
        values.append(mesh_estimate(ball, dist, plan).value_doubled)
    assert values[0] > 0
    assert values == sorted(values)


def test_mesh_adversarial_at_least_geodesic(make_pair):
    ball, dist = make_pair("Z10", 5)
    geo = mesh_estimate(ball, dist, EXHAUSTIVE, mode="geodesic")
    adv = mesh_estimate(ball, dist, EXHAUSTIVE, mode="adversarial")
    assert adv.value_doubled >= geo.value_doubled


@pytest.mark.parametrize(
    "mode,plan",
    [
        ("geodesic", SamplingPlan(mode="exhaustive", geodesic_cap=4)),
        ("adversarial", SamplingPlan(mode="exhaustive", geodesic_cap=4)),
        ("geodesic", SamplingPlan.random(60, 11, geodesic_cap=4)),
    ],
    ids=["geodesic", "adversarial", "random"],
)
def test_mesh_witness_reevaluates(make_pair, mode, plan):
    ball, dist = make_pair("Z x Z", 2)
    res = mesh_estimate(ball, dist, plan, mode=mode)
    assert res.value_doubled > 0
    pts = [ball.index_of_word(w) for w in res.witness["points"]]
    sides = [[ball.index_of_word(w) for w in s] for s in res.witness["sides"]]
    corners = [ball.index_of_word(w) for w in res.witness["corners"]]
    assert [s[0] for s in sides] == corners and [s[-1] for s in sides] == corners[1:] + corners[:1]
    for point, side in zip(pts, sides):
        assert point in side
    diam = max(dist.d(u, v) for u, v in itertools.combinations(pts, 2))
    assert diam == res.value_doubled // 2
    # the witness sides admit no closer point triple, and the points are the
    # first triple attaining it in row-major order over the sides
    triples = [(u, v, w) for u in sides[0] for v in sides[1] for w in sides[2]]
    diams = [max(dist.d(u, v), dist.d(v, w), dist.d(u, w)) for u, v, w in triples]
    assert min(diams) == res.value_doubled // 2
    assert list(triples[diams.index(min(diams))]) == pts


@pytest.mark.parametrize(
    "group,r_in",
    [("F(a,b)", 2), ("Z2 * Z3", 3), ("Z x Z", 2), ("S4", 2), ("Z6", 3), ("(Z2 * Z3) x Z", 1)],
)
def test_mesh_matches_bruteforce(make_pair, group, r_in):
    ball, dist = make_pair(group, r_in)
    res = mesh_estimate(ball, dist, SamplingPlan.exhaustive(geodesic_cap=None))
    assert res.value_doubled == 2 * mesh_bruteforce(ball)
    assert res.extra["capped"] is False


@pytest.mark.parametrize(
    "group,r_in,plan",
    [("Z2", 1, EXHAUSTIVE), ("Z3", 1, SamplingPlan.random(5, 1))],
    ids=["no-triangles", "only-degenerate"],
)
def test_mesh_without_triangles(make_pair, group, r_in, plan):
    ball, dist = make_pair(group, r_in)
    assert all(len(set(t)) < 3 for t in plan.unordered_tuples(ball.inner_count, 3))
    res = mesh_estimate(ball, dist, plan)
    assert res.value_doubled == 0
    assert res.witness == {"corners": ["1", "1", "1"], "mesh": 0}
    assert res.extra == {"mode": "geodesic", "capped": False}


@pytest.mark.parametrize(
    "group,r_in,mode,plan",
    [
        ("Z x Z", 2, "geodesic", UNCAPPED),
        ("Z x Z", 2, "adversarial", SamplingPlan(mode="exhaustive", geodesic_cap=2)),
        ("Z x Z", 3, "geodesic", SamplingPlan.random(300, 5, geodesic_cap=4)),
        ("(Z2 * Z3) x Z", 1, "geodesic", UNCAPPED),
    ],
)
def test_mesh_chunking_changes_no_result(make_pair, monkeypatch, group, r_in, mode, plan):
    # one row per chunk and seven corner triples per batch: triangles split
    # across chunks and batches, ties meet across chunks
    ball, dist = make_pair(group, r_in)
    expected = mesh_estimate(ball, dist, plan, mode=mode).to_dict()
    monkeypatch.setattr(invariants, "_MESH_CHUNK", 1)
    monkeypatch.setattr(invariants, "_MESH_TRIANGLES", 7)
    assert mesh_estimate(ball, dist, plan, mode=mode).to_dict() == expected


# ---------------------------------------------------------------------------
# subgroup quasi-convexity

def test_quasiconvexity_whole_group(make_pair):
    ball, dist = make_pair("F(a,b)", 2)
    res = subgroup_quasiconvexity(ball, dist, ["a", "b"])
    assert res.value_doubled == 0 and res.extra["M"] == 1


def test_quasiconvexity_squares_subgroup(make_pair):
    ball, dist = make_pair("F(a,b)", 3)
    eps = detour_epsilon(ball, dist, EXHAUSTIVE)
    res = subgroup_quasiconvexity(ball, dist, ["a.a", "b.b"], detour_result=eps)
    assert res.value_doubled == 2  # q = 1
    assert res.extra["M"] == 2
    assert eps.value_doubled == 0
    assert res.extra["q_le_epsilon_plus_M"] is True


def test_quasiconvexity_trivial_subgroup(make_pair):
    ball, dist = make_pair("F(a,b)", 2)
    res = subgroup_quasiconvexity(ball, dist, ["1"])
    assert res.value_doubled == 0
    assert res.extra["subgroup_vertices_in_ball"] == 1


def test_quasiconvexity_witness_reevaluates(make_pair):
    ball, dist = make_pair("F(a,b)", 3)
    res = subgroup_quasiconvexity(ball, dist, ["a.a", "b.b"])
    p = ball.index_of_word(res.witness["geodesic_point"])
    nearest = ball.index_of_word(res.witness["nearest_subgroup_element"])
    assert dist.d(p, nearest) == res.value_doubled // 2


def test_quasiconvexity_rejects_escaping_generator(make_pair):
    ball, dist = make_pair("F(a,b)", 1)
    with pytest.raises(ValueError):
        subgroup_quasiconvexity(ball, dist, ["a.a.a.a"])


# ---------------------------------------------------------------------------
# hyperbolic plane demo

def test_h2_values():
    assert h2_center_distance(0.0) == 0.0
    r = (math.e - 1) / (math.e + 1)
    assert abs(h2_center_distance(r) - 1.0) <= 1e-9
    assert h2_center_distance(0.999) < h2_center_distance(0.9999)
    with pytest.raises(ValueError):
        h2_center_distance(1.0)
    with pytest.raises(ValueError):
        h2_center_distance(-0.1)


# ---------------------------------------------------------------------------
# cross-cutting result properties

def test_results_are_deterministic(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    plan = SamplingPlan.random(200, 77)
    first = polygon_delta(ball, dist, 2, plan)
    second = polygon_delta(ball, dist, 2, plan)
    assert first.to_dict() == second.to_dict()


def test_no_exact_label_under_sampling(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    plan = SamplingPlan.random(50, 1)
    for res in (
        four_point_delta(dist, plan),
        polygon_delta(ball, dist, 1, plan),
        detour_epsilon(ball, dist, plan),
        mesh_estimate(ball, dist, plan),
        *bigon_constants(ball, dist, plan),
    ):
        assert res.bound in ("lower", "upper")


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan(mode="weird")
    with pytest.raises(ValueError):
        SamplingPlan(mode="random", count=10)
    with pytest.raises(ValueError):
        SamplingPlan(mode="exhaustive", geodesic_cap=0)


# ---------------------------------------------------------------------------
# the clipping certificate: rows clipped at 2R + 1 change no reported result

class UnclippedDistances(DistanceMatrix):
    """Full-ball rows: every distance exact, none clipped."""

    def _clipped_rows(self, sources):
        return shortest_path(self.ball.csr(), unweighted=True, indices=sources).astype(np.int16)


@pytest.mark.parametrize(
    "text,r_in",
    [("Z x Z", 2), ("Z x Z", 3), ("Z2 * Z3", 3), ("Z2 * Z3", 4), ("F(a,b)", 2), ("S4", 2), ("(Z2 * Z3) x Z", 2)],
)
def test_clipped_rows_change_no_result(text, r_in):
    config = cli.AnalysisConfig(group=text, radii=[r_in])
    ball = build_ball(config.spec, r_in)
    plan = config.plan()
    clipped, full = DistanceMatrix(ball), UnclippedDistances(ball)
    assert full.row(ball.n_vertices - 1).max() > clipped.clip
    for selector, task in config.tasks:
        got = [res.to_dict() for res in task(ball, clipped, plan)]
        want = [res.to_dict() for res in task(ball, full, plan)]
        assert got == want, selector
