import itertools
import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scipy.sparse.csgraph import connected_components, shortest_path

from cayleyball import (
    DistanceMatrix,
    bigon_constants,
    build_ball,
    cli,
    chain_defect,
    detour_epsilon,
    enumerate_geodesics,
    four_point_delta,
    h2_center_distance,
    mesh_estimate,
    parse_group_spec,
    polygon_delta,
    rips_delta,
    subgroup_quasiconvexity,
)
from cayleyball import InternalCheckError, geodesics, invariants
from cayleyball import ball as ball_module
from cayleyball.ball import connected_without
from cayleyball.invariants import (
    SamplingPlan,
    _bottleneck_chain,
    _bottleneck_defect,
    _gromov_matrix,
    _pair_detours,
    _polygon_tuple_batch,
    _polygon_tuples,
    masked_path,
)
from oracles import (
    bfs_distances,
    chain_bruteforce,
    detour_pair_oracle,
    doubled_gromov_oracle,
    four_point_tensor,
    geodesics_dfs_oracle,
    grid_bigon_oracle,
    grid_sync_oracle,
    interval_oracle,
    mesh_bruteforce,
    nx_graph,
    polygon_thinness_oracle,
    polygon_tuple_oracle,
    quasiconvexity_oracle,
)

EXHAUSTIVE = SamplingPlan.exhaustive()
UNCAPPED = SamplingPlan(mode="exhaustive", geodesic_cap=None)


# ---------------------------------------------------------------------------
# Gromov products

def test_gromov_product_examples(make_pair):
    ball, dist = make_pair("F(a,b)", 2)
    one = ball.index_of_word("1")
    a, b = ball.index_of_word("a"), ball.index_of_word("b")
    ab, ab_inv = ball.index_of_word("a.b"), ball.index_of_word("a.b^-1")
    G = _gromov_matrix(dist, one)
    assert G[a, b] == 0 == doubled_gromov_oracle(ball, a, b, one)
    assert G[ab, ab_inv] == 2 == doubled_gromov_oracle(ball, ab, ab_inv, one)
    assert G[a, a] == 2 * dist.d(one, a) == doubled_gromov_oracle(ball, a, a, one)


def test_gromov_product_bounds(make_pair):
    ball, dist = make_pair("Z2 * Z3", 2)
    rng = random.Random(3)
    for _ in range(500):
        x, y, p = (rng.randrange(ball.inner_count) for _ in range(3))
        g = int(_gromov_matrix(dist, p)[x, y])
        assert g == doubled_gromov_oracle(ball, x, y, p)
        assert 0 <= g <= 2 * min(dist.d(p, x), dist.d(p, y))


def _draw_two_atom_pair(make_pair, data, max_inner=None, extra_generator=False):
    # (ball, dist) of a spec "A x B" or "A * B" over small atoms at R1 or
    # R2; with extra_generator, on the standard generators or those plus
    # one product of two of them; balls with more than max_inner inner
    # vertices are skipped
    atoms = st.sampled_from(["Z", "Z2", "Z3", "Z4", "S3"])
    text = f"{data.draw(atoms)} {data.draw(st.sampled_from(['x', '*']))} {data.draw(atoms)}"
    r_in = data.draw(st.integers(1, 2))
    generators = None
    names = list(parse_group_spec(text).generator_names) if extra_generator else []
    if len(names) >= 2 and data.draw(st.booleans()):
        first, second = data.draw(st.permutations(names))[:2]
        generators = names + [f"{first}.{second}"]
    ball, dist = make_pair(text, r_in, generators=generators)
    assume(max_inner is None or ball.inner_count <= max_inner)
    return ball, dist


# ---------------------------------------------------------------------------
# sampling plans

@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 64, 65, 1000, 3343, 65536, 100000])
@pytest.mark.parametrize("arity", [2, 3, 4])
def test_sampled_tuples_match_scalar_randrange(n, arity):
    # the bulk draw keeps the stream of one randrange call per corner,
    # powers of two and n = 1 included; batches slice it in order
    for seed in (0, 7):
        plan = SamplingPlan.random(300, seed)
        rng = random.Random(seed)
        want = [[rng.randrange(n) for _ in range(arity)] for _ in range(300)]
        (ordered,) = plan.tuples(n, arity)
        assert ordered.dtype == np.int64 and ordered.tolist() == want
        batches = list(plan.tuples(n, arity, unordered=True, size=128))
        assert [len(b) for b in batches] == [128, 128, 44]
        assert np.concatenate(batches).tolist() == [sorted(t) for t in want]


@pytest.mark.parametrize("size", [1, 7, None])
def test_exhaustive_tuples_read_itertools(size):
    # products and combinations in itertools order, in batches of at most
    # `size` rows, none of them empty
    plan = SamplingPlan.exhaustive()
    for unordered, source in (
        (False, itertools.product(range(5), repeat=3)),
        (True, itertools.combinations(range(5), 3)),
    ):
        batches = list(plan.tuples(5, 3, unordered=unordered, size=size))
        assert all(b.dtype == np.int64 and 0 < len(b) <= (size or len(b)) for b in batches)
        assert np.concatenate(batches).tolist() == [list(t) for t in source]
    assert list(plan.tuples(2, 3, unordered=True)) == []


def test_sampled_tuples_refuse_wide_ranges():
    plan = SamplingPlan.random(3, 1)
    assert next(plan.tuples(2**32 - 1, 2)).shape == (3, 2)
    with pytest.raises(InternalCheckError):
        next(plan.tuples(2**32, 2))


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


@pytest.mark.parametrize("text,r_in", [("Z x Z", 3), ("(Z2 * Z3) x Z", 2), ("S4", 2)])
def test_sampled_four_point_matches_scalar_loop(make_pair, text, r_in):
    # one doubled Gromov product per term and quadruple, keeping the highest
    # defect and then the smallest (p, x1, x0, x2)
    ball, dist = make_pair(text, r_in)
    plan = SamplingPlan.random(500, 4)
    defect, key = max(
        (
            min(
                doubled_gromov_oracle(ball, x0, x1, p),
                doubled_gromov_oracle(ball, x1, x2, p),
            ) - doubled_gromov_oracle(ball, x0, x2, p),
            tuple(-c for c in (p, x1, x0, x2)),
        )
        for x0, x1, x2, p in next(plan.tuples(ball.inner_count, 4)).tolist()
    )
    res = four_point_delta(dist, plan)
    assert res.value_doubled == max(0, defect)
    p, x1, x0, x2 = (-c for c in key)
    assert [res.witness[k] for k in ("basepoint", "x1", "x0", "x2")] == [ball.word(c) for c in (p, x1, x0, x2)]


def test_four_point_witness_reevaluates(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    res = four_point_delta(dist, EXHAUSTIVE)
    w = res.witness
    x0, x1, x2, p = (
        ball.index_of_word(w[k]) for k in ("x0", "x1", "x2", "basepoint")
    )
    recomputed = min(
        doubled_gromov_oracle(ball, x0, x1, p),
        doubled_gromov_oracle(ball, x1, x2, p),
    ) - doubled_gromov_oracle(ball, x0, x2, p)
    assert recomputed == res.value_doubled
    # the witness is the lexicographically first (p, x1, x0, x2) attaining the max
    n = ball.inner_count
    values = {
        (q, y1, y0, y2): min(
            doubled_gromov_oracle(ball, y0, y1, q),
            doubled_gromov_oracle(ball, y1, y2, q),
        ) - doubled_gromov_oracle(ball, y0, y2, q)
        for q, y1, y0, y2 in itertools.product(range(n), repeat=4)
    }
    best = max(values.values())
    assert res.value_doubled == best
    assert (p, x1, x0, x2) == min(key for key, value in values.items() if value == best)


@settings(max_examples=60)
@given(data=st.data())
def test_four_point_matches_tensor_oracle(make_pair, data):
    # two-atom specs, standard generators at R1 or R2 or one to three extra
    # generator words at R1: the max-min square against one tensor per basepoint
    atoms = st.sampled_from(["Z", "Z2", "Z3", "Z4", "S3"])
    text = f"{data.draw(atoms)} {data.draw(st.sampled_from(['x', '*']))} {data.draw(atoms)}"
    words, r_in = None, data.draw(st.sampled_from([1, 2]))
    if data.draw(st.booleans()):
        spec = parse_group_spec(text)
        token = st.sampled_from([f"{n}{e}" for n in spec.generator_names for e in ("", "^-1")])
        words = list(spec.generator_names) + data.draw(
            st.lists(st.lists(token, min_size=1, max_size=2).map(".".join), min_size=1, max_size=3)
        )
        words = [w for w in words if spec.parse_word(w) != spec.identity()]
        r_in = 1
    ball, dist = make_pair(text, r_in, generators=words)
    res = four_point_delta(dist, EXHAUSTIVE)
    value, key = four_point_tensor(dist.inner)
    assert res.value_doubled == value and res.bound == "exact"
    assert [res.witness[k] for k in ("basepoint", "x1", "x0", "x2")] == [ball.word(c) for c in key]


# ---------------------------------------------------------------------------
# chain defect

def test_chain_tree_zero(make_pair):
    ball, dist = make_pair("F(a,b)", 2)
    assert chain_defect(dist).value_doubled == 0
    assert all(chain_bruteforce(_gromov_matrix(dist, p), maxlen=4)[0] == 0 for p in range(ball.inner_count))


def test_chain_two_vertex_ball(make_pair):
    _, dist = make_pair("Z2", 1)
    assert chain_defect(dist).value_doubled == 0


@pytest.mark.parametrize(
    "text,r_in", [("Z x Z", 2), ("Z2 * Z3", 2), ("S3", 2), ("Z", 2), ("Z6", 3)]
)
def test_bottleneck_equals_bruteforce(make_pair, text, r_in):
    ball, dist = make_pair(text, r_in)
    for p in range(ball.inner_count):
        G = _gromov_matrix(dist, p)
        assert _bottleneck_defect(G)[0] == chain_bruteforce(G, maxlen=4)[0]


def test_chain_dominates_four_point(make_pair):
    # a 2-chain is a special chain, so at any fixed basepoint the chain
    # defect is at least the four-point defect
    ball, dist = make_pair("Z x Z", 2)
    for p in range(ball.inner_count):
        G = _gromov_matrix(dist, p)
        chain = _bottleneck_defect(G)[0]
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
    assert value == chain_bruteforce(G, maxlen=n - 1)[0]
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
    value, _, _ = _polygon_tuple_batch(ball, dist, np.array([(x, x, y)]))
    assert value == polygon_tuple_oracle(ball, (x, x, y))[0] == 0


def test_polygon_scan_matches_literal_enumeration(make_pair):
    # dual route: the bottleneck scan against direct enumeration of all
    # geodesic choices for every corner tuple; per tuple, the tuple batch and
    # the oracle's DP give the literal value too
    for text, r_in in (("Z x Z", 1), ("Z4", 1), ("Z2 * Z3", 2)):
        ball, dist = make_pair(text, r_in)
        for n in (1, 2):
            scanned = polygon_delta(ball, dist, n, UNCAPPED).value_doubled
            literal = 0
            for corners in itertools.product(range(ball.inner_count), repeat=n + 1):
                tuple_literal = _literal_tuple_thinness(ball, corners)
                assert polygon_tuple_oracle(ball, corners)[0] == tuple_literal, corners
                assert _polygon_tuple_batch(ball, dist, np.array([corners]))[0] == tuple_literal, corners
                literal = max(literal, tuple_literal)
            assert scanned == 2 * literal


def _literal_tuple_thinness(ball, corners):
    """Worst thinness of one corner tuple over every choice of geodesic
    sides, listed by the depth-first oracle."""
    sides = [geodesics_dfs_oracle(ball, u, v)[0] for u, v in zip(corners, corners[1:] + corners[:1])]
    return max(polygon_thinness_oracle(ball, combo) for combo in itertools.product(*sides))


@settings(max_examples=20)
@given(data=st.data())
def test_polygon_scan_matches_literal_enumeration_random_specs(make_pair, data):
    # the scan against the literal worst tuple over every choice of
    # geodesic sides, n = 1 and 2, on random two-atom specs
    ball, dist = _draw_two_atom_pair(make_pair, data, max_inner=10, extra_generator=True)
    for n in (1, 2):
        literal = max(
            _literal_tuple_thinness(ball, corners)
            for corners in itertools.product(range(ball.inner_count), repeat=n + 1)
        )
        assert polygon_delta(ball, dist, n, UNCAPPED).value_doubled == 2 * literal


def test_polygon_tuple_value_matches_literal(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    rng = random.Random(17)
    for _ in range(25):
        corners = tuple(rng.randrange(ball.inner_count) for _ in range(3))
        literal = _literal_tuple_thinness(ball, corners)
        value, _, probe = _polygon_tuple_batch(ball, dist, np.array([corners]))
        assert value == literal
        assert polygon_tuple_oracle(ball, corners) == (literal, probe)


# every corner tuple over every geodesic choice: the scan is the oracle
EXHAUSTIVE_TUPLE_CASES = [
    ("Z x Z", 1, 1), ("Z x Z", 1, 2), ("Z x Z", 1, 3), ("Z x Z", 2, 1), ("Z x Z", 2, 2),
    ("Z2 * Z3", 2, 1), ("Z2 * Z3", 2, 2), ("Z2 * Z3", 2, 3),
    ("S4", 1, 1), ("S4", 1, 2),
    ("(Z2 * Z3) x Z", 1, 1), ("(Z2 * Z3) x Z", 1, 2),
    ("Z6", 2, 1), ("Z6", 2, 2), ("Z6", 2, 3),
]


@pytest.mark.parametrize("text,r_in,n", EXHAUSTIVE_TUPLE_CASES)
def test_exhaustive_tuples_match_scan(make_pair, text, r_in, n):
    ball, dist = make_pair(text, r_in)
    scan = polygon_delta(ball, dist, n, EXHAUSTIVE)
    tuples = _polygon_tuples(ball, dist, n, EXHAUSTIVE)
    assert (scan.extra["method"], tuples.extra["method"]) == ("scan", "tuples")
    assert tuples.bound == scan.bound == "exact"
    assert tuples.value_doubled == scan.value_doubled
    # the witness is the first worst tuple in lexicographic order
    corners = tuple(ball.index_of_word(w) for w in tuples.witness["corners"])
    value, probe = polygon_tuple_oracle(ball, corners)
    assert 2 * value == tuples.value_doubled
    assert ball.word(probe) == tuples.witness["far_point"]
    for other in itertools.product(range(ball.inner_count), repeat=n + 1):
        if other == corners:
            break
        assert 2 * polygon_tuple_oracle(ball, other)[0] < tuples.value_doubled


@pytest.mark.parametrize("text,r_in", [("Z x Z", 3), ("(Z2 * Z3) x Z", 2), ("Z2 * Z3", 4)])
@pytest.mark.parametrize("entries", [1, 1 << 30], ids=["one-query-per-chunk", "one-chunk"])
def test_sampled_polygon_report_independent_of_chunk(make_pair, monkeypatch, text, r_in, entries):
    # also seven tuples per batch, so ties meet across batches
    ball, dist = make_pair(text, r_in)
    plan = SamplingPlan.random(120, 3)
    expected = [polygon_delta(ball, dist, n, plan).to_dict() for n in (1, 2, 3)]
    monkeypatch.setattr(geodesics, "_AVOIDANCE_ENTRIES", entries)
    monkeypatch.setattr(invariants, "_POLYGON_TUPLES", 7)
    assert [polygon_delta(ball, dist, n, plan).to_dict() for n in (1, 2, 3)] == expected


def test_sampled_polygon_matches_scalar_tuples(make_pair, monkeypatch):
    # the batched path against one polygon_tuple_oracle per sampled tuple,
    # with the same tie-breaks: highest value, then the smallest tuple;
    # avoidance chunks of one DP value, one unit each, give the same report
    for text, r_in in (("Z x Z", 3), ("(Z2 * Z3) x Z", 2), ("S4", 2)):
        ball, dist = make_pair(text, r_in)
        for n in (1, 2, 3):
            plan = SamplingPlan.random(60, 8 + n)
            res = polygon_delta(ball, dist, n, plan)
            best = max(
                (polygon_tuple_oracle(ball, corners)[0], tuple(-c for c in corners), corners)
                for corners in map(tuple, next(plan.tuples(ball.inner_count, n + 1)).tolist())
            )
            value, _, corners = max(best, (0, (0,) * (n + 1), (0,) * (n + 1)))
            assert res.value_doubled == 2 * value
            assert res.witness["corners"] == [ball.word(c) for c in corners]
            assert ball.word(polygon_tuple_oracle(ball, corners)[1]) == res.witness["far_point"]
            with monkeypatch.context() as mp:
                mp.setattr(geodesics, "_AVOIDANCE_ENTRIES", 1)
                assert polygon_delta(ball, dist, n, plan).to_dict() == res.to_dict()


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


def test_polygon_too_many_corners(make_pair):
    ball, dist = make_pair("Z2", 1)
    with pytest.raises(ValueError):
        polygon_delta(ball, dist, ball.inner_count, EXHAUSTIVE)


def test_polygon_witness_reevaluates(make_pair):
    for plan in (EXHAUSTIVE, SamplingPlan.random(100, 31)):
        ball, dist = make_pair("Z x Z", 2)
        res = polygon_delta(ball, dist, 2, plan)
        w = res.witness
        sides = [[ball.index_of_word(t) for t in side] for side in w["sides"] + [w["last_side"]]]
        assert polygon_thinness_oracle(ball, sides) == res.value_doubled // 2


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
                async_val = max(min(dist.d(w, w2) for w2 in pj) for w in pi)
                sync_val = max(dist.d(w, w2) for w, w2 in zip(pi, pj))
                assert sync_val <= 2 * async_val


def _bigon_enumeration_oracle(ball):
    """Literal (async, sync) over every ordered pair of geodesics, listed by
    the depth-first oracle and measured by breadth-first distances."""
    best_async = best_sync = 0
    for x, y in itertools.combinations(range(ball.inner_count), 2):
        paths, _ = geodesics_dfs_oracle(ball, x, y)
        for pi, pj in itertools.permutations(paths, 2):
            best_async = max(best_async, max(min(bfs_distances(ball, w)[w2] for w2 in pj) for w in pi))
            best_sync = max(best_sync, max(bfs_distances(ball, w)[w2] for w, w2 in zip(pi, pj)))
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
def test_bigons_match_uncapped_enumeration(make_pair, monkeypatch, text, r_in):
    # the default plan keeps the 64-path cap, which bigons no longer use
    ball, dist = make_pair(text, r_in)
    res_async, res_sync = bigon_constants(ball, dist, EXHAUSTIVE)
    values = (res_async.value_doubled, res_sync.value_doubled)
    assert values == _bigon_enumeration_oracle(ball)
    assert res_async.bound == res_sync.bound == "exact"
    if values != (0, 0):
        assert _bigon_witness_values(ball, dist, res_async, res_sync) == values
    # avoidance chunks of one DP value, one pair's unit each
    monkeypatch.setattr(geodesics, "_AVOIDANCE_ENTRIES", 1)
    chunked = bigon_constants(ball, dist, EXHAUSTIVE)
    assert [r.to_dict() for r in chunked] == [res_async.to_dict(), res_sync.to_dict()]


@settings(max_examples=25)
@given(data=st.data())
def test_bigons_match_uncapped_enumeration_random_specs(make_pair, data):
    # exhaustive async and sync against every ordered pair of geodesics,
    # on random two-atom specs
    ball, dist = _draw_two_atom_pair(make_pair, data, max_inner=16, extra_generator=True)
    res_async, res_sync = bigon_constants(ball, dist, EXHAUSTIVE)
    assert (res_async.value_doubled, res_sync.value_doubled) == _bigon_enumeration_oracle(ball)


def test_bigons_grid_r4_exact(make_pair):
    # pairs at distance 8 have 70 geodesics, past the default cap of 64
    ball, dist = make_pair("Z x Z", 4)
    res_async, res_sync = bigon_constants(ball, dist, EXHAUSTIVE)
    assert (res_async.value_doubled, res_sync.value_doubled) == (8, 16)
    assert res_async.bound == res_sync.bound == "exact"
    assert "capped" not in res_async.extra
    assert _bigon_witness_values(ball, dist, res_async, res_sync) == (8, 16)


@settings(max_examples=40)
@given(data=st.data())
def test_bigon_async_equals_polygon_one(make_pair, data):
    # one number by two routes under an exhaustive plan: the polygon scan's
    # WP over hull probes, and the bigon store DP over each pair's own
    # interval vertices, on two-atom specs at R1 or R2
    ball, dist = _draw_two_atom_pair(make_pair, data)
    res_async, _ = bigon_constants(ball, dist, EXHAUSTIVE)
    assert res_async.value_doubled == polygon_delta(ball, dist, 1, EXHAUSTIVE).value_doubled


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
    pairs = list(itertools.combinations(range(ball.inner_count), 2))
    values, _ = _pair_detours(ball, dist, pairs)
    assert values.tolist() == [detour_pair_oracle(ball, x, y) for x, y in pairs] == [0] * len(pairs)


@pytest.mark.parametrize(
    "text,r_in,word,expected",
    [("Z6", 3, "t1^3", 1), ("Z10", 5, "t1^5", 2)],
)
def test_detour_cyclic_antipodal(make_pair, text, r_in, word, expected):
    ball, dist = make_pair(text, r_in)
    x, y = ball.index_of_word("1"), ball.index_of_word(word)
    values, _ = _pair_detours(ball, dist, [(x, y)])
    assert values.tolist() == [expected]
    assert detour_pair_oracle(ball, x, y) == expected


def test_detour_matches_oracle_on_small_balls(make_pair):
    for text, r_in in (("Z6", 3), ("Z2 * Z3", 1), ("Z x Z", 1)):
        ball, dist = make_pair(text, r_in)
        pairs = list(itertools.combinations(range(ball.inner_count), 2))
        values, _ = _pair_detours(ball, dist, pairs)
        assert values.tolist() == [detour_pair_oracle(ball, x, y) for x, y in pairs]


@settings(max_examples=60)
@given(data=st.data())
def test_detour_for_pair_matches_oracle_random(make_pair, data):
    # two-atom specs at R1: padded balls of at most 53 vertices, where the
    # oracle's simple-path enumeration stays small
    atoms = st.sampled_from(["Z", "Z2", "Z3", "Z4", "S3"])
    text = f"{data.draw(atoms)} {data.draw(st.sampled_from(['x', '*']))} {data.draw(atoms)}"
    ball, dist = make_pair(text, 1)
    x, y = data.draw(st.lists(st.integers(0, ball.inner_count - 1), min_size=2, max_size=2, unique=True))
    values, probes = _pair_detours(ball, dist, [(x, y)])
    value, p = int(values[0]), int(probes[0])
    assert value == detour_pair_oracle(ball, x, y)
    # the probe is the smallest one attaining the value: x and y stay linked
    # outside its open (value)-ball, and outside no smaller probe's
    graph = nx_graph(ball)

    def linked(q, r):
        sub = graph.subgraph(np.flatnonzero(dist.row(q) >= r).tolist())
        return x in sub and y in sub and nx.has_path(sub, x, y)

    probes = interval_oracle(ball, x, y)
    assert p in probes and linked(p, value)
    assert not any(linked(q, value) for q in probes if q < p)


@pytest.mark.parametrize("text,r_in", [("Z x Z", 2), ("Z10", 5), ("(Z2 * Z3) x Z", 2)])
@pytest.mark.parametrize("entries", [1, 1 << 30], ids=["one-probe-per-chunk", "one-chunk"])
def test_detour_report_independent_of_chunk(make_pair, monkeypatch, text, r_in, entries):
    # each case has queries that pass level 1 and go on to the stacked levels
    # (the level-1 pass then runs one subtree per reduceat, or all at once)
    ball, dist = make_pair(text, r_in)
    expected = detour_epsilon(ball, dist, EXHAUSTIVE).to_dict()
    assert expected["value_doubled"] >= 4
    p, x, y = np.random.default_rng(0).integers(0, ball.n_vertices, size=(3, 500))
    linked = connected_without(ball, p, x, y)
    monkeypatch.setattr(invariants, "_DETOUR_ENTRIES", entries)
    monkeypatch.setattr(ball_module, "_SUBTREE_RANGES", entries)
    assert detour_epsilon(ball, dist, EXHAUSTIVE).to_dict() == expected
    assert (connected_without(ball, p, x, y) == linked).all()


@settings(max_examples=40)
@given(data=st.data())
def test_detour_level_one_matches_networkx(make_pair, data):
    # level 1 is reached iff neither endpoint is the probe and the probe does
    # not cut x from y in the ball; queries range over the whole padded ball
    atoms = st.sampled_from(["Z", "Z2", "Z3", "Z4", "S3"])
    text = f"{data.draw(atoms)} {data.draw(st.sampled_from(['x', '*']))} {data.draw(atoms)}"
    ball, dist = make_pair(text, data.draw(st.integers(1, 2)))
    vertex = st.integers(0, ball.n_vertices - 1)
    p, x, y = data.draw(vertex), data.draw(vertex), data.draw(vertex)
    # the DFS root, probes at an endpoint and a repeated endpoint
    queries = [(p, x, y), (0, x, y), (x, x, y), (y, x, y), (p, x, x), (0, p, p)]
    probes, xs, ys = (list(c) for c in zip(*queries))
    got = connected_without(ball, np.array(probes), np.array(xs), np.array(ys))
    graph = nx_graph(ball)
    for (q, a, b), reached in zip(queries, got.tolist()):
        rest = nx.restricted_view(graph, [q], [])
        assert reached == (a != q and b != q and nx.has_path(rest, a, b)), (q, a, b)
    levels = invariants._detour_levels(ball, dist, probes, xs, ys)
    assert ((levels >= 1) == got).all()


@pytest.mark.parametrize("text,r_in", [("F(a,b)", 2), ("Z2 * Z3", 3)])
def test_detour_stops_at_level_one_without_component_passes(make_pair, monkeypatch, text, r_in):
    # every query of a virtually free ball stops at level 1, which one
    # depth-first search resolves: no component pass runs
    ball, dist = make_pair(text, r_in)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return connected_components(*args, **kwargs)

    monkeypatch.setattr(invariants, "connected_components", counted)
    assert detour_epsilon(ball, dist, EXHAUSTIVE).value_doubled == 0
    assert calls == []


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
    points = list(range(ball.inner_count))
    values, probes = _pair_detours(ball, dist, [(x, x) for x in points])
    assert values.tolist() == [0] * len(points) and probes.tolist() == points


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


@settings(max_examples=10)
@given(data=st.data())
def test_mesh_matches_bruteforce_random_specs(make_pair, data):
    # the uncapped exhaustive mesh against literal enumeration on random
    # two-atom specs; adversarial side choices add to the geodesic ones,
    # so they can only raise it
    ball, dist = _draw_two_atom_pair(make_pair, data, max_inner=20, extra_generator=True)
    geodesic = mesh_estimate(ball, dist, UNCAPPED)
    assert geodesic.value_doubled == 2 * mesh_bruteforce(ball)
    adversarial = mesh_estimate(ball, dist, UNCAPPED, mode="adversarial")
    assert adversarial.value_doubled >= geodesic.value_doubled


@pytest.mark.parametrize(
    "group,r_in,plan",
    [("Z2", 1, EXHAUSTIVE), ("Z3", 1, SamplingPlan.random(5, 1))],
    ids=["no-triangles", "only-degenerate"],
)
def test_mesh_without_triangles(make_pair, group, r_in, plan):
    ball, dist = make_pair(group, r_in)
    assert all(len(set(t)) < 3 for batch in plan.tuples(ball.inner_count, 3, unordered=True) for t in batch.tolist())
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


QC_CASES = [
    (text, r_in)
    for text in ("F(a,b)", "Z x Z", "Z2 * Z3", "S4", "(Z2 * Z3) x Z")
    for r_in in (1, 2)
]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_quasiconvexity_matches_networkx_oracle(make_pair, data):
    # random subgroups of random small balls: one or two generator words of
    # one to three letters, against closure, all shortest paths and BFS
    text, r_in = data.draw(st.sampled_from(QC_CASES))
    ball, dist = make_pair(text, r_in)
    letter = st.sampled_from([ball.label(i) for i in range(len(ball.letters))])
    words = data.draw(st.lists(st.lists(letter, min_size=1, max_size=3), min_size=1, max_size=2))
    gens = [".".join(w) for w in words]
    res = subgroup_quasiconvexity(ball, dist, gens)
    value, witness = quasiconvexity_oracle(ball, gens)
    assert res.value_doubled == 2 * value
    keys = ("h", "h2", "geodesic_point")
    assert [res.witness[key] for key in keys] == [ball.word(w) for w in witness]


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
    # an empty or negative sample would make four_point_delta index an empty
    # array and the other invariants report a vacuous lower bound 0
    for count in (0, -3):
        with pytest.raises(ValueError):
            SamplingPlan.random(count, 1)


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
