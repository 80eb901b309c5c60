"""Acceptance suite: one pass/fail line per criterion (run with -s to see
them on success; they always show on failure)."""

import itertools
import json
import math
import re
import time

from cayleyball import (
    bigon_constants,
    chain_defect,
    detour_epsilon,
    enumerate_geodesics,
    four_point_delta,
    h2_center_distance,
    mesh_estimate,
    polygon_delta,
    rips_delta,
    subgroup_quasiconvexity,
)
from cayleyball.cli import AnalysisConfig, emit_report, run_analysis
from cayleyball.invariants import SamplingPlan, _bottleneck_defect, _gromov_matrix, _pair_detours
from oracles import chain_bruteforce, detour_pair_oracle, grid_bigon_oracle

EXHAUSTIVE = SamplingPlan.exhaustive()
UNCAPPED = SamplingPlan(mode="exhaustive", geodesic_cap=None)

# Pre-registered oracle value for criterion 4 (Z2 * Z3, polygon n=3, seed 42,
# 2000 samples): every sampled 4-gon is 0-thin at vertex level; the standard
# Cayley graph of Z2 * Z3 is a cactus of triangles in which each geodesic's
# vertex set is contained in every coterminal path.
FROZEN_Z2Z3_POLYGON3_DOUBLED = 0


def _criterion(number, description, ok):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_1_tree_exactness(make_pair):
    started = time.perf_counter()
    ball, dist = make_pair("F(a,b)", 3)
    values = {
        "four_point": four_point_delta(dist, EXHAUSTIVE).value_doubled,
        "chain": chain_defect(dist).value_doubled,
        "rips": rips_delta(ball, dist, EXHAUSTIVE).value_doubled,
        "detour": detour_epsilon(ball, dist, EXHAUSTIVE).value_doubled,
        "mesh": mesh_estimate(ball, dist, EXHAUSTIVE, mode="geodesic").value_doubled,
    }
    for n in (1, 2, 3, 4):
        values[f"polygon_{n}"] = polygon_delta(ball, dist, n, EXHAUSTIVE).value_doubled
    elapsed = time.perf_counter() - started
    ok = ball.inner_count == 53 and all(v == 0 for v in values.values())
    _criterion(
        1,
        f"F(a,b) R_in=3 exhaustive tree suite all zero "
        f"(inner={ball.inner_count}, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_2_bottleneck_oracle(make_pair):
    cases = [("F(a,b)", 2), ("Z2 * Z3", 2), ("Z x Z", 2), ("Z6", 3)]
    mismatches = []
    for text, r_in in cases:
        ball, dist = make_pair(text, r_in)
        for p in range(ball.inner_count):
            G = _gromov_matrix(dist, p)
            fast = _bottleneck_defect(G)[0]
            slow = chain_bruteforce(G, maxlen=4)[0]
            if fast != slow:
                mismatches.append((text, r_in, p, fast, slow))
    _criterion(
        2,
        "chain_defect bottleneck == bruteforce(maxlen=4) on all basepoints of "
        "F(a,b) R2, Z2*Z3 R2, ZxZ R2, Z6 R3",
        not mismatches,
    )


def test_criterion_3_grid_divergence(make_pair):
    values = []
    witness = None
    for r_in in (2, 3, 4):
        ball, dist = make_pair("Z x Z", r_in)
        res_async, _ = bigon_constants(ball, dist, UNCAPPED)
        values.append(res_async.value_doubled // 2)
        if r_in == 2:
            witness = (ball, res_async)
    increasing = values[0] < values[1] < values[2]
    ball, res = witness
    u = ball.spec.parse_word(res.witness["start"])
    v = ball.spec.parse_word(res.witness["end"])
    oracle = grid_bigon_oracle(u, v)
    _criterion(
        3,
        f"Z x Z bigon async strictly increases {values} and R2 witness value "
        f"{res.value_doubled // 2} equals monotone-lattice-path brute force {oracle}",
        increasing and oracle == res.value_doubled // 2,
    )


def test_criterion_4_virtually_free_plateau(make_pair):
    plan = SamplingPlan.random(2000, 42)
    values = []
    for r_in in (3, 4, 5):
        ball, dist = make_pair("Z2 * Z3", r_in)
        values.append(polygon_delta(ball, dist, 3, plan).value_doubled)
    ok = values == [FROZEN_Z2Z3_POLYGON3_DOUBLED] * 3
    _criterion(
        4,
        f"Z2*Z3 polygon(n=3) seed 42, 2000 samples constant over R_in=3,4,5 "
        f"at frozen value {FROZEN_Z2Z3_POLYGON3_DOUBLED} (got {values})",
        ok,
    )


def test_criterion_5_geodesic_counting(make_pair):
    ball, dist = make_pair("Z x Z", 2)
    origin = ball.index[(0, 0)]
    six, _ = enumerate_geodesics(ball, dist, origin, ball.index[(2, 2)])
    three, _ = enumerate_geodesics(ball, dist, origin, ball.index[(2, 1)])
    _criterion(
        5,
        f"Z x Z geodesic counts: (0,0)->(2,2) gives {len(six)} (want 6), "
        f"(0,0)->(2,1) gives {len(three)} (want 3)",
        len(six) == 6 and len(three) == 3,
    )


def test_criterion_6_detour_values(make_pair):
    z6, d6 = make_pair("Z6", 3)
    z10, d10 = make_pair("Z10", 5)
    pair6 = (z6.index_of_word("1"), z6.index_of_word("t1^3"))
    pair10 = (z10.index_of_word("1"), z10.index_of_word("t1^5"))
    v6 = int(_pair_detours(z6, d6, [pair6])[0][0])
    v10 = int(_pair_detours(z10, d10, [pair10])[0][0])
    ok = (
        v6 == 1 == detour_pair_oracle(z6, *pair6)
        and v10 == 2 == detour_pair_oracle(z10, *pair10)
    )
    tree, dt = make_pair("F(a,b)", 2)
    pairs = list(itertools.combinations(range(tree.inner_count), 2))
    values, _ = _pair_detours(tree, dt, pairs)
    ok = ok and not values.any() and all(detour_pair_oracle(tree, x, y) == 0 for x, y in pairs)
    _criterion(
        6,
        f"detour values: Z6 antipodal {v6} (want 1), Z10 antipodal {v10} (want 2), "
        "F(a,b) all pairs 0; each matching simple-path brute force",
        ok,
    )


def test_criterion_7_quasiconvexity(make_pair):
    ball, dist = make_pair("F(a,b)", 3)
    eps = detour_epsilon(ball, dist, EXHAUSTIVE)
    res = subgroup_quasiconvexity(ball, dist, ["a.a", "b.b"], detour_result=eps)
    q = res.value_doubled // 2
    M = res.extra["M"]
    ok = q == 1 and M == 2 and eps.value_doubled == 0 and res.extra["q_le_epsilon_plus_M"]
    _criterion(
        7,
        f"F(a,b) H=<a^2,b^2> R_in=3: q={q} (want 1), M={M} (want 2), "
        f"q <= eps + M with eps={eps.value_doubled / 2}",
        ok,
    )


def test_criterion_8_fellow_traveler(make_pair):
    violations = 0
    pairs_checked = 0
    for text, r_in in (("F(a,b)", 2), ("Z x Z", 2), ("Z2 * Z3", 2), ("Z6", 3)):
        ball, dist = make_pair(text, r_in)
        for x, y in itertools.combinations(range(ball.inner_count), 2):
            paths, _ = enumerate_geodesics(ball, dist, x, y)
            for pi, pj in itertools.permutations(paths, 2):
                async_val = max(min(dist.d(w, w2) for w2 in pj) for w in pi)
                sync_val = max(dist.d(w, w2) for w, w2 in zip(pi, pj))
                pairs_checked += 1
                if sync_val > 2 * async_val:
                    violations += 1
    _criterion(
        8,
        f"sync <= 2*async on every coterminal geodesic pair "
        f"({pairs_checked} ordered pairs across four groups)",
        violations == 0 and pairs_checked > 0,
    )


def test_criterion_9_h2_formula():
    r = (math.e - 1) / (math.e + 1)
    value = h2_center_distance(r)
    zero = h2_center_distance(0.0)
    _criterion(
        9,
        f"h2_center_distance((e-1)/(e+1)) = {value:.12f} within 1e-9 of 1; "
        f"h2_center_distance(0) = {zero} exactly",
        abs(value - 1.0) <= 1e-9 and zero == 0.0,
    )


def test_criterion_10_determinism():
    config = dict(
        group="Z2 * Z3", radii=[3, 4, 5], invariants=["polygon:3"], samples=2000, seed=42
    )
    first = emit_report(run_analysis(AnalysisConfig(**config)), "json")
    second = emit_report(run_analysis(AnalysisConfig(**config)), "json")
    strip = lambda s: re.sub(r'"wall_time_ms": [0-9.]+', '"wall_time_ms": 0', s)
    same = strip(first) == strip(second)
    values = [
        run["results"][0]["value_doubled"] for run in json.loads(first)["runs"]
    ]
    _criterion(
        10,
        f"criterion-4 config reproduces byte-identical canonical JSON modulo "
        f"timing fields (values {values})",
        same,
    )
