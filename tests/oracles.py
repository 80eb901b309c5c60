"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's clever paths (geodesic DAGs,
bottleneck reformulations, connectivity sweeps): they enumerate, rewrite
strings, or lean on networkx, so a bug in the fast code cannot hide in the
oracle that checks it.
"""

import functools
import itertools
from collections import deque

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix

from cayleyball.ball import BallGraph, BudgetExceededError, resolve_letters


# ---------------------------------------------------------------------------
# free products by naive string rewriting (for Z2 * Z3: s, t, T = t^-1)

_Z2Z3_RULES = [("ss", ""), ("tT", ""), ("Tt", ""), ("tt", "T"), ("TT", "t")]


def z2z3_rewrite(letters: str) -> str:
    """Length-reducing rewriting of a word over s, t, T to its normal form."""
    word = letters
    changed = True
    while changed:
        changed = False
        for lhs, rhs in _Z2Z3_RULES:
            if lhs in word:
                word = word.replace(lhs, rhs, 1)
                changed = True
                break
    return word


# ---------------------------------------------------------------------------
# grid oracles in L1 coordinates

def l1(p, q):
    return abs(p[0] - q[0]) + abs(p[1] - q[1])


def monotone_lattice_paths(start, end):
    """All monotone lattice paths between two grid points, as vertex tuples."""
    dx, dy = end[0] - start[0], end[1] - start[1]
    sx = 1 if dx >= 0 else -1
    sy = 1 if dy >= 0 else -1
    nx_, ny_ = abs(dx), abs(dy)
    paths = []
    for xs in itertools.combinations(range(nx_ + ny_), nx_):
        point = start
        path = [point]
        xs = set(xs)
        for step in range(nx_ + ny_):
            point = (point[0] + sx, point[1]) if step in xs else (point[0], point[1] + sy)
            path.append(point)
        paths.append(tuple(path))
    return paths


def one_sided_hausdorff_l1(P, Q):
    return max(min(l1(p, q) for q in Q) for p in P)


def grid_bigon_oracle(start, end):
    """Worst one-sided Hausdorff distance over ordered pairs of monotone paths."""
    paths = monotone_lattice_paths(start, end)
    return max(
        one_sided_hausdorff_l1(a, b)
        for a in paths
        for b in paths
    )


def grid_sync_oracle(start, end):
    """Worst synchronized distance over ordered pairs of monotone paths."""
    paths = monotone_lattice_paths(start, end)
    return max(
        max(l1(p, q) for p, q in zip(a, b))
        for a in paths
        for b in paths
    )


# ---------------------------------------------------------------------------
# the Cayley ball by a scalar breadth-first search over element values

def ball_bfs_oracle(spec, r_in, generators=None, budget=500_000):
    """The ball ``build_ball`` returns, built one ``spec.multiply`` and one
    dict lookup per (vertex, letter), with every element kept."""
    if r_in < 1:
        raise ValueError("r_in must be at least 1")
    letters = resolve_letters(spec, generators)
    r_out = 3 * r_in

    ident = spec.identity()
    elements = [ident]
    index = {ident: 0}
    dist0 = [0]
    table = []  # row-major nbr: rows are appended in vertex order
    for u, eu in enumerate(elements):  # elements grows while it is read: a BFS
        du = dist0[u]
        for letter in letters:
            w = spec.multiply(eu, letter.element)
            v = index.get(w)
            if v is None:
                if du == r_out:
                    table.append(-1)
                    continue
                v = len(elements)
                if v >= budget:
                    raise BudgetExceededError(budget, v, du)
                index[w] = v
                elements.append(w)
                dist0.append(du + 1)
            table.append(v)
    nbr = np.array(table, dtype=np.int32).reshape(len(elements), len(letters))
    return BallGraph(spec, letters, r_in, r_out, index, dist0, nbr)


# ---------------------------------------------------------------------------
# geodesics by a depth-first walk and avoidance by the per-pair scalar DP,
# on plain breadth-first distances (no distance rows, intervals or DAGs)

@functools.lru_cache(maxsize=4096)
def bfs_distances(ball, source):
    """Ball-graph distances from ``source`` to every vertex, by a
    breadth-first search over the Cayley table (-1 where unreached)."""
    nbr = ball.nbr.tolist()
    out = [-1] * ball.n_vertices
    out[source] = 0
    queue = deque([source])
    while queue:
        w = queue.popleft()
        for z in nbr[w]:
            if z >= 0 and out[z] < 0:
                out[z] = out[w] + 1
                queue.append(z)
    return tuple(out)


@functools.lru_cache(maxsize=4096)
def _interval_layers(ball, u, v):
    """The interval of (u, v) in (distance from u, vertex) order, with each
    vertex's neighbours one layer up and down inside it, in column order.
    Memoised: callers only read the result."""
    du, dv = bfs_distances(ball, u), bfs_distances(ball, v)
    duv = du[v]
    inside = [w for w in range(ball.n_vertices) if du[w] >= 0 and du[w] + dv[w] == duv]
    inside.sort(key=lambda w: (du[w], w))
    members = set(inside)
    nbr = ball.nbr.tolist()
    succ = {w: [z for z in nbr[w] if z in members and du[z] == du[w] + 1] for w in inside}
    pred = {w: [z for z in nbr[w] if z in members and du[z] == du[w] - 1] for w in inside}
    return inside, succ, pred


def interval_oracle(ball, u, v):
    """The interval of (u, v) as an ascending vertex tuple."""
    return tuple(sorted(_interval_layers(ball, u, v)[0]))


def geodesics_dfs_oracle(ball, u, v, cap=None):
    """All geodesics from u to v in label-lexicographic order, by a
    depth-first walk that takes successors in Cayley-table column order.

    Returns ``(paths, truncated)`` as vertex tuples; with ``cap`` set, at
    most ``cap`` paths, and ``truncated`` says whether more exist.
    """
    inside, succ, _ = _interval_layers(ball, u, v)
    limit = None if cap is None else cap + 1
    paths = []
    stack = [[u]]
    while stack:
        trail = stack.pop()
        if trail[-1] == v:
            paths.append(tuple(trail))
            if limit is not None and len(paths) >= limit:
                break
            continue
        for z in reversed(succ[trail[-1]]):
            stack.append(trail + [z])
    if cap is not None and len(paths) > cap:
        return paths[:cap], True
    return paths, False


def max_avoidance_oracle(ball, u, v, probes):
    """max over geodesics from u to v of the least distance from the probe
    to their vertices, for each probe: the scalar bottleneck DP over the
    interval in layer order, ``f[w] = min(d(p, w), max f over w's
    predecessors)``.  Distances are clipped at ``2 * r_in + 1``, as the
    library's rows are."""
    inside, _, pred = _interval_layers(ball, u, v)
    clip = 2 * ball.r_in + 1
    out = []
    for p in probes:
        dp = bfs_distances(ball, int(p))
        f = {}
        for w in inside:
            best = max((f[z] for z in pred[w]), default=clip)
            f[w] = min(min(dp[w], clip), best)
        out.append(f[v])
    return out


def polygon_tuple_oracle(ball, corners):
    """Worst thinness over every geodesic realization of one corner tuple,
    and the smallest probe attaining it: the probes are the interval of the
    last side (corners[-1], corners[0]), and the value is the max over
    probes of the min over the other sides of ``max_avoidance_oracle``."""
    probes = interval_oracle(ball, corners[-1], corners[0])
    sides = [max_avoidance_oracle(ball, u, v, probes) for u, v in zip(corners, corners[1:])]
    values = [min(col) for col in zip(*sides)]
    value = max(values)
    return value, probes[values.index(value)]


def polygon_thinness_oracle(ball, sides):
    """Thinness of one polygon given as explicit vertex paths, the last side
    distinguished: the farthest a vertex of the last side gets from the
    union of all other sides, by breadth-first distances.  Raises
    ValueError unless there are at least two sides, each ending where the
    next one (cyclically) starts."""
    sides = list(sides)
    if len(sides) < 2:
        raise ValueError("a polygon needs at least two sides")
    if any(a[-1] != b[0] for a, b in zip(sides, sides[1:] + sides[:1])):
        raise ValueError("polygon sides are not endpoint-chained")
    others = {w for side in sides[:-1] for w in side}
    return max(min(bfs_distances(ball, p)[w] for w in others) for p in sides[-1])


def doubled_gromov_oracle(ball, x, y, p):
    """2 * (x|y)_p = d(p, x) + d(p, y) - d(x, y), by breadth-first distances."""
    dp = bfs_distances(ball, p)
    return dp[x] + dp[y] - bfs_distances(ball, x)[y]


def quasiconvexity_oracle(ball, subgroup_gens):
    """Farthest a vertex of a shortest path between inner subgroup
    elements gets from the subgroup's trace in the ball, and the smallest
    ``(h, h2, p)`` attaining it: the closure of the identity under the
    generators and their inverses (a networkx component), every
    ``nx.all_shortest_paths`` path, and breadth-first distances."""
    spec = ball.spec
    letters = []
    for word in subgroup_gens:
        e = spec.parse_word(word)
        letters += [e, spec.invert(e)]
    moves = nx.Graph()
    moves.add_nodes_from(range(ball.n_vertices))
    for h, eh in enumerate(ball.elements):
        for g in letters:
            target = ball.index.get(spec.multiply(eh, g))
            if target is not None:
                moves.add_edge(h, target)
    H = sorted(nx.node_connected_component(moves, 0))
    G = nx_graph(ball)
    nearest = {}
    best = (0, (0, 0, 0))
    for h, h2 in itertools.combinations_with_replacement([h for h in H if h < ball.inner_count], 2):
        for p in sorted({p for path in nx.all_shortest_paths(G, h, h2) for p in path}):
            if p not in nearest:
                dp = nx.single_source_shortest_path_length(G, p)
                nearest[p] = min(dp[x] for x in H)
            if nearest[p] > best[0]:
                best = (nearest[p], (h, h2, p))
    return best


# ---------------------------------------------------------------------------
# graph-level oracles via networkx and scipy

def table_csr(nbr):
    """A Cayley table as a scipy CSR matrix, one unit entry per table entry
    >= 0, for scipy's graph searches."""
    present = nbr >= 0
    indptr = np.zeros(len(nbr) + 1, dtype=np.int64)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    data = np.ones(int(indptr[-1]), dtype=np.int8)
    return csr_matrix((data, nbr[present], indptr), shape=(len(nbr), len(nbr)))


def nx_graph(ball):
    G = nx.Graph()
    G.add_nodes_from(range(ball.n_vertices))
    for u, row in enumerate(ball.nbr.tolist()):
        G.add_edges_from((u, v) for v in row if v >= 0)
    return G


def count_geodesics_oracle(ball, x, y):
    G = nx_graph(ball)
    return sum(1 for _ in nx.all_shortest_paths(G, x, y))


def detour_pair_oracle(ball, x, y):
    """max over geodesic vertices p and simple coterminal paths of d(p, path)."""
    G = nx_graph(ball)
    geodesic_vertices = set()
    for path in nx.all_shortest_paths(G, x, y):
        geodesic_vertices.update(path)
    simple_paths = [tuple(p) for p in nx.all_simple_paths(G, x, y)]
    best = 0
    for p in sorted(geodesic_vertices):
        dp = nx.single_source_shortest_path_length(G, p)
        best = max(best, max(min(dp[w] for w in sp) for sp in simple_paths))
    return best


def all_pairs_oracle(ball):
    return dict(nx.all_pairs_shortest_path_length(nx_graph(ball)))


def mesh_bruteforce(ball):
    """Mesh over every triangle of distinct inner corners a < b < c: the max
    over all geodesic side choices (a to b, b to c, c to a) of the least
    diameter of one point per side, by literal enumeration."""
    G = nx_graph(ball)
    n = ball.inner_count
    sides = {
        (u, v): [tuple(p) for p in nx.all_shortest_paths(G, u, v)]
        for u, v in itertools.permutations(range(n), 2)
    }
    used = {w for paths in sides.values() for path in paths for w in path}
    d = {w: nx.single_source_shortest_path_length(G, w) for w in used}
    best = 0
    for a, b, c in itertools.combinations(range(n), 3):
        for s0, s1, s2 in itertools.product(sides[a, b], sides[b, c], sides[c, a]):
            mesh = min(
                max(d[x][y], d[y][z], d[x][z]) for x in s0 for y in s1 for z in s2
            )
            best = max(best, mesh)
    return best


# ---------------------------------------------------------------------------
# Gromov-product oracles: literal enumeration over a distance matrix

def four_point_tensor(D):
    """Exhaustive four-point defect of the distance matrix D and the
    lexicographically first (p, x1, x0, x2) attaining it, from one
    ``T[x1, x0, x2] = min{(x0|x1)_p, (x1|x2)_p} - (x0|x2)_p`` tensor per
    basepoint p (doubled units)."""
    D = np.asarray(D, dtype=np.int32)
    best = None
    for p in range(len(D)):
        G = D[p][:, None] + D[p][None, :] - D
        T = np.minimum(G[:, :, None], G[:, None, :]) - G
        x1, x0, x2 = np.unravel_index(int(T.argmax()), T.shape)
        # the highest defect wins, then the smallest key
        cand = (-int(T[x1, x0, x2]), (p, int(x1), int(x0), int(x2)))
        best = cand if best is None else min(best, cand)
    return -best[0], best[1]


def chain_bruteforce(G, maxlen):
    """Chain defect of the Gromov matrix G by literal enumeration of every
    chain with at most ``maxlen`` steps (a lower bound for longer chains):
    the highest defect, floored at 0, and a chain attaining it."""
    n = G.shape[0]
    best = (0, (0, 0), (0, 0))  # (-defect, key, chain): the smallest wins
    for x in range(n):
        Gx = G[x]
        for y in range(n):
            direct = int(G[x, y])
            Gy = G[:, y]
            if maxlen >= 2:
                vals = np.minimum(Gx, Gy)
                z = int(vals.argmax())
                best = min(best, (direct - int(vals[z]), (x, y, z), (x, z, y)))
            for m in range(3, maxlen + 1):
                for prefix in itertools.product(range(n), repeat=m - 2):
                    pv = int(Gx[prefix[0]])
                    for a, b in zip(prefix, prefix[1:]):
                        pv = min(pv, int(G[a, b]))
                    vals = np.minimum(pv, np.minimum(G[prefix[-1]], Gy))
                    z = int(vals.argmax())
                    best = min(best, (direct - int(vals[z]), (x, y) + prefix + (z,), (x,) + prefix + (z, y)))
    return -best[0], list(best[2])
