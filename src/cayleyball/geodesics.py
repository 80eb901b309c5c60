"""Geodesic intervals, explicit geodesic enumeration, and polygon thinness.

The geodesics between two vertices form a layered DAG inside the metric
interval ``{w : d(u,w) + d(w,v) = d(u,v)}``.  Enumeration walks that DAG
depth-first with successors ordered by edge label, so the k-th geodesic of a
pair is the same no matter which ball the pair is embedded in.

Thinness of a polygon is measured against the union of ALL sides other than
the distinguished last one (the variant under which the thinness/chain/mesh
equivalences actually run), not just the two sides adjacent to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ball import BallGraph, DistanceMatrix
from .groups import InternalCheckError


@dataclass(frozen=True)
class GeodesicPath:
    """A shortest vertex path; consecutive vertices are adjacent in the ball."""

    vertices: tuple[int, ...]

    @property
    def length(self):
        return len(self.vertices) - 1

    @property
    def start(self):
        return self.vertices[0]

    @property
    def end(self):
        return self.vertices[-1]

    def reversed(self):
        return GeodesicPath(tuple(reversed(self.vertices)))


@dataclass(frozen=True)
class GeodesicInterval:
    """All vertices lying on at least one geodesic between u and v."""

    u: int
    v: int
    dist_uv: int
    vertices: tuple[int, ...]  # ascending vertex index

    def __contains__(self, w):
        return w in set(self.vertices)

    def __len__(self):
        return len(self.vertices)


@dataclass
class Polygon:
    """A closed chain of geodesics; the last side is the distinguished one."""

    sides: list[GeodesicPath]

    def __post_init__(self):
        if len(self.sides) < 2:
            raise ValueError("a polygon needs at least two sides")
        for a, b in zip(self.sides, self.sides[1:] + self.sides[:1]):
            if a.end != b.start:
                raise ValueError("polygon sides are not endpoint-chained")

    @property
    def last_side(self):
        return self.sides[-1]

    def union_of_other_sides(self):
        out = set()
        for side in self.sides[:-1]:
            out.update(side.vertices)
        return sorted(out)


def interval(dist: DistanceMatrix, u: int, v: int) -> GeodesicInterval:
    """Exact geodesic interval by a single vectorized scan over the ball.

    Raises ValueError when ``d(u, v) >= dist.clip``: the scan tests
    ``d(u, w) + d(w, v) == d(u, v)`` on clipped rows, which is exact only
    below the clip (every inner pair is).  An inner pair's interval lies
    within ``2 * r_in`` of the identity, so only the first ``mid_count``
    columns are scanned for it.  The vertex tuple is cached per unordered
    pair, so a repeated call allocates no new tuple.
    """
    u, v = int(u), int(v)
    key = (u, v) if u <= v else (v, u)
    cached = dist._interval_cache.get(key)
    if cached is None:
        ru, rv = dist.row(key[0]), dist.row(key[1])
        duv = int(ru[key[1]])
        if duv >= dist.clip:
            raise ValueError(f"d({u}, {v}) >= {dist.clip}: beyond the clipped distance rows")
        if key[1] < dist.ball.inner_count:  # the pair's interval lies in the 2R ball
            ru, rv = ru[: dist.ball.mid_count], rv[: dist.ball.mid_count]
        cached = tuple(np.flatnonzero(ru.astype(np.int32) + rv == duv).tolist())
        dist._interval_cache[key] = cached
    return GeodesicInterval(u=u, v=v, dist_uv=int(dist.row(u)[v]), vertices=cached)


class GeodesicDag:
    """Layered DAG of all geodesics from u to v, local vertex numbering.

    ``verts`` is sorted by (layer, vertex index), so local index 0 is u and
    the last one is v; ``succ`` and ``preds`` hold, per vertex, a tuple of
    its neighbours one layer up and down in edge-label order.  Tuples keep
    the cached DAGs small and out of the garbage collector's way.
    """

    __slots__ = ("u", "v", "dist_uv", "verts", "layer", "succ", "preds", "pos")

    def __init__(self, ball: BallGraph, dist: DistanceMatrix, u: int, v: int):
        iv = interval(dist, u, v)
        ru = dist.row(u)
        verts = sorted(iv.vertices, key=lambda w: (int(ru[w]), w))
        self.u, self.v, self.dist_uv = int(u), int(v), iv.dist_uv
        self.verts = verts
        self.layer = [int(ru[w]) for w in verts]
        self.pos = {w: i for i, w in enumerate(verts)}
        self.succ = []
        self.preds = []
        for i, row in enumerate(ball.nbr.take(verts, axis=0).tolist()):  # label order
            nxt, prv = [], []
            for w in row:
                j = self.pos.get(w)  # None for -1, the product outside the ball
                if j is not None:
                    if self.layer[j] == self.layer[i] + 1:
                        nxt.append(j)
                    elif self.layer[j] == self.layer[i] - 1:
                        prv.append(j)
            self.succ.append(tuple(nxt))
            self.preds.append(tuple(prv))


def _dag(ball, dist, u, v):
    key = (int(u), int(v))
    dag = dist._dag_cache.get(key)
    if dag is None:
        dag = dist._dag_cache[key] = GeodesicDag(ball, dist, u, v)
    return dag


def enumerate_geodesics(ball, dist, u, v, cap=None):
    """All geodesics from u to v in label-lexicographic order.

    Returns ``(paths, truncated)``; with ``cap`` set, at most ``cap`` paths
    are returned and ``truncated`` reports whether more exist.
    """
    if cap is not None and cap < 1:
        raise ValueError("cap must be at least 1 (or None for no cap)")
    dag = _dag(ball, dist, u, v)
    limit = None if cap is None else cap + 1
    paths = []
    stack = [(dag.pos[int(u)], [int(u)])]
    while stack:
        i, trail = stack.pop()
        if dag.verts[i] == int(v) and len(trail) == dag.dist_uv + 1:
            paths.append(GeodesicPath(tuple(trail)))
            if limit is not None and len(paths) >= limit:
                break
            continue
        for j in reversed(dag.succ[i]):
            stack.append((j, trail + [dag.verts[j]]))
    if cap is not None and len(paths) > cap:
        return paths[:cap], True
    return paths, False


def geodesic_through(ball, dist, u, v, via):
    """Some geodesic from u to v passing through an interval vertex ``via``."""
    dag = _dag(ball, dist, u, v)
    i = dag.pos[int(via)]
    forward = [dag.verts[i]]
    j = i
    while dag.verts[j] != int(v):
        j = dag.succ[j][0]
        forward.append(dag.verts[j])
    j = i
    backward = []
    while dag.verts[j] != int(u):
        j = dag.preds[j][0]
        backward.append(dag.verts[j])
    return GeodesicPath(tuple(reversed(backward)) + tuple(forward))


def polygon_thinness(dist: DistanceMatrix, poly: Polygon) -> int:
    """Least vertex-level thinness of one polygon: the farthest a last-side
    vertex gets from the union of all other sides."""
    Z = np.asarray(poly.union_of_other_sides(), dtype=np.int64)
    return max(dist.d_to_set(p, Z) for p in poly.last_side.vertices)


# ---------------------------------------------------------------------------
# worst-case machinery: maximal avoidance of a probe point by a geodesic

def _bottleneck(dag, vals, lo, hi):
    """Best prefix values of the geodesic DAG: ``f[i]`` is the max over
    geodesic prefixes ending at local vertex ``i`` of the least ``vals`` on
    them.  ``vals`` holds one value per local vertex in DAG order; ``lo`` and
    ``hi`` are the min and max of those values (builtins for numbers,
    ``np.minimum``/``np.maximum`` for arrays of probes).
    """
    f = [vals[0]]
    for i in range(1, len(dag.verts)):
        preds = dag.preds[i]
        best = f[preds[0]]
        for j in preds[1:]:
            best = hi(best, f[j])
        f.append(lo(best, vals[i]))
    return f


def max_avoidance(ball, dist, u, v, p) -> int:
    """max over geodesics from u to v of d(p, image of the geodesic)."""
    dag = _dag(ball, dist, u, v)
    return _bottleneck(dag, dist.row(p)[dag.verts].tolist(), min, max)[-1]


def max_avoidance_block(ball, dist, u, v, rows_block) -> np.ndarray:
    """Vector form of :func:`max_avoidance` over every source of ``rows_block``."""
    dag = _dag(ball, dist, u, v)
    return _bottleneck(dag, rows_block.T[dag.verts], np.minimum, np.maximum)[-1]


def most_avoiding_geodesic(ball, dist, u, v, p) -> GeodesicPath:
    """A geodesic from u to v achieving :func:`max_avoidance` for p."""
    dag = _dag(ball, dist, u, v)
    f = _bottleneck(dag, dist.row(p)[dag.verts].tolist(), min, max)
    trail = [len(f) - 1]
    while trail[-1] != 0:
        i = trail[-1]
        for j in dag.preds[i]:
            if f[j] >= f[i]:
                trail.append(j)
                break
        else:  # pragma: no cover - the DP guarantees a predecessor exists
            raise InternalCheckError("avoidance backtrack failed")
    return GeodesicPath(tuple(dag.verts[i] for i in reversed(trail)))
