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


# DP entries, one per (query, interval vertex), of one chunk of
# max_avoidance_many, and the bound on pairs x mid_count of one interval
# test.  On a 2-vCPU VM, 2^14 to 2^18 ran the sampled polygon:3 of Z2 * Z3
# R9, Z x Z R4 and F(a,b) R3 within noise of each other; the allocation
# peak of a 2^8-tuple batch on Z x Z R4 read 2.5, 4.9 and 5.3 MiB at 2^14,
# 2^16 and 2^18.
_AVOIDANCE_ENTRIES = 1 << 16


def _interval_members(dist: DistanceMatrix, a, b):
    """Interval vertices of every inner pair ``(a[k], b[k])`` (at least one
    pair), as two aligned int64 arrays ``(k, w)`` sorted by pair and then
    vertex, so pair k's vertices are those of ``interval(dist, a[k], b[k])``.

    The test is ``interval``'s, ``d(a, w) + d(w, b) == d(a, b)`` on the
    first ``mid_count`` columns of the inner rows, one vectorized test per
    block of at most ``_AVOIDANCE_ENTRIES // mid_count`` pairs.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    mid = dist.ball.mid_count
    rows = dist._inner_rows[:, :mid]
    duv = dist.inner[a, b]
    step = max(1, _AVOIDANCE_ENTRIES // mid)
    ks, ws = [], []
    for lo in range(0, len(a), step):
        hi = lo + step
        k, w = np.nonzero(rows[a[lo:hi]] + rows[b[lo:hi]] == duv[lo:hi, None])
        ks.append(k + lo)
        ws.append(w)
    return np.concatenate(ks), np.concatenate(ws)


def _interval_dags(ball, dist, a, b):
    """Geodesic DAGs from a[k] to b[k] for inner pairs, flattened.

    Returns ``(ptr, verts, layer, pred)``: pair k owns entries
    ``ptr[k]:ptr[k + 1]``, sorted by (layer, vertex index) as in
    :class:`GeodesicDag`, so its first entry is a[k] and its last b[k].
    ``pred[e]`` lists entry e's predecessors (neighbours in the Cayley table
    one layer closer to a[k] inside the same interval) as local indices
    within the pair, padded with -1.
    """
    n = ball.n_vertices
    k, w = _interval_members(dist, a, b)
    layer = dist._inner_rows[a[k], w]
    code = k * n + w  # ascending
    z = ball.nbr[w]
    zcode = k[:, None] * n + z
    pos = np.minimum(np.searchsorted(code, zcode), len(code) - 1)
    is_pred = (z >= 0) & (code[pos] == zcode) & (layer[pos] == layer[:, None] - 1)
    order = np.lexsort((w, layer, k))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ptr = np.searchsorted(k, np.arange(len(a) + 1))
    pred = np.where(is_pred, rank[pos] - ptr[k][:, None], -1)[order]
    width = int(is_pred.sum(axis=1).max(initial=0))
    pred = -np.sort(-pred, axis=1)[:, :width]  # predecessors first
    return ptr, w[order], layer[order], pred


def max_avoidance_many(ball, dist, us, vs, probes) -> np.ndarray:
    """:func:`max_avoidance` of every query ``(us[i], vs[i], probes[i])``,
    as an int16 array aligned with the inputs.

    Both endpoints of every query must be inner vertices (ValueError
    otherwise): their intervals are read from the first ``mid_count``
    columns of the inner rows.  A probe may be any vertex; its row comes
    from ``dist.row``, sliced to ``mid_count`` columns.

    Each distinct unordered pair gets one flattened geodesic DAG (see
    ``_interval_dags``), oriented from its smaller end, since a geodesic
    and its reverse have the same image.  Queries are sorted by probe and
    cut into chunks of at most ``_AVOIDANCE_ENTRIES`` DP entries, one per
    (query, interval vertex), and at least one query per chunk.  A chunk
    runs ``_bottleneck``'s max-min recurrence one layer at a time over all
    of its queries: layer 0 reads ``d(p, u)``, and an entry of layer t
    reads ``min(d(p, w), max over its predecessors)``, with a missing
    predecessor pointing at a sentinel entry that holds -1.  That is at
    most ``2 * r_in + 1`` numpy passes per chunk; the value of a query is
    its last entry, the vertex farthest from u.
    """
    us, vs, probes = (np.asarray(x, dtype=np.int64) for x in (us, vs, probes))
    if not (us.ndim == 1 and us.shape == vs.shape == probes.shape):
        raise ValueError("us, vs and probes must be one-dimensional and of equal length")
    out = np.empty(len(us), dtype=np.int16)
    if not len(us):
        return out
    ni, mid = ball.inner_count, ball.mid_count
    if min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= ni:
        raise ValueError("max_avoidance_many needs inner endpoints")
    pairs, pair_of = np.unique(np.minimum(us, vs) * ni + np.maximum(us, vs), return_inverse=True)
    ptr, verts, layers, pred = _interval_dags(ball, dist, pairs // ni, pairs % ni)
    sizes = np.diff(ptr)
    qorder = np.argsort(probes, kind="stable")
    ends = np.cumsum(sizes[pair_of[qorder]])
    lo = 0
    while lo < len(qorder):
        start = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + _AVOIDANCE_ENTRIES, side="right")))
        q = qorder[lo:hi]
        kq = pair_of[q]
        sz = sizes[kq]
        base = np.cumsum(sz) - sz
        owner = np.repeat(np.arange(len(q)), sz)
        entry = np.arange(ends[hi - 1] - start) + (ptr[kq] - base)[owner]
        pu, pinv = np.unique(probes[q], return_inverse=True)
        rows = np.stack([dist.row(p)[:mid] for p in pu.tolist()])
        val = rows[pinv[owner], verts[entry]]
        sentinel = len(entry)
        local = pred[entry]
        slots = np.where(local >= 0, local + base[owner][:, None], sentinel)
        f = np.empty(sentinel + 1, dtype=np.int16)
        f[sentinel] = -1
        f[base] = val[base]  # layer 0: the query's u
        lay = layers[entry]
        by = np.argsort(lay, kind="stable")
        cuts = np.cumsum(np.bincount(lay))
        for t in range(1, len(cuts)):
            idx = by[cuts[t - 1] : cuts[t]]
            f[idx] = np.minimum(val[idx], f[slots[idx]].max(axis=1))
        out[q] = f[base + sz - 1]
        lo = hi
    return out


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
