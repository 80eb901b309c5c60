"""Geodesic intervals and the flattened geodesic-DAG store.

The geodesics between two vertices form a layered DAG inside the metric
interval ``{w : d(u,w) + d(w,v) = d(u,v)}``.  Every such DAG lives in one
flattened store, built for many pairs at once by ``_interval_dags``: each
interval is grown from its first end one layer at a time through the Cayley
table, and its edges keep the table's column (edge-label) order.  Everything
that walks geodesics reads that store, and every geodesic leaves this module
as a plain tuple of vertex indices:

* the max-min avoidance recurrence, one layer at a time, driven in chunks
  by ``_avoidance_units`` with a row of probes per DP unit as its vector
  axis (the polygon scan's ``WP`` in ``max_avoidance_block``, the sampled
  polygon and the bigons);
* path counts per entry, from which geodesics are unranked in
  label-lexicographic order (``enumerate_geodesics`` and the mesh's side
  choices), so the k-th geodesic of a pair is the same no matter which ball
  the pair is embedded in;
* the one-pair walks of the witnesses (``geodesic_through``,
  ``most_avoiding_geodesic``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ball import DistanceMatrix
from .groups import InternalCheckError


# ---------------------------------------------------------------------------
# the store

class IntervalDags(NamedTuple):
    """Geodesic DAGs of many pairs, flattened; see ``_interval_dags``."""

    ptr: np.ndarray  # pair k owns entries ptr[k]:ptr[k + 1]
    verts: np.ndarray  # vertex of each entry
    layer: np.ndarray  # its distance from the pair's first end
    succ: np.ndarray  # (entries, letters) pair-local successors, -1 for none
    pred: np.ndarray  # (entries, letters) pair-local predecessors, -1 for none

    @property
    def pair(self):
        """The pair owning each entry."""
        return np.repeat(np.arange(len(self.ptr) - 1), np.diff(self.ptr))


def _interval_dags(ball, dist: DistanceMatrix, a, b) -> IntervalDags:
    """Geodesic DAGs from a[k] to b[k], flattened into one store.

    Pair k owns entries ``ptr[k]:ptr[k + 1]``, sorted by (layer, vertex
    index), so its first entry is a[k] and its last b[k]; ``layer[e]`` is
    the distance from a[k].  The interval is grown from a[k] one layer at a
    time through ``ball.nbr``: layer t + 1 holds the neighbours z of layer t
    with ``d(z, b[k]) == d(a[k], b[k]) - t - 1``, which are exactly the
    interval vertices at distance t + 1 from a[k], so only interval vertices
    and their neighbours are ever touched.  ``succ[e, c]`` (``pred[e, c]``)
    is the pair-local index of the entry that column c of the Cayley table
    leads to from e when it lies one layer up (down) in the same interval,
    and -1 otherwise, so both keep edge-label order.

    Distances to b[k] come from ``dist.rows``.  Raises ValueError when some
    ``d(a[k], b[k]) >= dist.clip``, where clipped rows stop being exact.
    """
    a = np.asarray(a, dtype=np.int64).ravel()
    b = np.asarray(b, dtype=np.int64).ravel()
    n, letters = ball.n_vertices, ball.nbr.shape[1]
    duv = dist.rows(b, a[:, None])[:, 0].astype(np.int64)
    if (duv >= dist.clip).any():
        raise ValueError(f"a pair is at least {dist.clip} apart: beyond the clipped distance rows")
    # grow layer by layer; links index the concatenated layer blocks
    k, w, off, t = np.arange(len(a)), a, 0, 0
    pred = np.full((len(a), letters), -1, dtype=np.int32)
    blocks = []
    while True:
        z = ball.nbr[w]
        on = (z >= 0) & (dist.rows(b[k], z) == (duv[k] - t - 1)[:, None])
        nxt, inv = np.unique((k[:, None] * n + z)[on], return_inverse=True)
        succ = np.full(z.shape, -1, dtype=np.int32)
        succ[on] = inv + off + len(k)
        blocks.append((k, w, np.full(len(k), t), succ, pred))
        if not len(nxt):
            break
        code = k * n + w  # ascending: a layer block is sorted by (pair, vertex)
        k, w = nxt // n, nxt % n
        y = ball.nbr[w]
        ycode = k[:, None] * n + y
        pos = np.minimum(np.searchsorted(code, ycode), len(code) - 1)
        pred = np.where((y >= 0) & (code[pos] == ycode), pos + off, -1).astype(np.int32)
        off += len(code)
        t += 1
    K, W, T, S, P = zip(*blocks)
    K = np.concatenate(K)
    # pair-major order; a stable sort keeps (layer, vertex) within each pair
    order = np.argsort(K, kind="stable")
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order))
    ptr = np.concatenate([[0], np.cumsum(np.bincount(K, minlength=len(a)))])
    base = ptr[K[order]].astype(np.int32)[:, None]

    def local(links):  # concatenated-block indices to pair-local ones, in order
        links = np.concatenate(links)[order]
        none = links < 0
        links = rank[links]
        links -= base
        links[none] = -1
        return links

    return IntervalDags(ptr, np.concatenate(W)[order], np.concatenate(T)[order], local(S), local(P))


def interval(dist: DistanceMatrix, u: int, v: int) -> tuple[int, ...]:
    """Exact geodesic interval of one pair, as an ascending vertex tuple read
    from its store entry.

    Raises ValueError when ``d(u, v) >= dist.clip``, where clipped rows stop
    being exact (every inner pair is below it).
    """
    return tuple(np.sort(_interval_dags(dist.ball, dist, [int(u)], [int(v)]).verts).tolist())


# ---------------------------------------------------------------------------
# max-min avoidance on the store

# DP values of one chunk of ``_avoidance_units``: the store entries of the
# chunk's units times the width of the probe axis.  On a 2-vCPU VM the WP
# fill of Z2 * Z3 R10 (23,871 pairs, 218 probes) took 1.47, 0.49, 0.38 and
# 0.31 s at 2^14, 2^16, 2^18 and 2^20; the sampled polygon:3 of Z2 * Z3 R9
# (5000 tuples) took 0.25, 0.21 and 0.21 s at 2^14, 2^16 and 2^18, with
# allocation peaks of 2.1, 2.1 and 3.2 MiB.
_AVOIDANCE_ENTRIES = 1 << 16


def _maxmin_layers(dags, entry, base, sizes, val):
    """The max-min avoidance recurrence over DP units laid end to end.

    Unit i copies the store entries of one pair: ``entry[base[i]:base[i] +
    sizes[i]]``.  ``val`` holds one value (or one row of values, the vector
    axis) per DP entry.  Layer 0, the pair's first end, reads its own value;
    an entry of layer t reads ``min(val, max over its predecessors)``, a
    missing predecessor pointing at a sentinel that holds -1.  That is one
    numpy pass per layer, at most ``2 * r_in + 1``.  Returns the best
    prefix value of every DP entry; a unit's value is its last entry's.
    """
    local = dags.pred[entry]
    slots = np.where(local >= 0, local + np.repeat(base, sizes)[:, None], len(entry))
    f = np.empty((len(entry) + 1,) + val.shape[1:], dtype=np.int16)
    f[-1] = -1
    f[base] = val[base]
    lay = dags.layer[entry]
    by = np.argsort(lay, kind="stable")
    cuts = np.cumsum(np.bincount(lay))
    for t in range(1, len(cuts)):
        idx = by[cuts[t - 1] : cuts[t]]
        f[idx] = np.minimum(val[idx], f[slots[idx]].max(axis=1))
    return f[:-1]


def _packed(dags):
    """The store with each entry's predecessors moved to the front and the
    columns cut to the largest in-degree: the recurrence reads them in any
    order, and where geodesics are unique it gathers one column instead of
    one per letter."""
    width = max(1, int((dags.pred >= 0).sum(axis=1).max(initial=0)))
    return dags._replace(pred=-np.sort(-dags.pred, axis=1)[:, :width])


def _segments(starts, sizes):
    """The concatenated index ranges ``starts[i]:starts[i] + sizes[i]``."""
    offsets = np.cumsum(sizes) - sizes
    return np.arange(int(np.sum(sizes))) + np.repeat(starts - offsets, sizes)


def _first_padded(starts, sizes):
    """The index ranges ``starts[i]:starts[i] + sizes[i]`` as the rows of
    one matrix, each padded to the longest by repeating its first index."""
    col = np.arange(int(sizes.max(initial=1)))
    return starts[:, None] + np.where(col < sizes[:, None], col, 0)


def _avoidance_units(dags, pair_of, width, values) -> np.ndarray:
    """Max avoidance of every DP unit against its own row of ``width``
    probes, as a ``(units, width)`` int16 array.

    Unit i runs the recurrence of ``_maxmin_layers`` over the store entries
    of pair ``pair_of[i]``; ``values(entry, owner)`` returns the
    ``(len(entry), width)`` probe values of the given store entries, entry
    j belonging to unit ``owner[j]``.  Units are cut into consecutive chunks
    of at most ``_AVOIDANCE_ENTRIES`` DP values (entries times ``width``)
    and at least one unit, one ``_maxmin_layers`` pass each.  A caller with
    ragged probe rows pads them by repeating a unit's first probe, which
    changes neither the maximum nor the smallest probe attaining it.
    """
    out = np.empty((len(pair_of), width), dtype=np.int16)
    dags = _packed(dags)
    sizes = np.diff(dags.ptr)[pair_of]
    ends = np.cumsum(sizes)
    step = max(1, _AVOIDANCE_ENTRIES // max(1, width))
    lo = 0
    while lo < len(pair_of):
        start = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + step, side="right")))
        sz = sizes[lo:hi]
        base = np.cumsum(sz) - sz
        entry = _segments(dags.ptr[pair_of[lo:hi]], sz)
        f = _maxmin_layers(dags, entry, base, sz, values(entry, np.repeat(np.arange(lo, hi), sz)))
        out[lo:hi] = f[base + sz - 1]
        lo = hi
    return out


def _check_inner(ball, us, vs):
    if len(us) and (min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= ball.inner_count):
        raise ValueError("max_avoidance_block needs inner endpoints")


def max_avoidance_block(ball, dist, us, vs, rows_block) -> np.ndarray:
    """:func:`max_avoidance` of every inner pair ``(us[k], vs[k])`` against
    every probe row of ``rows_block``, as a ``(pairs, probes)`` int16 array:
    entry ``[k, j]`` is the max over geodesics from us[k] to vs[k] of the
    least ``rows_block[j, w]`` over their vertices.

    This is the polygon scan's ``WP`` fill: one ``_avoidance_units`` unit
    per pair, every unit sharing the probes as its vector axis.  Interval
    vertices of inner pairs lie below ``mid_count``, so only those columns
    of the block are read, once, transposed so that an entry's probe values
    are one row.
    """
    us, vs = (np.asarray(x, dtype=np.int64) for x in (us, vs))
    if not (us.ndim == 1 and us.shape == vs.shape):
        raise ValueError("us and vs must be one-dimensional and of equal length")
    _check_inner(ball, us, vs)
    dags = _interval_dags(ball, dist, us, vs)
    by_vertex = np.ascontiguousarray(rows_block[:, : ball.mid_count].T)
    return _avoidance_units(
        dags, np.arange(len(us)), len(rows_block), lambda entry, _: by_vertex[dags.verts[entry]]
    )


def _first(links):
    """The first linked entry in label order, or None."""
    return next((j for j in links if j >= 0), None)


def _avoidance_prefixes(dist, dags, p):
    """Best prefix values of a one-pair store against probe p."""
    size = len(dags.verts)
    return _maxmin_layers(dags, np.arange(size), np.zeros(1, np.int64), np.array([size]), dist.row(p)[dags.verts])


def max_avoidance(ball, dist, u, v, p) -> int:
    """max over geodesics from u to v of d(p, image of the geodesic)."""
    return int(_avoidance_prefixes(dist, _interval_dags(ball, dist, [u], [v]), p)[-1])


def most_avoiding_geodesic(ball, dist, u, v, p) -> tuple[int, ...]:
    """A geodesic from u to v achieving :func:`max_avoidance` for p: walk
    back from v, each step to the first predecessor in label order that
    keeps the best prefix value."""
    dags = _interval_dags(ball, dist, [u], [v])
    f = _avoidance_prefixes(dist, dags, p).tolist()
    pred = dags.pred.tolist()
    trail = [len(f) - 1]
    while trail[-1] != 0:
        i = trail[-1]
        j = _first(j for j in pred[i] if j >= 0 and f[j] >= f[i])
        if j is None:  # pragma: no cover - the DP guarantees a predecessor exists
            raise InternalCheckError("avoidance backtrack failed")
        trail.append(j)
    return tuple(dags.verts[trail[::-1]].tolist())


# ---------------------------------------------------------------------------
# geodesics as paths: counting and unranking on the store

def _path_counts(dags, limit):
    """Geodesics from each entry to its pair's last entry, saturating at
    ``limit``, with one trailing 0 for the sentinel.  Layers are resolved
    from the top down; every entry but the last of its pair has a successor,
    and the last one counts its own one-vertex path."""
    n_entries = len(dags.verts)
    glob = np.where(dags.succ >= 0, dags.succ + dags.ptr[dags.pair][:, None], n_entries)
    count = np.zeros(n_entries + 1, dtype=np.int64)
    by = np.argsort(dags.layer, kind="stable")
    cuts = np.concatenate([[0], np.cumsum(np.bincount(dags.layer))])
    for t in range(len(cuts) - 2, -1, -1):
        idx = by[cuts[t] : cuts[t + 1]]
        count[idx] = np.clip(count[glob[idx]].sum(axis=1), 1, limit)
    return count, glob


def _geodesic_rows(ball, dist, us, vs, cap):
    """Geodesics from us[k] to vs[k], in label-lexicographic order per pair.

    Returns ``(rows, counts, truncated)``: ``rows`` is an int64 matrix of
    vertex paths, pair after pair, padded by repeating the last vertex to
    the longest pair's length; pair k owns ``counts[k]`` of them, the first
    ``cap`` of its geodesics (all of them when ``cap`` is None), and
    ``truncated[k]`` says whether it has more.  Paths are unranked from
    per-entry path counts that saturate at ``cap + 1``: at each step the
    r-th path takes the first column whose running count exceeds r.
    """
    dags = _interval_dags(ball, dist, us, vs)
    letters = dags.succ.shape[1]
    limit = np.iinfo(np.int64).max // letters if cap is None else cap + 1
    count, glob = _path_counts(dags, limit)
    total = count[dags.ptr[:-1]]
    counts = total if cap is None else np.minimum(total, cap)
    pair = np.repeat(np.arange(len(counts)), counts)
    rank = np.arange(len(pair)) - (np.cumsum(counts) - counts)[pair]
    e = dags.ptr[pair]
    width = int(dags.layer.max(initial=0)) + 1
    rows = np.empty((len(pair), width), dtype=np.int64)
    rows[:, 0] = dags.verts[e]
    at = np.arange(len(pair))
    for s in range(1, width):
        nxt = glob[e]
        running = np.cumsum(count[nxt], axis=1)
        col = (running <= rank[:, None]).sum(axis=1)
        go = col < letters  # a finished path has no successor and stays put
        col = np.minimum(col, letters - 1)
        rank = rank - np.where(go & (col > 0), running[at, col - 1], 0)
        e = np.where(go, nxt[at, col], e)
        rows[:, s] = dags.verts[e]
    truncated = np.zeros(len(total), dtype=bool) if cap is None else total > cap
    return rows, counts, truncated


def enumerate_geodesics(ball, dist, u, v, cap=None):
    """All geodesics from u to v in label-lexicographic order.

    Returns ``(paths, truncated)``, the paths as vertex tuples; with ``cap``
    set, at most ``cap`` paths are returned and ``truncated`` reports
    whether more exist.  The one-pair call of ``_geodesic_rows``.
    """
    if cap is not None and cap < 1:
        raise ValueError("cap must be at least 1 (or None for no cap)")
    rows, _, truncated = _geodesic_rows(ball, dist, [u], [v], cap)
    return [tuple(r) for r in rows.tolist()], bool(truncated[0])


def geodesic_through(ball, dist, u, v, via):
    """Some geodesic from u to v passing through an interval vertex ``via``:
    from ``via``, the first successor in label order up to v and the first
    predecessor down to u."""
    dags = _interval_dags(ball, dist, [u], [v])
    i = int(np.flatnonzero(dags.verts == int(via))[0])
    succ, pred = dags.succ.tolist(), dags.pred.tolist()
    forward, backward = [i], [i]
    while (j := _first(succ[forward[-1]])) is not None:
        forward.append(j)
    while (j := _first(pred[backward[-1]])) is not None:
        backward.append(j)
    return tuple(dags.verts[backward[:0:-1] + forward].tolist())

