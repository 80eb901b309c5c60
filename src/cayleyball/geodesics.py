"""Geodesic intervals and the geodesic-DAG store.

The geodesics between two vertices form a layered DAG inside the interval
``{w : d(u,w) + d(w,v) = d(u,v)}``.  Each ``DistanceMatrix`` owns one
flattened store of the DAGs of every inner pair a <= b (``inner_dags``),
read by pair id, a pair asked for from its larger end walked back from its
last entry.  On it run the max-min avoidance recurrence, path counts and
label-lexicographic unranking (so a pair's k-th geodesic does not depend
on the ball around it), and the witnesses' one-pair walks.  Its vertex set
is the geodesic hull (``hull``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ball import DistanceMatrix, _inverse_letters, _segments, _unique
from .groups import InternalCheckError


# the store

class IntervalDags(NamedTuple):
    """Geodesic DAGs of many pairs, flattened; see ``_interval_dags``."""

    ptr: np.ndarray  # pair k owns entries ptr[k]:ptr[k + 1]
    verts: np.ndarray  # vertex of each entry
    layer: np.ndarray  # its distance from the pair's first end
    succ: np.ndarray  # (entries, letters) pair-local links, -1 for none
    pred: np.ndarray


def _interval_dags(ball, dist: DistanceMatrix, a, b) -> IntervalDags:
    """Geodesic DAGs from a[k] to b[k], flattened into one store.

    Pair k owns entries ``ptr[k]:ptr[k + 1]``, sorted by (layer, vertex),
    first a[k] and last b[k]; ``layer`` is the distance from a[k].  Layer t +
    1 holds the neighbours z of layer t with ``d(z, b[k]) == d(a[k], b[k]) -
    t - 1``.  ``succ[e, c]`` (``pred[e, c]``) is the pair-local entry column c
    leads to from e one layer up (down), or -1; each link is found once, as
    ``succ[e, c] == j`` and ``pred[j, inv[c]] == e``.  Links and layers take
    the smallest dtype that holds them.  Raises ValueError if ``d(a[k],
    b[k]) >= dist.clip``.
    """
    a = np.asarray(a, dtype=np.int64).ravel()
    b = np.asarray(b, dtype=np.int64).ravel()
    n = ball.n_vertices
    # an inner pair's interval lies within 2 * r_in: its walk drops later vertices
    top = ball.mid_count if max(a.max(initial=0), b.max(initial=0)) < ball.inner_count else n
    duv = dist.rows(b, a[:, None])[:, 0].astype(np.int64)
    if (duv >= dist.clip).any():
        raise ValueError(f"a pair is at least {dist.clip} apart: beyond the clipped distance rows")
    # a layer is sorted by (pair, vertex); a link (e, c, j) keeps e's index
    # in its layer and j's place in its pair
    pair, loc, letter = _compact(len(a)), _compact(n), _compact(ball.nbr.shape[1])
    k, w, at, fill, layers = np.arange(len(a)), a, np.zeros(len(a), loc), np.ones(len(a), np.int64), []
    while len(k):
        z = ball.nbr[w]
        on = (z >= 0) & (z < top)
        on &= dist.rows(b[k], np.where(on, z, 0)) == (duv - len(layers) - 1)[k, None]
        e, c = np.nonzero(on)
        nxt, j = np.unique(k[e] * n + z[e, c], return_inverse=True)
        nk = nxt // n
        count = np.bincount(nk, minlength=len(a))
        nat = (fill[nk] + np.arange(len(nk)) - (np.cumsum(count) - count)[nk]).astype(loc)
        fill += count
        layers.append((k.astype(pair), w.astype(loc), at, e.astype(np.int32), c.astype(letter), nat[j]))
        k, w, at = nk, nxt % n, nat
    ptr = np.concatenate([[0], np.cumsum(fill, dtype=np.int64)])
    verts = np.empty(ptr[-1], dtype=np.int32)
    layer = np.empty(ptr[-1], dtype=_compact(len(layers)))
    succ, pred = (np.full((ptr[-1], ball.nbr.shape[1]), -1, dtype=_compact(fill.max(initial=0))) for _ in "sp")
    inv = _inverse_letters(ball.nbr)
    for t in range(len(layers)):  # each layer's records dropped once placed
        k, w, at, e, c, j = layers[t]
        layers[t] = None
        pos = ptr[k] + at
        verts[pos], layer[pos] = w, t
        succ[pos[e], c] = j
        pred[pos[e] - at[e] + j, inv[c]] = at[e]
    return IntervalDags(ptr, verts, layer, succ, pred)


def _compact(bound):
    """The smallest signed int dtype holding ``bound``."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)


# The store grows in at most this many chunks of at least ``_STORE_PAIRS``
# pairs.  A chunk works in about three times its share (a peak of 1.7x the
# store on Z2 * Z3 R6); small chunks leave buffers in numpy's allocation
# cache (eight raised peak RSS of Z2 * Z3 R4..6 by 0.3 MiB).
_STORE_CHUNKS = 4
_STORE_PAIRS = 1 << 7


def inner_dags(dist: DistanceMatrix) -> IntervalDags:
    """The store of every inner pair a <= b in ``np.triu_indices`` order,
    built on first request in runs of rows a and joined one field at a
    time."""
    if dist._dags is None:
        ball, ni = dist.ball, dist.ball.inner_count
        rows = np.arange(ni)
        step = max(_STORE_PAIRS, -(-ni * (ni + 1) // 2 // _STORE_CHUNKS))
        cuts = np.searchsorted(np.cumsum(ni - rows), np.arange(step, ni * (ni + 1) // 2, step), side="right")
        parts = [
            _interval_dags(ball, dist, np.repeat(r, ni - r), _segments(r, ni - r))
            for r in np.split(rows, _unique(cuts[cuts > 0]))
        ]
        shift = np.cumsum([0] + [p.ptr[-1] for p in parts])
        columns = list(zip(*parts))
        columns[0] = [[0]] + [ptr[1:] + at for ptr, at in zip(columns[0], shift)]
        del parts
        dist._dags = IntervalDags(*(np.concatenate(columns.pop(0)) for _ in range(5)))
    return dist._dags


def _pair_ids(ni, u, v):
    """Store ids of the pairs {u[i], v[i]} among ``ni`` inner vertices."""
    a, b = np.minimum(u, v), np.maximum(u, v)
    return a * (2 * ni - a + 1) // 2 + b - a


def _one_pair(ball, dist, u, v) -> IntervalDags:
    """The DAG from u to v as a one-pair store: the store's entry, reversed
    when u > v, or grown alone when u or v is not inner."""
    ni = ball.inner_count
    if not (0 <= u < ni and 0 <= v < ni):
        return _interval_dags(ball, dist, [u], [v])
    dags = inner_dags(dist)
    lo, hi = dags.ptr[_pair_ids(ni, u, v) + np.arange(2)]
    _, verts, layer, succ, pred = (x[lo:hi] for x in dags)
    if u > v:
        flip = lambda links: np.where(links >= 0, hi - lo - 1 - links, -1)[::-1]
        verts, layer, succ, pred = verts[::-1], layer[-1] - layer[::-1], flip(pred), flip(succ)
    return IntervalDags(np.array([0, hi - lo]), verts, layer, succ, pred)


def hull(dist: DistanceMatrix) -> np.ndarray:
    """The geodesic hull: the ascending vertices on some geodesic between
    two inner vertices, the store's vertex set."""
    return _unique(inner_dags(dist).verts)


def interval(dist: DistanceMatrix, u: int, v: int) -> tuple[int, ...]:
    """Exact geodesic interval of one pair, as an ascending vertex tuple.
    Raises ValueError when ``d(u, v) >= dist.clip`` (no inner pair is)."""
    return tuple(np.sort(_one_pair(dist.ball, dist, int(u), int(v)).verts).tolist())


# max-min avoidance on the store

# DP values (entries times probes) of one ``_avoidance_units`` chunk.  On a
# 2-vCPU VM, store built, the WP fill of Z2 * Z3 R10 (23,871 pairs, 218
# probes) took 0.92, 0.33, 0.17, 0.18 s at 2^14, 2^16, 2^18, 2^20; sampled
# polygon:3 of Z2 * Z3 R9 0.105, 0.078, 0.062 s and 0.7, 1.6, 3.5 MiB at
# 2^14, 2^16, 2^18.
_AVOIDANCE_ENTRIES = 1 << 16


def _maxmin_layers(dags, entry, base, sizes, val):
    """The max-min avoidance recurrence over DP units laid end to end.

    Unit i copies the store entries ``entry[base[i]:base[i] + sizes[i]]`` of
    one pair; ``val`` holds a value (or row) per DP entry.  Layer 0 reads its
    own value, layer t ``min(val, max over its predecessors)``, packed to the
    largest in-degree and padded with a sentinel holding -1.  Returns every
    DP entry's best prefix value; a unit's value is its last entry's.
    """
    local = dags.pred[entry]
    on = local >= 0
    e, c = np.nonzero(on)
    slots = np.full((len(entry), max(1, int(on.sum(axis=1).max(initial=0)))), len(entry))
    slots[e, np.cumsum(on, axis=1)[e, c] - 1] = local[e, c] + np.repeat(base, sizes)[e]
    f = np.empty((len(entry) + 1,) + val.shape[1:], dtype=np.int16)
    f[-1] = -1
    f[base] = val[base]
    for idx in _layers(dags.layer[entry])[1:]:
        f[idx] = np.minimum(val[idx], f[slots[idx]].max(axis=1))
    return f[:-1]


def _layers(layer):
    """The indices of each value of ``layer``, from 0 up, ascending within
    a value: one stable argsort, cut at the running counts."""
    by = np.argsort(layer, kind="stable")
    cuts = np.cumsum(np.bincount(layer)).tolist()
    return [by[lo:hi] for lo, hi in zip([0] + cuts, cuts)]


def _path_counts(links, togo, limit):
    """Each entry's count of paths to its far end, saturating at ``limit``,
    plus a last 0 for the sentinel: swept in ``togo`` order from 0 (steps to
    the far end), an entry sums the counts of its ``links`` row (entry
    indices, ``len(links)`` for none), and a sum of 0 (an end) counts 1."""
    count = np.zeros(len(links) + 1, dtype=np.int32 if limit * links.shape[1] < 2**31 else np.int64)
    for idx in _layers(togo):
        count[idx] = np.clip(count[links[idx]].sum(axis=1), 1, limit)
    return count


def _entries(dags, pid):
    """The store entries of pairs ``pid``, end to end, and their counts."""
    sizes = np.diff(dags.ptr)[pid]
    return _segments(dags.ptr[pid], sizes), sizes


def _first_padded(starts, sizes):
    """The index ranges ``starts[i]:starts[i] + sizes[i]`` as the rows of
    one matrix, each padded to the longest by repeating its first index."""
    col = np.arange(int(sizes.max(initial=1)))
    return starts[:, None] + np.where(col < sizes[:, None], col, 0)


def _avoidance_units(dags, pair_of, width, values) -> np.ndarray:
    """Max avoidance of every DP unit against its own row of ``width``
    probes, as a ``(units, width)`` int16 array.

    Unit i runs ``_maxmin_layers`` over the entries of pair ``pair_of[i]``;
    ``values(entry, owner)`` gives the probe values of entries, a row each,
    entry j of unit ``owner[j]``.  Units run in chunks of at most
    ``_AVOIDANCE_ENTRIES`` DP values (at least one unit).  Ragged probe rows
    repeat a unit's first probe, which keeps the maximum and its first probe.
    """
    out = np.empty((len(pair_of), width), dtype=np.int16)
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


def max_avoidance_block(ball, dist, us, vs, rows_block) -> np.ndarray:
    """:func:`max_avoidance` of every inner pair ``(us[k], vs[k])`` against
    every probe row of ``rows_block``, as a ``(pairs, probes)`` int16 array:
    the max over geodesics us[k] -> vs[k] of the least ``rows_block[j, w]``
    over their vertices.  The polygon scan's ``WP`` fill: one unit per pair,
    the probes as vector axis.  Interval vertices lie below ``mid_count``, so
    only those columns are read, transposed so an entry's values are a row.
    """
    us, vs = (np.asarray(x, dtype=np.int64) for x in (us, vs))
    if not (us.ndim == 1 and us.shape == vs.shape):
        raise ValueError("us and vs must be one-dimensional and of equal length")
    if len(us) and (min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= ball.inner_count):
        raise ValueError("max_avoidance_block needs inner endpoints")
    dags = inner_dags(dist)
    by_vertex = np.ascontiguousarray(rows_block[:, : ball.mid_count].T)
    return _avoidance_units(
        dags, _pair_ids(ball.inner_count, us, vs), len(rows_block), lambda entry, _: by_vertex[dags.verts[entry]]
    )


def _first(links):
    """The first linked entry in label order, or None."""
    return next((j for j in links if j >= 0), None)


def _avoidance_prefixes(dist, dags, p):
    """Best prefix values of a one-pair store against probe p."""
    size, val = len(dags.verts), dist.rows([p], dags.verts)[0]
    return _maxmin_layers(dags, np.arange(size), np.zeros(1, np.int64), np.array([size]), val)


def max_avoidance(ball, dist, u, v, p) -> int:
    """max over geodesics from u to v of d(p, image of the geodesic)."""
    return int(_avoidance_prefixes(dist, _one_pair(ball, dist, u, v), p)[-1])


def most_avoiding_geodesic(ball, dist, u, v, p) -> tuple[int, ...]:
    """A geodesic from u to v achieving :func:`max_avoidance` for p: walk
    back from v, each step to the first predecessor in label order that
    keeps the best prefix value."""
    dags = _one_pair(ball, dist, u, v)
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


# geodesics as paths: counting and unranking on the store

def _geodesic_rows(ball, dist, us, vs, cap):
    """Geodesics from us[k] to vs[k], in label-lexicographic order per pair.

    Returns ``(rows, counts, truncated)``: ``rows`` an int32 matrix of vertex
    paths, pair after pair, padded by repeating the last vertex; pair k owns
    ``counts[k]`` of them, its first ``cap`` geodesics (all when ``cap`` is
    None), and ``truncated[k]`` says whether it has more.

    Inner pairs are read from the store, from the first entry over ``succ``
    when ``us[k] <= vs[k]``, else from the last over ``pred``.  Each entry
    gets its count of paths to the far end, saturating at ``cap + 1``, and
    the r-th path steps to the first column whose running count exceeds r.
    """
    us, vs = (np.asarray(x, dtype=np.int64).ravel() for x in (us, vs))
    ni = ball.inner_count
    if len(us) and min(us.min(), vs.min()) >= 0 and max(us.max(), vs.max()) < ni:
        dags, pid, back = inner_dags(dist), _pair_ids(ni, us, vs), us > vs
    else:
        dags, pid, back = _interval_dags(ball, dist, us, vs), np.arange(len(us)), np.zeros(len(us), bool)
    entry, sizes = _entries(dags, pid)
    base = np.cumsum(sizes) - sizes
    verts, layer, glob = dags.verts[entry], dags.layer[entry], dags.succ[entry]
    back_e = np.repeat(back, sizes)
    glob[back_e] = dags.pred[entry[back_e]]
    del entry
    togo = np.where(back_e, layer, np.repeat(layer[base + sizes - 1], sizes) - layer)  # steps to the far end
    del layer, back_e
    glob = np.where(glob >= 0, glob + np.repeat(base.astype(np.int32), sizes)[:, None], len(verts))
    far = base + np.where(back, 0, sizes - 1)
    glob[far, 0] = far  # a finished path stays put
    steps = int(togo.max(initial=-1)) + 1
    count = _path_counts(glob, togo, np.iinfo(np.int64).max // glob.shape[1] if cap is None else cap + 1)
    del togo
    e = base + np.where(back, sizes - 1, 0)
    total = count[e]
    counts = total if cap is None else np.minimum(total, cap)
    pair = np.repeat(np.arange(len(counts)), counts)
    rank = np.arange(len(pair)) - (np.cumsum(counts) - counts)[pair]
    e = e[pair]
    rows = np.empty((len(pair), steps), dtype=verts.dtype)
    rows[:, 0] = verts[e]
    at = np.arange(len(pair))
    for s in range(1, rows.shape[1]):
        nxt = glob[e]
        run = np.cumsum(count[nxt], axis=1)
        col = (run <= rank[:, None]).sum(axis=1)
        rank -= np.where(col > 0, run[at, col - 1], 0)
        e = nxt[at, col]
        rows[:, s] = verts[e]
    truncated = np.zeros(len(total), dtype=bool) if cap is None else total > cap
    return rows, counts, truncated


def _capped_pairs(dist, cap):
    """Which inner pairs have more than ``cap`` (None: no) geodesics, as an
    ``(n, n)`` bool matrix: ``_path_counts`` over the ``pred`` links, toward
    each pair's first entry, read at its last."""
    n = dist.ball.inner_count
    out = np.zeros((n, n), dtype=bool)
    if cap is None:
        return out
    dags = inner_dags(dist)
    base = np.repeat(dags.ptr[:-1], np.diff(dags.ptr))
    links = np.where(dags.pred >= 0, dags.pred + base[:, None], len(dags.verts))
    count = _path_counts(links, dags.layer, cap + 1)
    i, j = np.triu_indices(n)
    out[i, j] = out[j, i] = count[dags.ptr[1:] - 1] > cap
    return out


def enumerate_geodesics(ball, dist, u, v, cap=None):
    """All geodesics from u to v in label-lexicographic order, as
    ``(paths, truncated)``: vertex tuples, at most ``cap`` of them, and
    whether more exist.  The one-pair call of ``_geodesic_rows``."""
    if cap is not None and cap < 1:
        raise ValueError("cap must be at least 1 (or None for no cap)")
    rows, _, truncated = _geodesic_rows(ball, dist, [u], [v], cap)
    return [tuple(r) for r in rows.tolist()], bool(truncated[0])


def geodesic_through(ball, dist, u, v, via):
    """Some geodesic from u to v through an interval vertex ``via``: the
    first successor in label order up to v and the first predecessor down to
    u (ValueError when ``via`` is off the interval)."""
    dags = _one_pair(ball, dist, u, v)
    hit = np.flatnonzero(dags.verts == int(via))
    if not len(hit):
        raise ValueError(f"vertex {via} is not on a geodesic from {u} to {v}")
    succ, pred = dags.succ.tolist(), dags.pred.tolist()
    forward, backward = [int(hit[0])], [int(hit[0])]
    while (j := _first(succ[forward[-1]])) is not None:
        forward.append(j)
    while (j := _first(pred[backward[-1]])) is not None:
        backward.append(j)
    return tuple(dags.verts[backward[:0:-1] + forward].tolist())
