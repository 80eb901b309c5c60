"""The four virtually-free invariants and their auxiliary constants.

Everything is measured on a padded ball (``cayleyball.ball``), in doubled
integers so that half-integer Gromov products stay exact.  Every result
carries a bound direction:

* ``exact`` -- exhaustive tuples, no binding geodesic cap, and a value
  that is a finite-window statistic of the ball itself;
* ``lower`` -- sampling, a binding cap, or a supremum over objects that
  can leave any finite ball (detour, mesh over arbitrary triangles,
  quasi-convexity of an infinite subgroup).

Nothing sampled or capped is ever labeled exact.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .ball import DistanceMatrix, _least_triangles, _orbit_least, _segments, _unique, components, connected_without
from .geodesics import (
    _avoidance_units,
    _entries,
    _first_padded,
    _geodesic_rows,
    _capped_pairs,
    _pair_ids,
    enumerate_geodesics,  # noqa: F401 - a perfbench probe binds it here
    geodesic_through,
    hull,
    inner_dags,
    interval,  # noqa: F401 - as enumerate_geodesics
    max_avoidance,  # noqa: F401 - as enumerate_geodesics
    max_avoidance_block,
    most_avoiding_geodesic,
)
from .groups import InternalCheckError


# sampling plans and results

@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic description of which tuples and geodesics are examined.
    ``geodesic_cap`` bounds the geodesics listed per side, which only the
    mesh does (``None``: unlimited); bigons list none and are exact under
    every exhaustive plan."""

    mode: str = "exhaustive"
    count: int | None = None
    seed: int | None = None
    geodesic_cap: int | None = 64

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        if self.mode == "random" and (self.count is None or self.seed is None):
            raise ValueError("random plans need a count and a seed")
        if self.mode == "random" and self.count < 1:
            raise ValueError("random plans need at least one sample")
        if self.geodesic_cap is not None and self.geodesic_cap < 1:
            raise ValueError("geodesic cap must be at least 1 or None")

    # the class body reads the field's default as ``geodesic_cap``
    @classmethod
    def exhaustive(cls, geodesic_cap=geodesic_cap):
        return cls(mode="exhaustive", geodesic_cap=geodesic_cap)

    @classmethod
    def random(cls, count, seed, geodesic_cap=geodesic_cap):
        return cls(mode="random", count=count, seed=seed, geodesic_cap=geodesic_cap)

    def tuples(self, n, arity, unordered=False, size=None):
        """The plan's ``arity``-tuples over ``range(n)`` in plan order, as
        non-empty int64 arrays of at most ``size`` rows (one when None), rows
        sorted when ``unordered``: slices of the draws, or
        ``itertools.product`` (``combinations`` when unordered)."""
        step = size or self.count
        if self.mode == "random":
            draws = self._draws(n, arity)
            if unordered:
                draws.sort(axis=1)
            yield from (draws[lo : lo + step] for lo in range(0, self.count, step))
            return
        tuples = itertools.combinations(range(n), arity) if unordered else itertools.product(range(n), repeat=arity)
        chain = itertools.chain.from_iterable
        while (flat := np.fromiter(chain(itertools.islice(tuples, step)), dtype=np.int64)).size:
            yield flat.reshape(-1, arity)

    def _draws(self, n, arity):
        """``count`` rows of ``arity`` values, those that successive
        ``random.Random(seed).randrange(n)`` calls return, drawn in bulk.

        For ``n < 2**32``, ``randrange(n)`` takes one 32-bit word per attempt,
        keeps its top ``n.bit_length()`` bits and retries while they are ``>=
        n``; ``getrandbits(32 * m)`` is ``m`` such words, least significant
        first.  Each call seeds its own generator, so words drawn beyond the
        last kept value change nothing.
        """
        if n < 1:
            raise ValueError("empty range for randrange()")
        bits = n.bit_length()
        if bits > 32:
            raise InternalCheckError(f"cannot sample from range({n}): more than 32 bits per draw")
        rng = random.Random(self.seed)
        need = self.count * arity
        kept = [np.zeros(0, dtype=np.int64)]
        while need > 0:
            words = 2 * need + 16  # at least half of all attempts are kept
            draws = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"), dtype="<u4") >> (32 - bits)
            draws = draws[draws < n][:need]
            kept.append(draws.astype(np.int64))
            need -= len(draws)
        return np.concatenate(kept).reshape(self.count, arity)

    def describe(self):
        out = {"mode": self.mode, "geodesic_cap": self.geodesic_cap}
        if self.mode == "random":
            out["count"] = self.count
            out["seed"] = self.seed
        return out


@dataclass
class InvariantResult:
    """A measured constant with bound direction, sampling record and witness;
    ``value_doubled`` is an exact integer, ``value`` its half."""

    name: str
    value_doubled: int
    bound: str
    plan: dict
    witness: dict
    r_in: int
    r_out: int
    extra: dict = field(default_factory=dict)

    @property
    def value(self):
        return self.value_doubled / 2

    def to_dict(self):
        return {
            "invariant": self.name,
            "value_doubled": int(self.value_doubled),
            "value": self.value,
            "bound": self.bound,
            "sampling": self.plan,
            "witness": self.witness,
            "r_in": self.r_in,
            "r_out": self.r_out,
            "extra": self.extra,
        }


class _Extremum:
    """Running maximum with a lexicographic key tie-break (deterministic
    regardless of evaluation order)."""

    __slots__ = ("value", "key", "data")

    def __init__(self):
        self.value = None
        self.key = None
        self.data = None

    def offer(self, value, key, data=None):
        if self.value is None or value > self.value or (value == self.value and key < self.key):
            self.value = value
            self.key = key
            self.data = data


def _result(name, ball, value, bound, plan, witness, extra=None):
    return InvariantResult(
        name=name,
        value_doubled=int(value),
        bound=bound,
        plan=plan.describe() if isinstance(plan, SamplingPlan) else dict(plan),
        witness=witness,
        r_in=ball.r_in,
        r_out=ball.r_out,
        extra=extra or {},
    )


def _words(ball, indices):
    return [ball.word(i) for i in indices]


# Gromov products and the four-point condition

def _gromov_matrix(dist, p):
    """Doubled Gromov products at basepoint p over inner pairs, as int16 (no
    sum ``d(p, x) + d(p, y)`` exceeds ``4 * r_in``, which fits)."""
    D = dist.inner
    dp = D[p]
    return dp[:, None] + dp[None, :] - D


def four_point_delta(dist: DistanceMatrix, plan: SamplingPlan) -> InvariantResult:
    """Worst defect of the four-point inequality over sampled quadruples:

        max over (x0, x1, x2, p) of  min{(x0|x1)_p, (x1|x2)_p} - (x0|x2)_p

    floored at zero, in doubled units.

    Exhaustively this is the chain condition's 2-chain case: basepoint p's
    value is ``(_maxmin(G, G) - G).max()`` for its Gromov matrix G, taken at
    each orbit's least basepoint (``_orbit_least``).  The witness, the first
    (p, x1, x0, x2) attaining the maximum, is rebuilt for the first winning
    basepoint only.
    """
    ball = dist.ball
    n = ball.inner_count
    if plan.mode == "exhaustive":
        values = []
        reps = np.flatnonzero(_orbit_least(ball, np.arange(n)[:, None])).tolist()
        for p in reps:
            G = _gromov_matrix(dist, p)
            values.append(int((_maxmin(G, G) - G).max()))
        value = max(values)
        p = reps[values.index(value)]
        G = _gromov_matrix(dist, p)
        # the pairs (x0, x2) attaining the value, in row-major order; x1 is the
        # first vertex whose 2-chain reaches the value on one of them
        x0, x2 = np.nonzero(_maxmin(G, G) - G == value)
        for x1 in range(n):
            hit = np.flatnonzero(np.minimum(G[x1, x0], G[x1, x2]) - G[x0, x2] == value)
            if len(hit):
                x0, x2 = int(x0[hit[0]]), int(x2[hit[0]])
                break
    else:
        x0, x1, x2, p = next(plan.tuples(n, 4)).T
        D = dist.inner
        d0, d1, d2 = D[p, x0], D[p, x1], D[p, x2]
        # doubled Gromov products (x0|x1)_p, (x1|x2)_p and (x0|x2)_p
        g01 = d0 + d1 - D[x0, x1]
        g12 = d1 + d2 - D[x1, x2]
        g02 = d0 + d2 - D[x0, x2]
        defect = np.minimum(g01, g12) - g02
        # the highest defect, then the smallest (p, x1, x0, x2)
        k = np.lexsort((x2, x0, x1, p, -defect))[0]
        value = max(0, int(defect[k]))
        p, x1, x0, x2 = (int(c[k]) for c in (p, x1, x0, x2))
    witness = {
        "x0": ball.word(x0),
        "x1": ball.word(x1),
        "x2": ball.word(x2),
        "basepoint": ball.word(p),
        "defect_doubled": int(value),
    }
    bound = "exact" if plan.mode == "exhaustive" else "lower"
    return _result("four_point_delta", ball, value, bound, plan, witness)


# chain defect: the all-lengths Gromov inequality as a max-min closure of the
# Gromov-product matrix (four-point is its 2-chain case)

def _maxmin(A, B):
    """Max-min matrix product: entry (i, j) is max over z of min(A[i, z], B[z, j])."""
    return np.minimum(A[:, :, None], B[None, :, :]).max(axis=1)


def _maxmin_chain(powers, start, end):
    """A chain start = y_0, ..., y_k = end of k = len(powers) steps attaining
    powers[k - 1][start, end] (powers[j] the (j + 1)-step max-min power of
    powers[0]); each step back takes the lowest index keeping the value."""
    chain = [end]
    for P in reversed(powers[:-1]):
        chain.insert(0, int(np.minimum(P[start], powers[0][:, chain[0]]).argmax()))
    return [start] + chain


def _bottleneck_defect(G):
    """Exact chain defect for one basepoint and the first row-major pair
    (x, y) attaining it: the max-min closure of G minus G (0 on the diagonal)."""
    W, prev = G, None
    while prev is None or not np.array_equal(W, prev):
        prev, W = W, np.maximum(W, _maxmin(W, W))
    diff = W - G
    x, y = np.unravel_index(int(diff.argmax()), diff.shape)
    return int(diff[x, y]), (int(x), int(y))


def _bottleneck_chain(G, x, y, defect):
    """A shortest chain from x to y with defect ``defect``.  Max-min powers of
    G never decrease with the step count, since G[x, x] tops row x."""
    powers = [G]
    while powers[-1][x, y] < G[x, y] + defect:
        powers.append(_maxmin(powers[-1], G))
    return _maxmin_chain(powers, x, y)


def chain_defect(dist: DistanceMatrix) -> InvariantResult:
    """Least defect making the chain inequality hold for chains of every
    length through inner-ball vertices, maximized over the inner basepoints
    (each orbit's least, ``_orbit_least``): the max-min closure of the
    Gromov-product matrix.  The witness is a shortest chain attaining the
    defect, rebuilt for the first winning basepoint only.
    """
    ball = dist.ball
    best = _Extremum()
    for p in np.flatnonzero(_orbit_least(ball, np.arange(ball.inner_count)[:, None])).tolist():
        value, pair = _bottleneck_defect(_gromov_matrix(dist, p))
        best.offer(value, (p,), pair)
    p = best.key[0]
    chain = _bottleneck_chain(_gromov_matrix(dist, p), *best.data, best.value)
    witness = {
        "basepoint": ball.word(p),
        "chain": _words(ball, chain),
        "defect_doubled": int(best.value),
    }
    extra = {"method": "bottleneck", "basepoint_mode": "all_inner"}
    return _result("chain_defect", ball, best.value, "exact", SamplingPlan.exhaustive(), witness, extra)


# polygon thinness, against the union of ALL sides but the last (the variant
# under which the thinness/chain/mesh equivalences run)

class _PolygonScan:
    """Exhaustive worst-case polygon thinness over every inner corner tuple.

    For a probe p on a geodesic of the last side (a, b), the worst thinness
    of an (n+1)-gon is the max over corner chains of the least maximal
    avoidance w_p(u, v) = max over geodesics u->v of d(p, image) of the
    other sides: an n-step max-min power of w_p, every tuple at once.

    Probes run in ascending vertex order over the geodesic hull (a probe off
    it fails the mask ``d(a,p) + d(p,b) == d(a,b)`` for every inner pair and
    never beats the running 0), one per orbit (``_orbit_least``: ``w_p`` at
    ``phi(p)`` is ``w_p`` at p, permuted).  ``hull`` holds those probes,
    ``rows`` their rows cut at ``mid_count``, ``WP[k]`` is ``w_p`` of
    ``hull[k]`` and ``last[k]`` its highest power so far, which a larger
    ``n`` continues.
    """

    def __init__(self, ball, dist):
        self.ball = ball
        self.dist = dist
        self.results = {}
        self.n_max = 0
        probes = hull(dist)
        self.hull = probes[_orbit_least(ball, probes[:, None])]
        self.rows = dist.ensure_mid_rows(self.hull)
        ni = ball.inner_count
        us, vs = np.triu_indices(ni)
        vals = max_avoidance_block(ball, dist, us, vs, self.rows).T
        WP = np.empty((len(self.hull), ni, ni), dtype=np.int16)
        WP[:, us, vs] = vals
        WP[:, vs, us] = vals
        self.WP = WP
        self.last = list(WP)

    def ensure(self, n_max):
        if n_max <= self.n_max:
            return
        ni = self.ball.inner_count
        sizes = range(self.n_max + 1, n_max + 1)
        best = {}
        for n in sizes:
            best[n] = _Extremum()
            best[n].offer(0, (0, 0, 0))
        for k, p in enumerate(self.hull.tolist()):
            W = self.WP[k]
            dap = self.rows[k, :ni]
            mask = (dap[:, None] + dap[None, :]) == self.dist.inner
            B = self.last[k]
            for n in sizes:
                if n > 1:
                    B = _maxmin(B, W)
                vals = np.where(mask, B, np.int16(-1))
                m = int(vals.max())
                cur = best[n]
                if m > cur.value:
                    flat = int(vals.argmax())
                    cur.offer(m, (p, flat // ni, flat % ni))
            self.last[k] = B
        self.results.update(best)
        self.n_max = n_max

    def witness(self, n):
        """Reconstruct the extremal polygon for gon size n+1."""
        ext = self.results[n]
        p, a, b = ext.key
        W = self.WP[int(np.searchsorted(self.hull, p))]
        powers = [W]
        for _ in range(n - 1):
            powers.append(_maxmin(powers[-1], W))
        # corner chain b = y_0, ..., y_n = a maximizing the minimum avoidance
        chain = _maxmin_chain(powers, b, a)
        return _polygon_tuple_witness(self.ball, self.dist, chain, p, ext.value)


def _polygon_scan(ball, dist) -> _PolygonScan:
    if dist._pscan is None:
        dist._pscan = _PolygonScan(ball, dist)
    return dist._pscan


def _polygon_tuple_witness(ball, dist, corners, p, value):
    sides = [
        most_avoiding_geodesic(ball, dist, u, v, p)
        for u, v in zip(corners, corners[1:])
    ]
    last = geodesic_through(ball, dist, corners[-1], corners[0], via=p)
    return {
        "corners": _words(ball, corners),
        "far_point": ball.word(p),
        "sides": [_words(ball, s) for s in sides],
        "last_side": _words(ball, last),
        "thinness": int(value),
    }


# Sampled corner tuples evaluated at a time.  On a 2-vCPU VM the sampled
# polygon:3 of Z2 * Z3 R9 (5000 tuples, store built) took 0.090, 0.080, 0.062
# and 0.062 s at 2^6, 2^8, 2^10 and 2^12, peaking at 1.1, 1.6, 2.1, 3.9 MiB.
_POLYGON_TUPLES = 1 << 10


def _polygon_tuple_batch(ball, dist, corners):
    """``(value, corners, probe)`` of the worst tuple of a ``(t, n + 1)``
    array of corner tuples: the highest value, then the smallest tuple, then
    its smallest probe attaining the value.

    A tuple's probes are the interval of its last side (c_n, c_0), its value
    the max over probes of the min over its other sides of the maximal
    avoidance.  Each (tuple, other side) is one ``_avoidance_units`` unit
    with the tuple's probes as its vector axis, read from the probes' rows
    cut after the sides' largest vertex.
    """
    t, n = len(corners), corners.shape[1] - 1
    dags = inner_dags(dist)
    pid = _pair_ids(ball.inner_count, corners, np.roll(corners, -1, axis=1))  # side i: corner i to i + 1
    sizes = np.diff(dags.ptr)[pid[:, -1]]
    probes = dags.verts[_first_padded(dags.ptr[pid[:, -1]], sizes)]
    used, local = np.unique(probes, return_inverse=True)
    local = local.reshape(probes.shape)
    top = int(dags.verts[_entries(dags, _unique(pid[:, :-1]))[0]].max())
    rows = dist.rows(used, np.arange(top + 1)).ravel()
    at = local * (top + 1)  # each probe's row offset in ``rows``

    def values(entry, owner):
        return rows[at[owner // n] + dags.verts[entry][:, None]]

    avoid = _avoidance_units(dags, pid[:, :-1].ravel(), probes.shape[1], values)
    vals = avoid.reshape(t, n, -1).min(axis=1)
    # per tuple, highest value first and then smallest probe
    top = vals.max(axis=1)
    probe = np.where(vals == top[:, None], probes, ball.n_vertices).min(axis=1)
    hit = np.flatnonzero(top == top.max())
    j = hit[np.lexsort(corners[hit].T[::-1])[0]]
    return int(top[j]), tuple(corners[j].tolist()), int(probe[j])


def _polygon_tuples(ball, dist, n, plan: SamplingPlan) -> InvariantResult:
    """Worst thinness over the plan's corner tuples, each exact over all
    geodesic choices, in batches of ``_POLYGON_TUPLES``; under an exhaustive
    plan the scan's oracle in the tests."""
    best = _Extremum()
    best.offer(0, tuple([0] * (n + 1)), 0)
    for corners in plan.tuples(ball.inner_count, n + 1, size=_POLYGON_TUPLES):
        best.offer(*_polygon_tuple_batch(ball, dist, corners))
    witness = _polygon_tuple_witness(ball, dist, list(best.key), best.data, best.value)
    bound = "exact" if plan.mode == "exhaustive" else "lower"
    return _result("polygon_delta", ball, 2 * best.value, bound, plan, witness, {"n": n, "method": "tuples"})


def polygon_delta(ball, dist, n, plan: SamplingPlan) -> InvariantResult:
    """Worst vertex-level thinness over geodesic (n+1)-gons: under an
    exhaustive plan the scan, over every corner tuple and geodesic choice;
    under a sampled one ``_polygon_tuples``, a lower bound."""
    if n < 1:
        raise ValueError("polygon size parameter must be at least 1")
    if plan.mode != "exhaustive":
        return _polygon_tuples(ball, dist, n, plan)
    scan = _polygon_scan(ball, dist)
    scan.ensure(n)
    ext = scan.results[n]
    return _result("polygon_delta", ball, 2 * ext.value, "exact", plan, scan.witness(n), {"n": n, "method": "scan"})


def rips_delta(ball, dist, plan: SamplingPlan) -> InvariantResult:
    """Worst thinness over sampled geodesic triangles (3-gons)."""
    res = polygon_delta(ball, dist, 2, plan)
    res.name = "rips_delta"
    return res


# bigons: asynchronous and synchronous fellow-traveling constants

# Plan pairs read at a time.  On a 2-vCPU VM the bigons of Z2 * Z3 R9 (5000
# sampled pairs, store built) took 1 ms and 0.2 MiB at 2^8, 2^10 and 2^12.
_BIGON_PAIRS = 1 << 10


def _bigon_batch(ball, dist, pairs, plan):
    """async and sync values, with their vertices, of a batch's pairs with
    more than one geodesic (under an exhaustive plan, orbit-least ones):
    ``(pairs, a_val, a_vertex, s_val, s_a, s_b)``, in batch order.  The first
    maximum counts, in DAG order for async and row-major (entry, entry) for
    sync."""
    dags = inner_dags(dist)
    pid = _pair_ids(ball.inner_count, pairs[:, 0], pairs[:, 1])
    sizes = np.diff(dags.ptr)[pid]
    keep = np.flatnonzero(sizes > dist.inner[pairs[:, 0], pairs[:, 1]] + 1)
    if len(keep) and plan.mode == "exhaustive":
        keep = keep[_orbit_least(ball, pairs[keep])]
    if not len(keep):
        none = np.empty(0, dtype=np.int64)
        return pairs[keep], none, none, none, none, none
    pid = pid[keep]
    e, sizes = _entries(dags, pid)
    base = np.cumsum(sizes) - sizes
    verts = dags.verts[e]
    owner = np.repeat(np.arange(len(keep)), sizes)
    used, local = np.unique(verts, return_inverse=True)
    D = dist.rows(used, used)  # symmetric
    # async: a pair's own interval vertices are the probes, the vector axis
    # of its unit; a shorter interval repeats its first probe
    probe = local[_first_padded(base, sizes)]
    shift = base - dags.ptr[pid]  # store entry of unit i -> its position in e

    def values(entry, unit):
        return D[local[entry + shift[unit]][:, None], probe[unit]]

    avoid = _avoidance_units(dags, pid, probe.shape[1], values)
    k = avoid.argmax(axis=1)
    # sync: every same-layer pair of entries
    layer = dags.layer[e]
    starts = np.r_[True, (owner[1:] != owner[:-1]) | (layer[1:] != layer[:-1])]
    head = np.flatnonzero(starts)
    group = np.cumsum(starts) - 1
    reach = np.diff(np.r_[head, len(e)])[group]  # same-layer partners of each entry
    i = np.repeat(np.arange(len(e)), reach)
    j = _segments(head[group], reach)
    same = D[local[i], local[j]]
    seg = owner[i]
    s = np.lexsort((-same, seg))[np.searchsorted(seg, np.arange(len(keep)))]
    a_val = avoid[np.arange(len(keep)), k]
    return pairs[keep], a_val, verts[base + k], same[s], verts[i[s]], verts[j[s]]


def bigon_constants(ball, dist, plan: SamplingPlan):
    """(async, sync) fellow-traveler constants over sampled coterminal
    geodesic pairs, maximized over ALL geodesic pairs of each endpoint pair.

    async is the worst one-sided Hausdorff distance from a geodesic into a
    coterminal one: the max over interval probes p of the max avoidance of
    p.  sync is the worst distance between same-parameter vertices: the
    largest diameter of one DAG layer, since two geodesics can pass through
    any two vertices of a layer.  Plan pairs are read in batches of
    ``_BIGON_PAIRS``; a pair with a unique geodesic drops out.  No path is
    listed, so both are exact under every exhaustive plan.  Every pair
    is checked against sync <= 2 * async.
    """
    n = ball.inner_count
    best_async = _Extremum()
    best_sync = _Extremum()
    best_async.offer(0, (0, 0), None)
    best_sync.offer(0, (0, 0), None)
    for batch in plan.tuples(n, 2, unordered=True, size=_BIGON_PAIRS):
        pairs, a_val, a_w, s_val, s_a, s_b = _bigon_batch(ball, dist, batch, plan)
        bad = np.flatnonzero(s_val > 2 * a_val)
        if len(bad):
            x, y = pairs[bad[0]].tolist()
            raise InternalCheckError(f"fellow-traveler bound violated for pair ({ball.word(x)}, {ball.word(y)})")
        for ext, val, data in ((best_async, a_val, (a_w,)), (best_sync, s_val, (s_a, s_b))):
            if len(val):
                hit = np.flatnonzero(val == val.max())
                w = hit[np.lexsort(pairs[hit].T[::-1])[0]]
                ext.offer(int(val[w]), tuple(pairs[w].tolist()), tuple(int(d[w]) for d in data))
    bound = "exact" if plan.mode == "exhaustive" else "lower"

    def async_sides(x, y, p):
        # a geodesic through the probe, and a coterminal one staying farthest from it
        return geodesic_through(ball, dist, x, y, p), most_avoiding_geodesic(ball, dist, x, y, p)

    def sync_sides(x, y, a, b):
        # geodesics through the two farthest-apart vertices of one layer
        return geodesic_through(ball, dist, x, y, a), geodesic_through(ball, dist, x, y, b)

    def bigon_witness(ext, sides):
        x, y = ext.key
        out = {"start": ball.word(x), "end": ball.word(y), "distance": int(ext.value)}
        if ext.data is not None:
            geodesic, coterminal = sides(x, y, *ext.data)
            out["geodesic"] = _words(ball, geodesic)
            out["coterminal"] = _words(ball, coterminal)
        return out

    witness_async = bigon_witness(best_async, async_sides)
    witness_sync = bigon_witness(best_sync, sync_sides)
    res_async = _result("bigon_async", ball, 2 * best_async.value, bound, plan, witness_async)
    res_sync = _result("bigon_sync", ball, 2 * best_sync.value, bound, plan, witness_sync)
    return res_async, res_sync


# detour constant: how far an adversarial coterminal path can stay away

# Edges (each once) of one stacked detour graph.  On a 2-vCPU VM 2^15 ran the detour of
# Z x Z R3 to R5, (Z2 * Z3) x Z R3 and F(a,b) R3 fastest of 2^13 to 2^17;
# 2^16 took up to 1.5x as long on the larger balls.
_DETOUR_ENTRIES = 1 << 15


def _detour_levels(ball, dist, probes, xs, ys):
    """Detour level of every query ``(probes[i], xs[i], ys[i])``, as an int
    array aligned with the inputs: the largest ``r >= 1`` at which x and y
    are connected in the subgraph on ``{w : rp[w] >= r}``, ``rp =
    dist.row(p)``, or 0.  The subgraphs shrink as ``r`` grows, so a query
    drops out at the first ``r`` that splits it.

    Level 1 (the ball minus p) comes from ``connected_without``; on a
    hyperbolic ball every query stops there.  From level 2 up, each probe
    with an open query gets a copy of the ball's edges whose ends both have
    ``rp >= r``, the copies numbered apart for one ``components`` call, and
    a query needs both ends unmasked.  A stack holds at most
    ``_DETOUR_ENTRIES`` edges (at least one probe).
    """
    probes, xs, ys = (np.asarray(a, dtype=np.int32) for a in (probes, xs, ys))
    levels = np.zeros(len(probes), dtype=np.int32)
    if not len(probes):
        return levels
    levels[connected_without(ball, probes, xs, ys)] = 1
    order = np.argsort(probes, kind="stable")
    sp, sx, sy = probes[order], xs[order], ys[order]
    active = np.flatnonzero(levels[order])  # sorted positions of unresolved queries
    if not active.size:
        return levels
    n = ball.n_vertices
    src, col = np.nonzero(ball.nbr > np.arange(n)[:, None])  # each edge once
    dst = ball.nbr[src, col]
    per_chunk = max(1, _DETOUR_ENTRIES // max(len(src), 1))
    r = 2
    while active.size:
        ap = sp[active]
        live = _unique(ap)
        survivors = []
        for lo in range(0, len(live), per_chunk):
            chunk = live[lo : lo + per_chunk]
            allowed = dist.rows(chunk) >= r
            kept = allowed.take(src, axis=1)
            kept &= allowed.take(dst, axis=1)
            copy, e = np.nonzero(kept)
            copy *= n
            labels = components(len(chunk) * n, copy + src[e], copy + dst[e])
            allowed = allowed.ravel()
            q = active[np.searchsorted(ap, chunk[0]) : np.searchsorted(ap, chunk[-1], side="right")]
            base = np.searchsorted(chunk, sp[q]) * n
            vx, vy = base + sx[q], base + sy[q]
            ok = allowed[vx] & allowed[vy] & (labels[vx] == labels[vy])
            levels[order[q[ok]]] = r
            survivors.append(q[ok])
        active = np.concatenate(survivors)
        r += 1
    return levels


def masked_path(ball, rp, r, x, y):
    """Shortest path from x to y using only vertices with rp >= r."""
    allowed = rp >= r
    if not (allowed[x] and allowed[y]):
        raise ValueError("endpoints excluded by the mask")
    prev = {x: None}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        if u == y:
            path = []
            while u is not None:
                path.append(u)
                u = prev[u]
            return list(reversed(path))
        for v in ball.nbr[u].tolist():
            if v >= 0 and allowed[v] and v not in prev:  # allowed[-1] would read the last vertex
                prev[v] = u
                queue.append(v)
    raise ValueError("mask disconnects the endpoints")


def _pair_detours(ball, dist, pairs):
    """Detour value and probe of each pair (x, y), as two int arrays: the
    largest level over the pair's interval probes, and the smallest probe
    attaining it, from one ``_detour_levels`` pass."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    dags = inner_dags(dist)
    entry, sizes = _entries(dags, _pair_ids(ball.inner_count, pairs[:, 0], pairs[:, 1]))
    probes = dags.verts[entry]
    pair_of = np.repeat(np.arange(len(pairs)), sizes)
    xs, ys = pairs[pair_of].T
    levels = _detour_levels(ball, dist, probes, xs, ys)
    # per pair, highest level first and then smallest probe; pairs keep their blocks
    best = np.lexsort((probes, -levels, pair_of))[np.cumsum(sizes) - sizes]
    return levels[best], probes[best]


def detour_epsilon(ball, dist, plan: SamplingPlan) -> InvariantResult:
    """Detour constant over sampled inner pairs, a lower bound (paths may leave
    any finite ball).  The witness is the smallest (x, y, probe) attaining
    the maximum."""
    n = ball.inner_count
    pairs = next(plan.tuples(n, 2, unordered=True), np.empty((0, 2), dtype=np.int64))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if plan.mode == "exhaustive":
        pairs = pairs[_orbit_least(ball, pairs)]
    values, probes = _pair_detours(ball, dist, pairs)
    value = int(values.max(initial=0))
    x = y = p = 0
    if value > 0:
        hit = np.flatnonzero(values == value)
        k = hit[np.lexsort(pairs[hit].T[::-1])[0]]
        (x, y), p = pairs[k].tolist(), int(probes[k])
    witness = {
        "start": ball.word(x),
        "end": ball.word(y),
        "geodesic_point": ball.word(p),
        "avoidance": value,
    }
    if value > 0 or x != y:
        path = masked_path(ball, dist.row(p), value, x, y)
        witness["adversarial_path"] = _words(ball, path)
    return _result("detour_epsilon", ball, 2 * value, "lower", plan, witness)


# mesh

def _adversarial_sides(ball, dist, cache, pairs):
    """Fill ``cache`` for the unordered pairs it lacks among ``pairs`` with
    the masked path of each one's detour value and probe (one detour pass)."""
    todo = sorted({(min(x, y), max(x, y)) for x, y in pairs} - cache.keys())
    values, probes = _pair_detours(ball, dist, todo)
    for (x, y), value, p in zip(todo, values.tolist(), probes.tolist()):
        cache[x, y] = tuple(masked_path(ball, dist.row(p), value, x, y))


def _pad_rows(rows, width):
    """Path rows padded to ``width`` columns by repeating their last column."""
    return rows[:, np.minimum(np.arange(width), rows.shape[1] - 1)]


def _with_adversarial(dist, cache, x, y, rows, counts, size):
    """The mesh's side choices with each pair's maximal-detour path (from
    ``cache``) after its geodesic rows, unless it is one of them.  ``rows``
    and ``counts`` are as ``_geodesic_rows`` returns them, ``size`` each
    row's path length; returns the three updated."""
    starts = np.cumsum(counts) - counts
    extra, owner = [], []
    for i, (a, b) in enumerate(zip(x.tolist(), y.tolist())):
        adv = cache[min(a, b), max(a, b)]
        adv = adv if adv[0] == a else adv[::-1]
        own = rows[starts[i] : starts[i] + counts[i], : len(adv)]
        if len(adv) != dist.inner[a, b] + 1 or not (own == adv).all(axis=1).any():
            extra.append(adv)
            owner.append(i)
    if not extra:
        return rows, counts, size
    width = max(rows.shape[1], max(map(len, extra)))
    more = np.array([p + p[-1:] * (width - len(p)) for p in extra], dtype=rows.dtype)
    # a stable sort by pair puts each pair's extra row after its geodesics
    order = np.argsort(np.concatenate([np.repeat(np.arange(len(counts)), counts), owner]), kind="stable")
    rows = np.concatenate([_pad_rows(rows, width), more])[order]
    size = np.concatenate([size, [len(p) for p in extra]])[order]
    return rows, counts + np.bincount(owner, minlength=len(counts)), size


# A working tensor of the batched mesh holds at most this many int16 entries.
_MESH_CHUNK = 1 << 18
# Corner triples read from a sampling plan at a time.
_MESH_TRIANGLES = 1 << 12


def _mesh_triangles(plan, n):
    """The plan's non-degenerate corner triples, in plan order, as
    non-empty batches of ``(t, 3)`` arrays."""
    for tri in plan.tuples(n, 3, unordered=True, size=_MESH_TRIANGLES):
        tri = tri[(tri[:, 0] != tri[:, 1]) & (tri[:, 1] != tri[:, 2]) & (tri[:, 0] != tri[:, 2])]
        if len(tri):
            yield tri


def _mesh_rows(paths, D, q):
    """Mesh of each row of side choices: the least diameter of one point per
    side, row ``r`` taking sides ``paths[q[r]]`` of the padded path matrix
    over ``D``'s vertices; each working tensor is ``(rows, width, width)``."""
    n = len(D)
    flat = D.ravel()
    s0, s1, s2 = paths[q[:, 0]] * n, paths[q[:, 1]], paths[q[:, 2]]
    s2 = s2.T[:, :, None]
    D02 = flat[s2 + s0[None]]  # [p2, row, p0]
    D12 = flat[s2 + (s1 * n)[None]]  # [p2, row, p1]
    # min over p2 of max(D02, D12), one p2 at a time
    best = np.maximum(D02[0][:, :, None], D12[0][:, None, :])
    step = np.empty_like(best)
    for j in range(1, len(D02)):
        np.maximum(D02[j][:, :, None], D12[j][:, None, :], out=step)
        np.minimum(best, step, out=best)
    del D02, D12, step  # free them before the D01 gather
    np.maximum(best, flat[s0[:, :, None] + s1[:, None, :]], out=best)  # D01
    return best.reshape(len(q), -1).min(axis=1)


def _mesh_bound(paths, D, q, lengths):
    """Upper bound on ``_mesh_rows`` per row: the least diameter of the 8
    tripod triples, one point per side at the floor or ceiling of its
    Gromov-product position ((b|c)_a from a on side a->b, ...), clipped to
    the side's length ``lengths[q] - 1``."""
    n, q = len(D), q.T
    L = lengths[q] - 1
    g = L.sum(axis=0) - 2 * L[[1, 2, 0]]  # twice each position
    flat, at = paths.ravel(), q * paths.shape[1]
    a, b, c = np.stack([flat[at + np.clip(h, 0, L)] for h in (g // 2, (g + 1) // 2)], axis=1)
    D = D.ravel()
    T = np.maximum(D[(a * n)[:, None] + b][:, :, None], D[(b * n)[:, None] + c])
    T = np.maximum(T, D[(a * n)[:, None] + c][:, None])
    return T.reshape(8, -1).min(axis=0)


def _key_before(keys, key):
    """Which rows of ``keys`` sort lexicographically before the tuple ``key``."""
    before, same = np.zeros(len(keys), dtype=bool), np.ones(len(keys), dtype=bool)
    for col, v in zip(keys.T, key):
        before |= same & (col < v)
        same &= col == v
    return before


def mesh_estimate(ball, dist, plan: SamplingPlan, mode="geodesic") -> InvariantResult:
    """Worst per-triangle mesh over sampled corner triples: the least diameter
    of one point per side, maximized over (capped) geodesic side choices,
    and in ``adversarial`` mode each side's maximal-detour path too.  Always
    a lower bound: the true mesh ranges over arbitrary triangles.

    Each ordered corner pair's choices are unranked once from the store
    (``_geodesic_rows``) into a path matrix padded by repeating the last
    vertex, over a distance block of the vertices used.  Each (triangle,
    i0, i1, i2) is a row, in plan order, choices in product order; an
    exhaustive geodesic plan runs ``_least_triangles``, in full for orbits
    with a capped side: the cap keeps a side's first geodesics in label
    order, which a map need not keep.  Rows run in chunks of at most ``_MESH_CHUNK``
    working entries, grouped by longest side (the cost is its cube), and
    only rows whose tripod bound ``_mesh_bound`` beats the running maximum,
    or ties it with a smaller key, run it.  The winner
    is the smallest ``(a, b, c, i0, i1, i2)`` attaining the maximum, its
    points the first row-major argmin; a maximum of 0 keeps corners ``(0, 0,
    0)`` and no sides.
    """
    if mode not in ("geodesic", "adversarial"):
        raise ValueError(f"unknown mesh mode {mode!r}")
    n = ball.inner_count
    pair_id = np.full((n, n), -1, dtype=np.int64)
    adversarial = {}  # unordered pair -> its maximal-detour path
    first, count, blocks, lengths = [], [], [], []
    rows_before = 0
    capped = False
    triangles = functools.partial(_mesh_triangles, plan, n)
    if plan.mode == "exhaustive" and mode == "geodesic":
        triangles = _least_triangles(ball, _capped_pairs(dist, plan.geodesic_cap), _MESH_TRIANGLES)
    for tri in triangles():
        u, v = tri.ravel(), tri[:, [1, 2, 0]].ravel()
        new = pair_id[u, v] < 0
        codes = _unique(u[new] * n + v[new])
        if not len(codes):
            continue
        x, y = codes // n, codes % n
        rows, k, truncated = _geodesic_rows(ball, dist, x, y, plan.geodesic_cap)
        capped = capped or bool(truncated.any())
        size = np.repeat(dist.inner[x, y] + 1, k)
        if mode == "adversarial":
            _adversarial_sides(ball, dist, adversarial, list(zip(x.tolist(), y.tolist())))
            rows, k, size = _with_adversarial(dist, adversarial, x, y, rows, k, size)
        pair_id[x, y] = len(first) + np.arange(len(codes))
        first.extend((rows_before + np.cumsum(k) - k).tolist())
        count.extend(k.tolist())
        blocks.append(rows)
        lengths.append(size)
        rows_before += len(rows)
    best = _Extremum()
    best.offer(0, (0, 0, 0), None)
    if blocks:
        lengths = np.concatenate(lengths)
        width = int(lengths.max())
        padded = np.concatenate([_pad_rows(b, width) for b in blocks])
        used = _unique(padded)
        # flat indices into the |U|x|U| block; int32 halves the index tensors
        P = np.searchsorted(used, padded).astype(np.int32 if len(used) ** 2 < 2**31 else np.int64)
        D = dist.rows(used, used)
        first, count = np.asarray(first), np.asarray(count)
        chunk = max(1, _MESH_CHUNK // width**2)
        for tri in triangles():
            pid = pair_id[tri, tri[:, [1, 2, 0]]]
            k = count[pid]
            sizes = k.prod(axis=1)
            starts = np.cumsum(sizes) - sizes
            total = int(sizes.sum())
            for lo in range(0, total, chunk):
                r = np.arange(lo, min(lo + chunk, total))
                t = np.searchsorted(starts, r, side="right") - 1  # triangle of each row
                local, k1, k2 = r - starts[t], k[t, 1], k[t, 2]
                choice = np.column_stack([local // (k1 * k2), local // k2 % k1, local % k2])
                q = first[pid[t]] + choice
                keys = np.column_stack([tri[t], choice])
                U = _mesh_bound(P, D, q, lengths)
                live = (U > best.value) | ((U == best.value) & _key_before(keys, best.key))
                if not live.any():
                    continue
                q, keys = q[live], keys[live]
                wq = lengths[q].max(axis=1)
                values = np.empty(len(q), dtype=D.dtype)
                for w in _unique(wq).tolist():
                    sel = wq == w
                    values[sel] = _mesh_rows(P[:, :w], D, q[sel])
                top = int(values.max())
                if top == 0 or top < best.value:
                    continue
                hit = np.flatnonzero(values == top)
                w = hit[np.lexsort(keys[hit].T[::-1])[0]]
                best.offer(top, tuple(keys[w].tolist()), q[w].tolist())
    witness = {"corners": _words(ball, best.key[:3]), "mesh": int(best.value)}
    if best.data is not None:
        sides = [padded[i, : lengths[i]].tolist() for i in best.data]
        a, b, c = (np.searchsorted(used, s) for s in sides)
        T = np.maximum(D[np.ix_(a, b)][:, :, None], D[np.ix_(b, c)][None])
        T = np.maximum(T, D[np.ix_(a, c)][:, None, :])
        pts = [s[i] for s, i in zip(sides, np.unravel_index(int(T.argmin()), T.shape))]
        witness["sides"] = [_words(ball, s) for s in sides]
        witness["points"] = _words(ball, pts)
    extra = {"mode": mode, "capped": capped}
    return _result("mesh_estimate", ball, 2 * best.value, "lower", plan, witness, extra)


# quasi-convexity of a finitely generated subgroup

def enumerate_subgroup(ball, subgroup_gens):
    """Closure of the identity under subgroup generator words inside the
    ball: ``(sorted vertex indices, M)``, M the largest generator length."""
    if not subgroup_gens:
        raise ValueError("subgroup generator list is empty")
    spec = ball.spec
    letters = []
    for w in subgroup_gens:
        e = spec.parse_word(w)
        for candidate in (e, spec.invert(e)):
            if candidate not in ball.index:
                raise ValueError(
                    f"subgroup generator {w!r} leaves the radius-{ball.r_out} ball"
                )
            letters.append(candidate)
    M = max(int(ball.dist0[ball.index[e]]) for e in letters)
    seen = {0}
    queue = deque([0])
    while queue:
        h = queue.popleft()
        eh = ball.elements[h]
        for b in letters:
            idx = ball.index.get(spec.multiply(eh, b))
            if idx is not None and idx not in seen:
                seen.add(idx)
                queue.append(idx)
    return sorted(seen), M


def subgroup_quasiconvexity(ball, dist, subgroup_gens, detour_result=None) -> InvariantResult:
    """Quasi-convexity constant of the subgroup the words generate: the
    farthest a geodesic between inner subgroup elements strays from the
    subgroup's trace in the ball.  Reports M (largest generator length) and,
    given a detour result, whether q <= epsilon + M."""
    H, M = enumerate_subgroup(ball, subgroup_gens)
    H_arr = np.asarray(H, dtype=np.int64)
    H_inner = H_arr[H_arr < ball.inner_count]
    i, j = np.triu_indices(len(H_inner))
    h, h2 = H_inner[i], H_inner[j]
    dags = inner_dags(dist)
    entry, sizes = _entries(dags, _pair_ids(ball.inner_count, h, h2))
    verts = dags.verts[entry]
    used, local = np.unique(verts, return_inverse=True)
    block = dist.rows(used, H_arr)
    nearest = block.argmin(axis=1)  # the first nearest element in H order
    far = block[np.arange(len(used)), nearest][local]
    # highest distance, then the smallest (h, h2, p); the identity is in H,
    # so pair (0, 0) is first and a maximum of 0 keeps the witness (0, 0, 0)
    pair = np.repeat(np.arange(len(sizes)), sizes)
    w = np.lexsort((verts, h2[pair], h[pair], -far))[0]
    value, k = int(far[w]), pair[w]
    witness = {
        "h": ball.word(int(h[k])),
        "h2": ball.word(int(h2[k])),
        "geodesic_point": ball.word(int(verts[w])),
        "nearest_subgroup_element": ball.word(H[nearest[local[w]]]),
        "distance": value,
    }
    extra = {
        "M": int(M),
        "subgroup_generators": list(subgroup_gens),
        "subgroup_vertices_in_ball": len(H),
        "subgroup_vertices_in_inner_ball": len(H_inner),
    }
    if detour_result is not None:
        eps_doubled = int(detour_result.value_doubled)
        extra["epsilon_doubled"] = eps_doubled
        extra["q_le_epsilon_plus_M"] = bool(2 * value <= eps_doubled + 2 * M)
    return _result(
        "subgroup_quasiconvexity", ball, 2 * value, "lower",
        SamplingPlan.exhaustive(), witness, extra,
    )


# hyperbolic-plane demo value

def h2_center_distance(radius_euclidean: float) -> float:
    """Poincare-disk distance from the origin to a point at euclidean radius
    r: |ln((1 - r) / (1 + r))|.  It diverges as r -> 1: near-boundary
    polygon sides escape every neighborhood of the center."""
    r = float(radius_euclidean)
    if not 0.0 <= r < 1.0:
        raise ValueError(f"euclidean radius must lie in [0, 1), got {r}")
    return abs(math.log((1.0 - r) / (1.0 + r)))
