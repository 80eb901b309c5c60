"""The four virtually-free invariants and their auxiliary constants.

Everything is measured on the vertices of a padded ball (see
``cayleyball.ball``).  Values are reported as doubled integers so that
half-integer Gromov-product quantities stay exact; distance-valued constants
are simply doubled.  Every result carries an explicit bound direction:

* ``exact`` -- exhaustive tuple space, no geodesic cap bound, and the value
  is a finite-window statistic of the ball itself;
* ``lower`` -- random sampling, a binding cap, or a quantity whose true
  supremum ranges over objects that can leave any finite ball (detour
  constant, mesh over arbitrary triangles, quasi-convexity over an infinite
  subgroup).

Nothing sampled or capped is ever labeled exact.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .ball import DistanceMatrix, connected_without
from .geodesics import (
    _avoidance_units,
    _first_padded,
    _geodesic_rows,
    _interval_dags,
    _segments,
    enumerate_geodesics,  # noqa: F401 - not called here; the geodesics.enumerate probe binds it
    geodesic_through,
    interval,  # noqa: F401 - not called here; the geodesics.interval probe binds it
    max_avoidance,  # noqa: F401 - not called here; the geodesics.avoidance probe binds it
    max_avoidance_block,
    most_avoiding_geodesic,
)
from .groups import InternalCheckError


# ---------------------------------------------------------------------------
# sampling plans and results

@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic description of which tuples and geodesics are examined.

    ``geodesic_cap`` bounds the number of geodesics enumerated per side where
    explicit enumeration is needed, which is only the mesh; ``None`` means
    unlimited.  Bigons never enumerate paths and are exact under every
    exhaustive plan.
    """

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

    @classmethod
    def exhaustive(cls, geodesic_cap=64):
        return cls(mode="exhaustive", geodesic_cap=geodesic_cap)

    @classmethod
    def random(cls, count, seed, geodesic_cap=64):
        return cls(mode="random", count=count, seed=seed, geodesic_cap=geodesic_cap)

    def tuples(self, n, arity, unordered=False, size=None):
        """The plan's ``arity``-tuples over ``range(n)``, in plan order, as
        non-empty int64 arrays of at most ``size`` rows (one when None),
        each row sorted when ``unordered``.  A random plan slices its
        draws; an exhaustive one reads ``itertools.product`` (distinct
        ``combinations`` when unordered) one array at a time."""
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
        """``count`` rows of ``arity`` values, the values that successive
        ``random.Random(seed).randrange(n)`` calls return, drawn in bulk.

        For ``n < 2**32``, ``randrange(n)`` takes one 32-bit word of the
        generator per attempt, keeps its top ``n.bit_length()`` bits and
        retries while they are ``>= n``; ``getrandbits(32 * m)`` is ``m``
        such words, least significant first.  Each call seeds its own
        generator, so words drawn beyond the last kept value change nothing.
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
    """A measured constant with bound direction, sampling record and witness.

    ``value_doubled`` holds twice the half-integer value, so it is always an
    exact integer; ``value`` is the human-readable half.
    """

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


# ---------------------------------------------------------------------------
# Gromov products and the four-point condition

def _gromov_matrix(dist, p):
    """Doubled Gromov products at basepoint p over inner pairs, as int16:
    no sum ``d(p, x) + d(p, y)`` exceeds ``4 * r_in``, which ``build_ball``'s
    radius bound keeps inside int16."""
    D = dist.inner
    dp = D[p]
    return dp[:, None] + dp[None, :] - D


def four_point_delta(dist: DistanceMatrix, plan: SamplingPlan) -> InvariantResult:
    """Worst defect of the four-point inequality over sampled quadruples:

        max over (x0, x1, x2, p) of  min{(x0|x1)_p, (x1|x2)_p} - (x0|x2)_p

    floored at zero, in doubled units.

    Exhaustively this is the chain condition's 2-chain case: at basepoint p
    the max over x1 is the max-min square of the Gromov matrix G, so p's
    value is ``(_maxmin(G, G) - G).max()``.  The witness, the
    lexicographically first (p, x1, x0, x2) attaining the maximum, is
    rebuilt for the first winning basepoint only.
    """
    ball = dist.ball
    n = ball.inner_count
    if plan.mode == "exhaustive":
        values = []
        for p in range(n):
            G = _gromov_matrix(dist, p)
            values.append(int((_maxmin(G, G) - G).max()))
        value = max(values)
        p = values.index(value)
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


# ---------------------------------------------------------------------------
# chain defect: the all-lengths Gromov inequality as a max-min closure of the
# Gromov-product matrix.  The four-point condition is its 2-chain case, and
# polygon thinness is a max-min chain over avoidance values.

def _maxmin(A, B):
    """Max-min matrix product: entry (i, j) is max over z of min(A[i, z], B[z, j])."""
    return np.minimum(A[:, :, None], B[None, :, :]).max(axis=1)


def _maxmin_chain(powers, start, end):
    """A chain start = y_0, ..., y_k = end of k = len(powers) steps attaining
    powers[k - 1][start, end], where powers[j] is the (j + 1)-step max-min
    power of powers[0]; each step back takes the lowest index keeping the value."""
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
    length through inner-ball vertices, maximized over all inner basepoints.

    The supremum over all chain lengths is exactly the max-min closure of
    the Gromov-product matrix; the witness is a shortest chain attaining
    the defect, rebuilt for the first winning basepoint only.
    """
    ball = dist.ball
    best = _Extremum()
    for p in range(ball.inner_count):
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


# ---------------------------------------------------------------------------
# polygon thinness constants: the thinness of a polygon is measured against
# the union of ALL sides other than the distinguished last one (the variant
# under which the thinness/chain/mesh equivalences actually run), not just
# the two sides adjacent to it.

class _PolygonScan:
    """Exhaustive worst-case polygon thinness over every inner corner tuple.

    For a probe point p, the worst thinness of an (n+1)-gon whose last side
    has endpoints (a, b) with p on some last-side geodesic decomposes into a
    bottleneck chain problem: each non-last side contributes the maximal
    avoidance w_p(u, v) = max over geodesics u->v of d(p, image), and the
    polygon value is the max over corner chains of the minimum contribution.
    Exact n-step max-min matrix powers of w_p then cover every corner tuple
    at once, which is what makes exhaustive mode affordable.

    Only probes of the geodesic hull are scanned, in ascending vertex order:
    a probe outside it fails the mask ``d(a,p) + d(p,b) == d(a,b)`` for every
    inner pair, so it can only offer -1 and never beats the running 0.
    ``WP[k]`` is ``w_p`` of the k-th hull vertex, and ``last[k]`` its highest
    power computed so far, so a larger ``n`` continues where the last stopped.
    """

    def __init__(self, ball, dist):
        self.ball = ball
        self.dist = dist
        self.results = {}
        self.n_max = 0
        rows = dist.ensure_mid_rows()
        self.hull = dist.hull()
        ni = ball.inner_count
        us, vs = np.triu_indices(ni)
        vals = max_avoidance_block(ball, dist, us, vs, rows).T
        WP = np.empty((len(self.hull), ni, ni), dtype=np.int16)
        WP[:, us, vs] = vals
        WP[:, vs, us] = vals
        self.WP = WP
        self.last = list(WP)

    def ensure(self, n_max):
        if n_max <= self.n_max:
            return
        ni = self.ball.inner_count
        rows = self.dist.ensure_mid_rows()
        sizes = range(self.n_max + 1, n_max + 1)
        best = {}
        for n in sizes:
            best[n] = _Extremum()
            best[n].offer(0, (0, 0, 0))
        for k, p in enumerate(self.hull.tolist()):
            W = self.WP[k]
            dap = rows[k, :ni]
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


# Corner tuples read from a sampling plan and evaluated at a time by the
# tuple method.  On a 2-vCPU VM, 2^8 to 2^10 ran the sampled polygon:3 of
# Z2 * Z3 R9, Z x Z R4 and F(a,b) R3 about equally fast; the batch's own
# allocation peak grows with it (5.7, 8.1 and 24.5 MiB at 2^8, 2^10 and
# 2^12 on Z2 * Z3 R9).
_POLYGON_TUPLES = 1 << 8


def _polygon_tuple_batch(ball, dist, corners):
    """``(value, corners, probe)`` of the worst tuple of a ``(t, n + 1)``
    array of corner tuples: the highest value, then the lexicographically
    smallest tuple, and within it the smallest probe attaining the value.

    A tuple's probes are the interval of its last side (c_n, c_0), and its
    value is the max over probes of the min over its other sides of the
    maximal avoidance.  Every side of the batch, the last ones included,
    gets one entry of one store, oriented from its smaller end.  Each
    (tuple, other side) is one unit of one ``_avoidance_units`` pass, with
    the tuple's probes as its vector axis, read from the rows of the
    batch's distinct probes cut after the store's largest vertex.
    """
    t, n = len(corners), corners.shape[1] - 1
    ni = ball.inner_count
    nxt = np.roll(corners, -1, axis=1)  # side i runs from corner i to corner i + 1
    pairs, pid = np.unique(np.minimum(corners, nxt) * ni + np.maximum(corners, nxt), return_inverse=True)
    pid = pid.reshape(t, n + 1)
    dags = _interval_dags(ball, dist, pairs // ni, pairs % ni)
    sizes = np.diff(dags.ptr)[pid[:, -1]]
    probes = dags.verts[_first_padded(dags.ptr[pid[:, -1]], sizes)]
    used, local = np.unique(probes, return_inverse=True)
    local = local.reshape(probes.shape)
    rows = dist.rows(used, np.arange(int(dags.verts.max()) + 1))

    def values(entry, owner):
        return rows[local[owner // n], dags.verts[entry][:, None]]

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
    geodesic choices, in batches of ``_POLYGON_TUPLES`` that each take one
    pass over one geodesic-DAG store.  Under an exhaustive plan it covers
    every corner tuple and agrees with the scan, its oracle in the tests."""
    best = _Extremum()
    best.offer(0, tuple([0] * (n + 1)), 0)
    for corners in plan.tuples(ball.inner_count, n + 1, size=_POLYGON_TUPLES):
        best.offer(*_polygon_tuple_batch(ball, dist, corners))
    witness = _polygon_tuple_witness(ball, dist, list(best.key), best.data, best.value)
    bound = "exact" if plan.mode == "exhaustive" else "lower"
    return _result("polygon_delta", ball, 2 * best.value, bound, plan, witness, {"n": n, "method": "tuples"})


def polygon_delta(ball, dist, n, plan: SamplingPlan) -> InvariantResult:
    """Worst vertex-level thinness over geodesic (n+1)-gons.

    An exhaustive plan runs the scan, which covers every corner tuple and
    every geodesic choice with max-min powers; a sampled one evaluates its
    corner tuples with ``_polygon_tuples`` and is a lower bound.
    """
    if n < 1:
        raise ValueError("polygon size parameter must be at least 1")
    if n + 1 > ball.inner_count:
        raise ValueError(
            f"a {n + 1}-gon needs {n + 1} corners but the inner ball has only "
            f"{ball.inner_count} vertices"
        )
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


# ---------------------------------------------------------------------------
# bigons: asynchronous and synchronous fellow-traveling constants

# Plan pairs read into one bigon store at a time.  On a 2-vCPU VM, 2^10
# ran the bigons of Z2 * Z3 R9 (5000 sampled pairs) in 45 ms against 70 ms
# at 2^8, and the peak RSS of the Z x Z R2..4 sweep read 68.5 MiB, against
# 69.8 MiB with the per-pair DAGs the store replaced.
_BIGON_PAIRS = 1 << 10


def _bigon_batch(ball, dist, pairs):
    """async and sync values, with their vertices, of a batch's pairs that
    have more than one geodesic: ``(pairs, a_val, a_vertex, s_val, s_a,
    s_b)``, in batch order.  The first maximum counts, in DAG order for
    async and in row-major (entry, entry) order for sync."""
    dags = _interval_dags(ball, dist, pairs[:, 0], pairs[:, 1])
    sizes = np.diff(dags.ptr)
    keep = np.flatnonzero(sizes > dist.inner[pairs[:, 0], pairs[:, 1]] + 1)
    if not len(keep):
        none = np.empty(0, dtype=np.int64)
        return pairs[keep], none, none, none, none, none
    sizes = sizes[keep]
    base = np.cumsum(sizes) - sizes
    e = _segments(dags.ptr[keep], sizes)
    verts = dags.verts[e]
    owner = np.repeat(np.arange(len(keep)), sizes)
    used, local = np.unique(verts, return_inverse=True)
    D = dist.rows(used, used)  # symmetric
    # async: a pair's own interval vertices are the probes, the vector axis
    # of its unit; a shorter interval repeats its first probe
    probe = local[_first_padded(base, sizes)]
    row_of = np.empty(len(dags.verts), dtype=np.int64)  # store entry -> row of D
    row_of[e] = local

    def values(entry, unit):
        return D[row_of[entry][:, None], probe[unit]]

    avoid = _avoidance_units(dags, keep, probe.shape[1], values)
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

    async is the worst one-sided Hausdorff distance from one geodesic into a
    coterminal one: the max over interval probes p of the max avoidance of p.
    sync is the worst distance between same-parameter vertices: the largest
    diameter of one DAG layer's slice of the interval, since two geodesics
    can pass through any two vertices of a layer.  Plan pairs are read in
    batches of ``_BIGON_PAIRS``, each one geodesic-DAG store: pairs whose
    interval holds one vertex per layer have a unique geodesic and drop
    out; async is one max-min pass over the others' entries with the pair's
    own interval vertices as probes, and it and sync read one distance
    block over the batch's interval vertices.  Neither enumerates paths, so the geodesic cap does not apply
    and both are exact under every exhaustive plan.  Every evaluated pair is
    checked against sync <= 2 * async.
    """
    n = ball.inner_count
    best_async = _Extremum()
    best_sync = _Extremum()
    best_async.offer(0, (0, 0), None)
    best_sync.offer(0, (0, 0), None)
    for batch in plan.tuples(n, 2, unordered=True, size=_BIGON_PAIRS):
        pairs, a_val, a_w, s_val, s_a, s_b = _bigon_batch(ball, dist, batch)
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


# ---------------------------------------------------------------------------
# detour constant: how far an adversarial coterminal path can stay away

# Adjacency entries of one stacked graph in the batched detour pass.  On a
# 2-vCPU VM, 2^15 to 2^18 ran the benchmark workloads' detour about equally
# fast, and 2^16 keeps a stack's arrays near 0.5 MiB; much larger stacks fall
# out of cache (2^22 ran free-r3's detour 1.5x slower).
_DETOUR_ENTRIES = 1 << 16


def _detour_levels(ball, dist, probes, xs, ys):
    """Detour level of every query ``(probes[i], xs[i], ys[i])``, as an int
    array aligned with the inputs.

    The level of a query (p, x, y) is the largest ``r >= 1`` at which x and
    y are connected in the subgraph induced on ``{w : rp[w] >= r}``, with
    ``rp = dist.row(p)``, and 0 when there is none.  The subgraphs shrink as
    ``r`` grows, so levels are resolved in ascending ``r`` and a query drops
    out at the first ``r`` that splits its pair.

    Level 1 asks whether x and y stay connected in the ball minus p.
    ``connected_without`` answers it for every query from one depth-first
    search of the ball, through its cut vertices, and reads no distance
    row; on a hyperbolic ball every query stops there.

    The levels from 2 up are stacked.  Per level, every probe with an
    unresolved query gets one copy of the ball's CSR, and the copies are
    stacked block-diagonally, copy ``k`` offsetting vertex ids by
    ``k * n_vertices``, so one ``connected_components`` call labels every
    copy at once.  An edge with ``min(rp[s], rp[t]) < r`` is masked by
    pointing it back at its own row (a self-loop): every copy keeps the
    cached CSR's ``indptr``, so nothing is sorted or sliced.  A masked
    vertex is isolated in its copy, and a query also needs both endpoints
    unmasked (which is what ends a query with x == y).  The ball's graph is
    symmetric and an edge is masked with its reverse, so the stack's
    strongly connected components are its connected components; the strong
    search reads only ``indptr`` and ``indices``, where an undirected one
    first transposes the whole stack.  Probes are stacked in chunks of at
    most ``_DETOUR_ENTRIES`` adjacency entries (at least one probe per
    chunk), so each stacked graph stays small enough for the cache.
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
    graph = ball.csr()
    n, nnz = ball.n_vertices, graph.nnz
    per_chunk = max(1, _DETOUR_ENTRIES // max(nnz, 1))
    copies = min(per_chunk, len(np.unique(sp[active])))
    src = np.repeat(np.arange(n, dtype=np.int32), np.diff(graph.indptr))
    dst = graph.indices.astype(np.int32, copy=False)
    # the stack of `copies` copies; a chunk of m copies reads prefixes
    shift = np.arange(copies, dtype=np.int32)[:, None]
    indptr = np.append((graph.indptr[:-1] + shift * nnz).ravel(), copies * nnz).astype(np.int32, copy=False)
    data = np.broadcast_to(1.0, (copies * nnz,))  # edge weights are never read
    r = 2
    while active.size:
        ap = sp[active]
        live = np.unique(ap)
        survivors = []
        for lo in range(0, len(live), per_chunk):
            chunk = live[lo : lo + per_chunk]
            m = len(chunk)
            allowed = dist.rows(chunk) >= r
            kept = allowed.take(src, axis=1)
            kept &= allowed.take(dst, axis=1)
            heads = np.where(kept, dst, src)
            heads += shift[:m] * n
            stacked = csr_matrix((data[: m * nnz], heads.ravel(), indptr[: m * n + 1]), shape=(m * n, m * n))
            allowed = allowed.ravel()
            _, labels = connected_components(stacked, directed=True, connection="strong")
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
    largest level over the probes of the pair's interval, and the smallest
    probe attaining it.  The intervals are one geodesic-DAG store, and one
    ``_detour_levels`` pass resolves every pair."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    dags = _interval_dags(ball, dist, pairs[:, 0], pairs[:, 1])
    sizes, probes, pair_of = np.diff(dags.ptr), dags.verts.astype(np.int32), dags.pair
    del dags  # the pass reads no DAG edges; free them before it runs
    xs, ys = pairs[pair_of].T
    levels = _detour_levels(ball, dist, probes, xs, ys)
    # per pair, highest level first and then smallest probe; pairs keep their blocks
    best = np.lexsort((probes, -levels, pair_of))[np.cumsum(sizes) - sizes]
    return levels[best], probes[best]


def detour_epsilon(ball, dist, plan: SamplingPlan) -> InvariantResult:
    """Detour constant over sampled inner pairs; always a lower bound, since
    paths in the full group may leave any finite ball.  The witness is the
    lexicographically smallest (x, y, probe) attaining the maximum."""
    n = ball.inner_count
    pairs = next(plan.tuples(n, 2, unordered=True), np.empty((0, 2), dtype=np.int64))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
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


# ---------------------------------------------------------------------------
# mesh

def _adversarial_sides(ball, dist, cache, pairs):
    """Fill ``cache`` for the unordered pairs among ``pairs`` that it
    lacks: each gets the masked path of its detour value and probe, all
    resolved in one batched detour pass."""
    todo = sorted({(min(x, y), max(x, y)) for x, y in pairs} - cache.keys())
    values, probes = _pair_detours(ball, dist, todo)
    for (x, y), value, p in zip(todo, values.tolist(), probes.tolist()):
        cache[x, y] = tuple(masked_path(ball, dist.row(p), value, x, y))


def _pad_rows(rows, width):
    """Path rows padded to ``width`` columns by repeating their last column."""
    return rows[:, np.minimum(np.arange(width), rows.shape[1] - 1)]


def _with_adversarial(dist, cache, x, y, rows, counts, size):
    """The mesh's side choices with each pair's maximal-detour path (from
    ``cache``, as ``_adversarial_sides`` fills it) after the pair's geodesic
    rows, unless it is one of them.  ``rows`` and ``counts`` are as
    ``_geodesic_rows`` returns them and ``size`` holds each row's path
    length; returns the three updated."""
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
    more = np.array([p + p[-1:] * (width - len(p)) for p in extra], dtype=np.int64)
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
    side.  ``paths`` is the padded path matrix over the vertex indices of
    ``D``, and row ``r`` takes sides ``paths[q[r, 0]]``, ``paths[q[r, 1]]``
    and ``paths[q[r, 2]]``; each working tensor is ``(rows, width, width)``.
    """
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


def mesh_estimate(ball, dist, plan: SamplingPlan, mode="geodesic") -> InvariantResult:
    """Worst per-triangle mesh over sampled corner triples.

    Per triangle the mesh is the least possible diameter of one point per
    side, maximized over (capped) geodesic side choices; ``adversarial`` mode
    additionally offers each side's maximal-detour path.  Always reported as
    a lower bound: the true mesh ranges over arbitrary triangles.

    One batched program: each ordered corner pair's side choices are listed
    once, unranked in label-lexicographic order from one geodesic-DAG store
    per batch of new pairs (``_geodesic_rows``, the order and cap of
    ``enumerate_geodesics``), straight into the rows of a path matrix padded
    by repeating the last vertex (a repeated vertex changes no minimum),
    over a compact distance block of the vertices used.  Every (triangle,
    i0, i1, i2) combination of side choices is one row, in plan order with
    the choices in product order; degenerate triangles are skipped.  Rows are evaluated
    in chunks whose working tensors hold at most ``_MESH_CHUNK`` entries, so
    memory stays bounded however many rows there are; within a chunk, rows
    are grouped by their longest side and each group's tensors are only
    that wide (an adversarial side can be twice as long as a geodesic,
    and the cost grows with the cube of the width).  The winner is the
    lexicographically smallest ``(a, b, c, i0, i1, i2)`` attaining the
    maximum, and its points are the first row-major argmin over its sides;
    when the maximum is 0 the witness keeps corners ``(0, 0, 0)`` and no
    sides.
    """
    if mode not in ("geodesic", "adversarial"):
        raise ValueError(f"unknown mesh mode {mode!r}")
    n = ball.inner_count
    pair_id = np.full((n, n), -1, dtype=np.int64)
    adversarial = {}  # unordered pair -> its maximal-detour path
    first, count, blocks, lengths = [], [], [], []
    rows_before = 0
    capped = False
    for tri in _mesh_triangles(plan, n):
        u, v = tri.ravel(), tri[:, [1, 2, 0]].ravel()
        new = pair_id[u, v] < 0
        codes = np.unique(u[new] * n + v[new])
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
        used = np.unique(padded)
        # flat indices into the |U|x|U| block; int32 halves the index tensors
        P = np.searchsorted(used, padded).astype(np.int32 if len(used) ** 2 < 2**31 else np.int64)
        D = dist.rows(used, used)
        first, count = np.asarray(first), np.asarray(count)
        chunk = max(1, _MESH_CHUNK // width**2)
        for tri in _mesh_triangles(plan, n):
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
                wq = lengths[q].max(axis=1)
                values = np.empty(len(q), dtype=D.dtype)
                for w in np.unique(wq).tolist():
                    sel = wq == w
                    values[sel] = _mesh_rows(P[:, :w], D, q[sel])
                top = int(values.max())
                if top == 0 or top < best.value:
                    continue
                hit = np.flatnonzero(values == top)
                keys = np.column_stack([tri[t[hit]], choice[hit]])
                w = np.lexsort(keys.T[::-1])[0]
                best.offer(top, tuple(keys[w].tolist()), q[hit[w]].tolist())
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


# ---------------------------------------------------------------------------
# quasi-convexity of a finitely generated subgroup

def enumerate_subgroup(ball, subgroup_gens):
    """Closure of the identity under subgroup generator words inside the ball.

    Returns ``(sorted vertex indices, M)`` where M is the largest word-metric
    length of a subgroup generator.
    """
    if ball.spec is None:
        raise ValueError("subgroup enumeration needs a ball with a group spec")
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
    """Quasi-convexity constant of the subgroup generated by the given words:
    the farthest a geodesic between inner subgroup elements strays from the
    subgroup's trace in the ball.  Reports M (largest generator length) and,
    when a detour result is supplied, whether q <= epsilon + M.
    """
    H, M = enumerate_subgroup(ball, subgroup_gens)
    H_arr = np.asarray(H, dtype=np.int64)
    H_inner = H_arr[H_arr < ball.inner_count]
    i, j = np.triu_indices(len(H_inner))
    h, h2 = H_inner[i], H_inner[j]
    dags = _interval_dags(ball, dist, h, h2)
    used, local = np.unique(dags.verts, return_inverse=True)
    block = dist.rows(used, H_arr)
    nearest = block.argmin(axis=1)  # the first nearest element in H order
    far = block[np.arange(len(used)), nearest][local]
    # highest distance, then the smallest (h, h2, p); the identity is in H,
    # so pair (0, 0) is first and a maximum of 0 keeps the witness (0, 0, 0)
    pair = dags.pair
    w = np.lexsort((dags.verts, h2[pair], h[pair], -far))[0]
    value, k = int(far[w]), pair[w]
    witness = {
        "h": ball.word(int(h[k])),
        "h2": ball.word(int(h2[k])),
        "geodesic_point": ball.word(int(dags.verts[w])),
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


# ---------------------------------------------------------------------------
# hyperbolic-plane demo value

def h2_center_distance(radius_euclidean: float) -> float:
    """Poincare-disk distance from the origin to a point at the given
    euclidean radius: |ln((1 - r) / (1 + r))|.

    Diverges as r -> 1, which is what makes near-boundary polygon sides
    escape every fixed neighborhood of the center.
    """
    r = float(radius_euclidean)
    if not 0.0 <= r < 1.0:
        raise ValueError(f"euclidean radius must lie in [0, 1), got {r}")
    return abs(math.log((1.0 - r) / (1.0 + r)))
