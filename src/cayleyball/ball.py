"""Cayley-graph balls with exact word-metric distances.

A ball is built out to radius ``r_out = 3 * r_in``.  Any geodesic between
two vertices of the inner ball has length at most ``2 * r_in``, so all of
its vertices stay within ``3 * r_in`` of the identity; distances restricted
to inner-ball pairs therefore agree with the word metric of the full
(possibly infinite) group.  More generally, a distance ``d(u, v)`` measured
inside the ball is exact whenever

    (d(1, u) + d(1, v) + d(u, v)) / 2  <=  r_out.

Distance rows are clipped at ``clip = 2 * r_in + 1``: a row stores
``min(d_ball(u, w), clip)``, so every distance up to ``2 * r_in`` is exact
and every longer one reads ``clip``.  That is all the invariant computations
need.  Their probe points lie on geodesics between inner vertices, and each
value they report or compare against a threshold is at most a side length
or the distance from a probe to an endpoint of its geodesic, hence at most
``2 * r_in``.  Below ``clip`` a clipped distance decides every such
comparison as the exact one does, and the maximum or minimum of clipped
values is the clipped maximum or minimum.

Those probe points form the geodesic hull: the vertices on some geodesic
between two inner vertices, all within ``2 * r_in`` of the identity.
``DistanceMatrix.hull`` reads it exactly from the inner rows, and the
exhaustive scans take their rows in one block over the hull alone rather
than over the whole ``2 * r_in`` ball.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .groups import GeneratorLetter, GroupSpec, WordError

# Byte budget of the float64 block one Dijkstra search returns.
_DIJKSTRA_BYTES = 16 << 20


class BudgetExceededError(RuntimeError):
    """Ball construction hit the vertex budget; carries a partial-size report."""

    def __init__(self, budget, vertices_found, radius_reached):
        super().__init__(
            f"vertex budget {budget} exceeded: {vertices_found} vertices found "
            f"within radius {radius_reached}"
        )
        self.budget = budget
        self.vertices_found = vertices_found
        self.radius_reached = radius_reached


def resolve_letters(spec: GroupSpec, generator_words=None):
    """Resolve a generating set and close it under inversion.

    ``generator_words`` is a list of words over the standard generators; when
    omitted the standard generators are used.  Letters are deduplicated by
    group element (labels are canonical words, so label equality is element
    equality) and identity letters are rejected.
    """
    if generator_words is None:
        base = [(name, spec._by_name[name]) for name, _ in spec.generators]
    else:
        base = [(w, spec.parse_word(w)) for w in generator_words]
    if not base:
        raise ValueError("generator list is empty")

    letters = []
    seen = {}
    for word, element in base:
        if element == spec.identity():
            raise ValueError(f"generator word {word!r} is the identity")
        label = spec.format_element(element)
        if label in seen:
            continue
        seen[label] = True
        letters.append(GeneratorLetter(label=label, word=word, inverted=False, element=element))
    for letter in list(letters):
        inv = spec.invert(letter.element)
        label = spec.format_element(inv)
        if label not in seen:
            seen[label] = True
            letters.append(GeneratorLetter(label=label, word=letter.word, inverted=True, element=inv))
    letters.sort(key=lambda l: l.label)
    return letters


class BallGraph:
    """Induced subgraph of a Cayley graph on the radius-``r_out`` ball.

    Vertices are indexed in breadth-first order from the identity (index 0),
    so ``dist0`` is nondecreasing and the inner ball is the index prefix
    ``range(inner_count)``.  The adjacency is the Cayley table ``nbr``, an
    ``(n_vertices, len(letters))`` int32 array: ``nbr[u, li]`` is the index
    of ``u * letters[li]``, or -1 when that product lies outside the ball.
    Letters are sorted by label, so a row read left to right is in label
    order, which makes every traversal order intrinsic to the group rather
    than to the ball that happens to contain it.  ``index`` maps each
    element to its vertex, in vertex order (None for a graph-only import).
    Immutable after construction.
    """

    def __init__(self, spec, letters, r_in, r_out, index, dist0, nbr, words=None):
        self.spec = spec
        self.letters = letters
        self.r_in = r_in
        self.r_out = r_out
        self.index = index
        self.elements = list(index) if index is not None else None
        self.dist0 = np.asarray(dist0, dtype=np.int16)
        self.nbr = nbr
        self.n_vertices = len(nbr)
        self.inner_count = int(np.searchsorted(self.dist0, r_in, side="right"))
        self.mid_count = int(np.searchsorted(self.dist0, 2 * r_in, side="right"))
        self._words = dict(enumerate(words)) if words is not None else {}
        self._csr = None

    def __repr__(self):
        text = self.spec.text if self.spec is not None else "<imported>"
        return (
            f"BallGraph({text!r}, r_in={self.r_in}, "
            f"vertices={self.n_vertices}, inner={self.inner_count})"
        )

    @property
    def counts_per_radius(self):
        """Number of vertices at each distance 0..r_out from the identity."""
        counts = np.bincount(self.dist0, minlength=self.r_out + 1)
        return [int(c) for c in counts]

    def word(self, i):
        """Normal-form word of vertex ``i``, formatted on first request."""
        w = self._words.get(i)
        if w is None:
            w = self._words[i] = self.spec.format_element(self.elements[i])
        return w

    def index_of_word(self, word):
        """Vertex index of the element a word evaluates to; KeyError if outside."""
        if self.spec is None or self.index is None:
            raise ValueError("ball was imported without a group spec")
        e = self.spec.parse_word(word)
        if e not in self.index:
            raise KeyError(f"element {word!r} lies outside the ball")
        return self.index[e]

    def label(self, letter_index):
        return self.letters[letter_index].label

    def csr(self):
        """The adjacency as a scipy CSR matrix, for scipy's graph searches:
        a view derived from ``nbr``, built on first request and cached."""
        if self._csr is None:
            self._csr = _table_csr(self.nbr)
        return self._csr


def _table_csr(nbr):
    """CSR matrix of a Cayley table, one unit entry per table entry >= 0."""
    present = nbr >= 0
    indptr = np.zeros(len(nbr) + 1, dtype=np.int64)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    data = np.ones(int(indptr[-1]), dtype=np.int8)
    return csr_matrix((data, nbr[present], indptr), shape=(len(nbr), len(nbr)))


def build_ball(spec: GroupSpec, r_in: int, generators=None, budget: int = 500_000) -> BallGraph:
    """Breadth-first enumeration of the Cayley ball of radius ``3 * r_in``.

    ``generators`` optionally replaces the standard generating set by words
    over it (changing the graph while fixing the group).  Raises
    BudgetExceededError when more than ``budget`` vertices appear.
    """
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


class DistanceMatrix:
    """Clipped ball distances: a dense inner-ball matrix plus per-source rows.

    Every row holds ``min(d_ball(u, w), clip)`` with ``clip = 2 * r_in + 1``:
    exact up to ``2 * r_in`` and ``clip`` beyond it (the certificate in the
    module docstring).  ``inner`` is the symmetric integer matrix over
    inner-ball pairs, all at most ``2 * r_in`` apart, so it holds the exact
    word-metric distances of the full group.  ``row(u)`` gives the clipped
    distances from any vertex to the whole ball; rows are cached, and
    ``ensure_mid_rows`` bulk-computes them for every vertex of the geodesic
    hull (see ``hull``) ahead of an exhaustive scan.

    Logically read-only, but the hull, the hull rows and the lazy row,
    interval and DAG caches are filled on first use without locks.  Every
    probe on an inner-pair geodesic lies in the hull, so after
    ``ensure_mid_rows`` reading those rows is read-only; the other rows (the
    mesh's adversarial sides) and the interval and DAG caches still fill on
    demand, so concurrent readers need a lock of their own.
    """

    def __init__(self, ball: BallGraph):
        self.ball = ball
        self.clip = 2 * ball.r_in + 1
        self._rows: dict[int, np.ndarray] = {}
        self._hull: np.ndarray | None = None
        self._hull_block: np.ndarray | None = None
        self._hull_pos: dict[int, int] = {}  # non-inner hull vertex -> block row
        self._interval_cache: dict[tuple[int, int], tuple[int, ...]] = {}
        # filled lazily: geodesic DAGs by geodesics, the polygon scan and
        # mesh's adversarial sides by invariants
        self._dag_cache: dict = {}
        self._adversarial_cache: dict[tuple[int, int], tuple[int, ...]] = {}
        self._pscan = None
        inner_rows = self._clipped_rows(list(range(ball.inner_count)))
        self.inner = inner_rows[:, : ball.inner_count].copy()
        self._inner_rows = inner_rows

    def _clipped_rows(self, sources):
        """int16 rows ``min(d_ball(s, w), clip)``, one per source, by an
        unweighted Dijkstra search that stops at distance ``clip``; each
        search covers as many sources as fit its float64 output in
        ``_DIJKSTRA_BYTES``."""
        graph = self.ball.csr()
        n = self.ball.n_vertices
        out = np.empty((len(sources), n), dtype=np.int16)
        chunk = max(1, _DIJKSTRA_BYTES // (8 * n))
        for start in range(0, len(sources), chunk):
            batch = sources[start : start + chunk]
            block = dijkstra(graph, unweighted=True, indices=batch, limit=self.clip)
            np.minimum(block, self.clip, out=block)  # unreached (inf) reads clip
            out[start : start + len(batch)] = block
        return out

    def hull(self) -> np.ndarray:
        """The geodesic hull: ascending indices of the vertices on some
        geodesic between two inner vertices, computed on first request.

        Such a geodesic has length ``d(a, b) <= 2 * r_in < clip`` and stays
        within ``2 * r_in`` of the identity, so the test
        ``d(a, w) + d(w, b) == d(a, b)`` on the inner rows is exact for
        every ``w < mid_count`` and false beyond.  Every inner vertex ``w``
        lies on a geodesic from the identity to ``w``, so the hull starts
        with ``range(inner_count)`` and only the columns from
        ``inner_count`` to ``mid_count`` are tested.
        """
        if self._hull is None:
            ni, mid = self.ball.inner_count, self.ball.mid_count
            rows = self._inner_rows[:, ni:mid]
            on = np.zeros(mid - ni, dtype=bool)
            for a in range(ni):  # pairs (a, b) with b >= a
                on |= (rows[a:] + rows[a] == self.inner[a:, a, None]).any(axis=0)
            self._hull = np.concatenate([np.arange(ni), ni + np.flatnonzero(on)])
        return self._hull

    def ensure_mid_rows(self):
        """The ``len(hull()) x n_vertices`` int16 block of hull rows, in hull
        order, computed on first call.

        The name predates the hull (the block once held every vertex within
        ``2 * r_in``) and stays because the benchmark's layer probe in
        ``perfbench/tracing.py`` binds ``DistanceMatrix.ensure_mid_rows`` by
        name; its ``ball.mid_rows_s`` and ``ball.mid_block_bytes`` now
        measure this block.  The inner rows become a view of its first
        ``inner_count`` rows instead of a second copy.
        """
        if self._hull_block is None:
            hull = self.hull()
            ni = self.ball.inner_count
            block = np.empty((len(hull), self.ball.n_vertices), dtype=np.int16)
            block[:ni] = self._inner_rows
            self._inner_rows = block[:ni]
            block[ni:] = self._clipped_rows(hull[ni:].tolist())
            self._hull_block = block
            self._hull_pos = {int(w): k for k, w in enumerate(hull[ni:], ni)}
        return self._hull_block

    def row(self, u) -> np.ndarray:
        """Clipped distances from ``u`` to every ball vertex: exact up to
        ``2 * r_in``, ``clip`` beyond it."""
        u = int(u)
        if u < self.ball.inner_count:
            return self._inner_rows[u]
        k = self._hull_pos.get(u)
        if k is not None:
            return self._hull_block[k]
        cached = self._rows.get(u)
        if cached is None:
            cached = self._clipped_rows([u])[0]
            self._rows[u] = cached
        return cached

    def d(self, u, v) -> int:
        """Clipped distance between two ball vertices: exact up to
        ``2 * r_in``, ``clip`` beyond it."""
        return int(self.row(u)[int(v)])

    def d_to_set(self, u, targets) -> int:
        targets = np.asarray(targets, dtype=np.int64)
        if targets.size == 0:
            raise ValueError("distance to an empty set")
        return int(self.row(u)[targets].min())

    def one_sided_hausdorff(self, Y, Z) -> int:
        """sup over Y of the clipped distance to Z (the directed half of Hausdorff)."""
        Y = list(Y)
        Z = np.asarray(sorted(set(int(z) for z in Z)), dtype=np.int64)
        if not Y or Z.size == 0:
            raise ValueError("Hausdorff distance of an empty set")
        return max(int(self.row(y)[Z].min()) for y in Y)

    def hausdorff(self, Y, Z) -> int:
        return max(self.one_sided_hausdorff(Y, Z), self.one_sided_hausdorff(Z, Y))


def all_pairs_distances(ball: BallGraph) -> DistanceMatrix:
    """Clipped distance rows of every inner vertex over the full ball."""
    return DistanceMatrix(ball)


# ---------------------------------------------------------------------------
# line-based export / import

def write_ball(ball: BallGraph) -> str:
    """Serialize a ball to the line-based text format (bit-exact round trip)."""
    lines = [f"vertices {ball.n_vertices} radius_in {ball.r_in} radius_out {ball.r_out}"]
    for i in range(ball.n_vertices):
        lines.append(f"{i} {ball.word(i)}")
    us, lis = np.nonzero(ball.nbr >= 0)
    vs = ball.nbr[us, lis]
    order = np.lexsort((vs, us))  # stable: ties on (u, v) stay in label order
    for u, v, li in zip(us[order].tolist(), vs[order].tolist(), lis[order].tolist()):
        lines.append(f"{u} {v} {ball.label(li)}")
    return "\n".join(lines) + "\n"


def read_ball(text: str, spec: GroupSpec | None = None) -> BallGraph:
    """Rebuild a ball from its text export.

    With ``spec`` the vertex words are re-evaluated to group elements and the
    ball supports full element lookups; without it the ball is graph-only
    (distances and invariants still work, subgroup enumeration does not).
    Letters are the edge labels in label order, as ``build_ball`` orders
    them.  Raises ValueError on a malformed header or vertex line, an edge
    endpoint outside the ball, a repeated edge line, two edges with one label
    out of one vertex, an edge without its reverse, a disconnected graph, or
    (with ``spec``) two vertex words naming one element.
    """
    lines = text.splitlines() or [""]  # empty text fails the header check
    header = lines[0].split()
    if len(header) != 6 or header[0] != "vertices" or header[2] != "radius_in" or header[4] != "radius_out":
        raise ValueError(f"bad ball header: {lines[0]!r}")
    n, r_in, r_out = int(header[1]), int(header[3]), int(header[5])

    words = []
    for line in lines[1 : 1 + n]:
        idx, word = line.split(" ", 1)
        if int(idx) != len(words):
            raise ValueError(f"vertex lines out of order near {line!r}")
        words.append(word)

    edges = []
    for line in lines[1 + n :]:
        if not line.strip():
            continue
        u, v, label = line.split(" ", 2)
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range in {line!r}")
        edges.append((u, v, label))
    labels = sorted({label for _, _, label in edges})
    column = {label: li for li, label in enumerate(labels)}
    nbr = np.full((n, len(labels)), -1, dtype=np.int32)
    for u, v, label in edges:
        li = column[label]
        if nbr[u, li] == v:
            raise ValueError(f"repeated edge {u} {v} {label}")
        if nbr[u, li] >= 0:
            raise ValueError(f"vertex {u} has two edges labelled {label!r}")
        nbr[u, li] = v
    arcs = {(u, v) for u, v, _ in edges}
    one_way = sorted(arc for arc in arcs if arc[::-1] not in arcs)
    if one_way:
        u, v = one_way[0]
        raise ValueError(f"edge {u} {v} has no reverse edge {v} {u}")

    graph = _table_csr(nbr)
    dist0 = dijkstra(graph, unweighted=True, indices=0)
    if np.isinf(dist0).any():
        raise ValueError("imported ball is not connected")

    letters = [
        GeneratorLetter(label=label, word=label, inverted=False,
                        element=spec.parse_word(label) if spec is not None else None)
        for label in labels
    ]
    index = None
    if spec is not None:
        index = {spec.parse_word(w): i for i, w in enumerate(words)}
        if len(index) < n:
            raise ValueError("two vertex words name the same element")
    ball = BallGraph(spec, letters, r_in, r_out, index, dist0, nbr, words=words)
    ball._csr = graph
    return ball
