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
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .groups import GeneratorLetter, GroupSpec, WordError


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
    ``range(inner_count)``.  Adjacency lists are sorted by edge label, which
    makes every traversal order intrinsic to the group rather than to the
    ball that happens to contain it.  Immutable after construction.
    """

    def __init__(self, spec, letters, r_in, r_out, elements, dist0, adj, words=None):
        self.spec = spec
        self.letters = letters
        self.r_in = r_in
        self.r_out = r_out
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)} if elements is not None else None
        self.dist0 = np.asarray(dist0, dtype=np.int16)
        self.adj = adj  # adj[u] = [(v, letter_index), ...] sorted by label
        self.n_vertices = len(adj)
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
        if self._csr is None:
            indptr = np.zeros(self.n_vertices + 1, dtype=np.int64)
            for u, nbrs in enumerate(self.adj):
                indptr[u + 1] = indptr[u] + len(nbrs)
            indices = np.empty(indptr[-1], dtype=np.int64)
            k = 0
            for nbrs in self.adj:
                for v, _ in nbrs:
                    indices[k] = v
                    k += 1
            data = np.ones(len(indices), dtype=np.int8)
            self._csr = csr_matrix((data, indices, indptr), shape=(self.n_vertices, self.n_vertices))
        return self._csr

    def degree(self, u):
        return len(self.adj[u])


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
    edges = []  # (u, v, letter_index)
    queue = deque([0])
    while queue:
        u = queue.popleft()
        du = dist0[u]
        eu = elements[u]
        for li, letter in enumerate(letters):
            w = spec.multiply(eu, letter.element)
            v = index.get(w)
            if v is None:
                if du == r_out:
                    continue
                v = len(elements)
                if v >= budget:
                    raise BudgetExceededError(budget, v, du)
                index[w] = v
                elements.append(w)
                dist0.append(du + 1)
                queue.append(v)
            edges.append((u, v, li))

    adj = [[] for _ in range(len(elements))]
    for u, v, li in edges:
        adj[u].append((v, li))
    for u in range(len(adj)):
        adj[u].sort(key=lambda pair: letters[pair[1]].label)
    return BallGraph(spec, letters, r_in, r_out, elements, dist0, adj)


class DistanceMatrix:
    """Clipped ball distances: a dense inner-ball matrix plus per-source rows.

    Every row holds ``min(d_ball(u, w), clip)`` with ``clip = 2 * r_in + 1``:
    exact up to ``2 * r_in`` and ``clip`` beyond it (the certificate in the
    module docstring).  ``inner`` is the symmetric integer matrix over
    inner-ball pairs, all at most ``2 * r_in`` apart, so it holds the exact
    word-metric distances of the full group.  ``row(u)`` gives the clipped
    distances from any vertex to the whole ball; rows are cached, and
    ``ensure_mid_rows`` bulk-computes them for every vertex within
    ``2 * r_in`` ahead of an exhaustive scan.

    Logically read-only, but the row caches are filled lazily without locks;
    for concurrent readers call ``ensure_mid_rows`` first so that shared
    access is purely read-only.
    """

    def __init__(self, ball: BallGraph):
        self.ball = ball
        self.clip = 2 * ball.r_in + 1
        self._rows: dict[int, np.ndarray] = {}
        self._mid_block: np.ndarray | None = None
        self._interval_cache: dict[tuple[int, int], tuple[int, ...]] = {}
        # filled lazily: geodesic DAGs by geodesics, the polygon scan and
        # mesh's adversarial sides by invariants
        self._dag_cache: dict = {}
        self._adversarial_cache: dict[tuple[int, int], tuple[int, ...]] = {}
        self._pscan = None
        inner_rows = self._clipped_rows(list(range(ball.inner_count)))
        self.inner = inner_rows[:, : ball.inner_count].copy()
        self._inner_rows = inner_rows

    def _clipped_rows(self, sources, chunk=128):
        """int16 rows ``min(d_ball(s, w), clip)``, one per source, by an
        unweighted Dijkstra search that stops at distance ``clip``."""
        graph = self.ball.csr()
        out = np.empty((len(sources), self.ball.n_vertices), dtype=np.int16)
        for start in range(0, len(sources), chunk):
            batch = sources[start : start + chunk]
            block = dijkstra(graph, unweighted=True, indices=batch, limit=self.clip)
            np.minimum(block, self.clip, out=block)  # unreached (inf) reads clip
            out[start : start + len(batch)] = block
        return out

    def ensure_mid_rows(self):
        if self._mid_block is None:
            mid = self.ball.mid_count
            block = np.empty((mid, self.ball.n_vertices), dtype=np.int16)
            ni = self.ball.inner_count
            block[:ni] = self._inner_rows
            block[ni:] = self._clipped_rows(list(range(ni, mid)))
            self._mid_block = block
        return self._mid_block

    def row(self, u) -> np.ndarray:
        """Clipped distances from ``u`` to every ball vertex: exact up to
        ``2 * r_in``, ``clip`` beyond it."""
        u = int(u)
        if u < self.ball.inner_count:
            return self._inner_rows[u]
        if self._mid_block is not None and u < self.ball.mid_count:
            return self._mid_block[u]
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
    edge_lines = []
    for u in range(ball.n_vertices):
        for v, li in ball.adj[u]:
            edge_lines.append((u, v, ball.label(li)))
    edge_lines.sort()
    for u, v, label in edge_lines:
        lines.append(f"{u} {v} {label}")
    return "\n".join(lines) + "\n"


def read_ball(text: str, spec: GroupSpec | None = None) -> BallGraph:
    """Rebuild a ball from its text export.

    With ``spec`` the vertex words are re-evaluated to group elements and the
    ball supports full element lookups; without it the ball is graph-only
    (distances and invariants still work, subgroup enumeration does not).
    Raises ValueError on a malformed header or vertex line, an edge endpoint
    outside the ball, a repeated edge line, an edge without its reverse, or
    a disconnected graph.
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

    label_to_index = {}
    letters = []
    adj = [[] for _ in range(n)]
    seen = set()
    for line in lines[1 + n :]:
        if not line.strip():
            continue
        u, v, label = line.split(" ", 2)
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range in {line!r}")
        if (u, v, label) in seen:
            raise ValueError(f"repeated edge {line!r}")
        seen.add((u, v, label))
        li = label_to_index.get(label)
        if li is None:
            li = len(letters)
            label_to_index[label] = li
            element = spec.parse_word(label) if spec is not None else None
            letters.append(GeneratorLetter(label=label, word=label, inverted=False, element=element))
        adj[u].append((v, li))
    arcs = {(u, v) for u, v, _ in seen}
    one_way = sorted(arc for arc in arcs if arc[::-1] not in arcs)
    if one_way:
        u, v = one_way[0]
        raise ValueError(f"edge {u} {v} has no reverse edge {v} {u}")
    for u in range(n):
        adj[u].sort(key=lambda pair: letters[pair[1]].label)

    dist0 = np.full(n, -1, dtype=np.int64)
    dist0[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v, _ in adj[u]:
            if dist0[v] < 0:
                dist0[v] = dist0[u] + 1
                queue.append(v)
    if (dist0 < 0).any():
        raise ValueError("imported ball is not connected")

    elements = None
    if spec is not None:
        elements = [spec.parse_word(w) for w in words]
    return BallGraph(spec, letters, r_in, r_out, elements, dist0, adj, words=words)
