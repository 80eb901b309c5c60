"""Cayley-graph balls with exact word-metric distances.

A ball is enumerated one sphere at a time over array codes of the elements
(``groups.ElementCodes``): every element has a fixed-width integer row, equal
exactly when the elements are, and a whole sphere's block of rows is
multiplied by each letter at once.  A product ``u * l`` of a vertex at
distance ``d`` lies at distance ``d - 1``, ``d`` or ``d + 1``, so matching the
products exactly against spheres ``d - 1`` and ``d`` and against each other
finds sphere ``d + 1``; its vertices are numbered by first occurrence in
(vertex, letter) order, the breadth-first order of a scalar search.  The
ball keeps the Cayley table, not the elements: ``BallGraph.elements`` and
``index`` are derived from the breadth-first tree on first access.

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
``DistanceMatrix.hull`` reads it exactly from the inner rows, and every
row lives in one block, the hull's first, so the exhaustive scans read them
as one view and a row off the hull is computed only on request.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import depth_first_order, dijkstra

from .groups import ElementCodes, GeneratorLetter, GroupSpec, WordError

# Byte budget of the float64 block one Dijkstra search returns.
_DIJKSTRA_BYTES = 16 << 20
# Distances are int16, and the Gromov kernels add two inner distances of at
# most 2 * r_in each: 4 * r_in must stay at most 32767.
_MAX_R_IN = 8191
# Subtrees per reduceat in ``connected_without``: bounds its index array to
# 4 MiB.  Each call also reduces from its last subtree's end to the end of the
# ball, so fewer, larger calls waste less.
_SUBTREE_RANGES = 1 << 18


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
    than to the ball that happens to contain it.

    ``elements`` (each vertex's group element, in vertex order) and
    ``index`` (element to vertex) are views derived on first access, as
    ``csr()`` is: vertex ``v``'s parent in the breadth-first tree is the
    first ``(u, letter)`` in row-major order of ``nbr`` with
    ``nbr[u, letter] == v``, and its element is the parent's times that
    letter, one ``spec.multiply`` per vertex.  ``word(i)`` walks the parent
    chain of ``i`` alone until the full list exists.  Both are None for a
    graph-only import.  The table, ``dist0`` and the counts are fixed at
    construction; the derived views fill in without locks.
    """

    def __init__(self, spec, letters, r_in, r_out, index, dist0, nbr, words=None):
        self.spec = spec
        self.letters = letters
        self.r_in = r_in
        self.r_out = r_out
        self._index = index
        self._elements = list(index) if index is not None else None
        self.dist0 = np.asarray(dist0, dtype=np.int16)
        self.nbr = nbr
        self.n_vertices = len(nbr)
        self.inner_count = int(np.searchsorted(self.dist0, r_in, side="right"))
        self.mid_count = int(np.searchsorted(self.dist0, 2 * r_in, side="right"))
        self._words = dict(enumerate(words)) if words is not None else {}
        self._csr = None
        self._arcs = None

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

    def _parent_arcs(self):
        """``arc[v] = u * len(letters) + li`` for the first ``(u, li)`` in
        row-major order with ``nbr[u, li] == v`` (``arc[0]`` unused).  A
        letter's column maps vertices one to one, so each column is one
        scatter and the minimum over the columns is the first arc."""
        if self._arcs is None:
            n_letters = self.nbr.shape[1]
            arc = np.full(self.n_vertices, np.iinfo(np.int64).max)
            for li in range(n_letters):
                u = np.flatnonzero(self.nbr[:, li] >= 0)
                v = self.nbr[u, li]
                arc[v] = np.minimum(arc[v], u * n_letters + li)
            self._arcs = arc
        return self._arcs

    @property
    def elements(self):
        """Group element of each vertex, in vertex order (None without a spec)."""
        if self._elements is None and self.spec is not None:
            arcs = self._parent_arcs()[1:].tolist()
            n_letters = len(self.letters)
            letter_elements = [l.element for l in self.letters]
            elements = [self.spec.identity()]
            for a in arcs:
                u, li = divmod(a, n_letters)
                elements.append(self.spec.multiply(elements[u], letter_elements[li]))
            self._elements = elements
        return self._elements

    @property
    def index(self):
        """Vertex of each element (None without a spec)."""
        if self._index is None and self.elements is not None:
            self._index = {e: i for i, e in enumerate(self.elements)}
        return self._index

    def _element(self, i):
        """Element of vertex ``i``: from the list once it exists, otherwise
        the product of the letters on its parent chain."""
        if self._elements is not None:
            return self._elements[i]
        arcs = self._parent_arcs()
        chain = []
        while i:
            i, li = divmod(int(arcs[i]), len(self.letters))
            chain.append(self.letters[li].element)
        e = self.spec.identity()
        for letter in reversed(chain):
            e = self.spec.multiply(e, letter)
        return e

    def word(self, i):
        """Normal-form word of vertex ``i``, formatted on first request."""
        w = self._words.get(i)
        if w is None:
            w = self._words[i] = self.spec.format_element(self._element(i))
        return w

    def words(self):
        """Every vertex's word, in vertex order.  Derives the element list
        first, one multiply per vertex rather than a chain walk per word."""
        if len(self._words) < self.n_vertices:
            elements = self.elements
            for i in range(self.n_vertices):
                if i not in self._words:
                    self._words[i] = self.spec.format_element(elements[i])
        return [self._words[i] for i in range(self.n_vertices)]

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


def connected_without(ball, removed, xs, ys):
    """Whether ``xs[i]`` and ``ys[i]`` stay connected in the ball minus
    vertex ``removed[i]``, as a bool array; false when either is removed.

    One depth-first search answers every query (Tarjan's cut vertices).  Its
    non-tree edges each join an ancestor to a descendant, so removing p cuts
    off the subtree of a child c exactly when no table row in that subtree
    reaches above p: ``low[c] >= pre[p]``, with ``pre`` the preorder number
    and ``low[c]`` the least ``pre`` on the rows of c's subtree (always true
    at the root).  The ball is connected and every edge has its reverse, so
    every other vertex but p stays in one component: x and y are connected
    when both lie in the same cut-off subtree, or both in the rest.

    Past the search, vertices are named by preorder position, and a subtree
    is a range of positions.  Its end is the position plus its size, which
    a second search of the tree (children reversed: a postorder) and the
    depths (pointer doubling) give, and its ``low`` is one
    ``minimum.reduceat`` over the ranges.  Nothing loops per vertex or per
    tree level, however deep the search goes.
    """
    n = ball.n_vertices
    order, parent = depth_first_order(ball.csr(), 0, directed=True, return_predecessors=True)
    pre = np.empty(n, dtype=np.int32)
    pre[order] = np.arange(n, dtype=np.int32)
    removed, xs, ys = pre[removed], pre[xs], pre[ys]
    parent[0] = 0  # the root hangs from itself
    up = pre[parent[order]]  # the parent's position
    # each position's least position on its own table row; -1 entries read n
    ext = np.append(pre, n)
    row_low = pre.copy()
    for col in ball.nbr.T:
        np.minimum(row_low, ext[col], out=row_low)
    row_low = np.append(row_low[order], n)
    del order, parent, pre, ext
    kids = np.argsort(up[1:], kind="stable").astype(np.int32) + 1  # grouped by parent
    # The tree again under labels n - 1 - position: a search visits
    # neighbours in ascending label, so children in descending position,
    # and its visit order read backwards is the first search's postorder.
    rows = (n - 1 - up[kids])[::-1]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    tree = csr_matrix((np.ones(n - 1, dtype=np.int8), (n - 1 - kids)[::-1], indptr), shape=(n, n))
    del rows, indptr
    visit = depth_first_order(tree, n - 1, directed=True, return_predecessors=False)
    del tree
    # A position is preceded in preorder by its ancestors and the subtrees
    # finished before it, in postorder by those and its descendants: its
    # subtree ends at postorder + depth + 1.
    end = np.empty(n, dtype=np.int32)
    end[n - 1 - visit] = np.arange(n, 0, -1, dtype=np.int32)
    del visit
    depth = np.ones(n, dtype=np.int32)
    depth[0] = 0
    anc = up.copy()
    while anc.any():  # after k rounds, anc is 2^k levels up or the root
        depth += depth[anc]
        anc = anc[anc]
    end += depth
    del depth, anc
    # the least row entry of each subtree: its range is every second slot
    cut = np.empty(n, dtype=bool)
    for lo in range(0, n, _SUBTREE_RANGES):
        hi = min(lo + _SUBTREE_RANGES, n)
        ranges = np.empty(2 * (hi - lo), dtype=np.intp)
        ranges[0::2] = np.arange(lo, hi)
        ranges[1::2] = end[lo:hi]
        cut[lo:hi] = np.minimum.reduceat(row_low, ranges)[0::2] >= up[lo:hi]
    del row_low
    key = up[kids].astype(np.int64) * n + kids  # ascending

    def side(v):
        # the child of the removed vertex whose subtree holds v, if removing
        # it cuts that subtree off, and -1 for the rest of the ball
        i = np.searchsorted(key, removed.astype(np.int64) * n + v, side="right") - 1
        c = kids[np.maximum(i, 0)]
        held = (i >= 0) & (up[c] == removed) & (v < end[c]) & cut[c]
        return np.where(held, c, -1)

    return (xs != removed) & (ys != removed) & (side(xs) == side(ys))


def build_ball(spec: GroupSpec, r_in: int, generators=None, budget: int = 500_000) -> BallGraph:
    """Breadth-first enumeration of the Cayley ball of radius ``3 * r_in``,
    one sphere at a time over array codes of the elements.

    ``generators`` optionally replaces the standard generating set by words
    over it (changing the graph while fixing the group).  Each sphere's code
    block is multiplied by every letter in label order, which lists the
    products in (vertex, letter) row-major order.  A product ``u * l`` of a
    vertex at distance ``d`` lies at distance ``d - 1``, ``d`` or ``d + 1``,
    so it is matched exactly (full code rows) against those two spheres and
    the other products; the products found in neither are the next sphere,
    numbered by first occurrence.  That is the order a scalar breadth-first
    search gives.  Only three spheres of codes are alive at a time and no
    element is kept: ``BallGraph.elements`` is derived on demand.  Raises
    BudgetExceededError when more than ``budget`` vertices appear.
    """
    if r_in < 1:
        raise ValueError("r_in must be at least 1")
    if r_in > _MAX_R_IN:
        raise ValueError(f"r_in must be at most {_MAX_R_IN}, so that 4 * r_in fits int16")
    letters = resolve_letters(spec, generators)
    r_out = 3 * r_in
    elements = [l.element for l in letters]
    codes = ElementCodes(spec.root, elements, r_out)
    prev = np.zeros((0, 1), dtype=codes.dtype)  # spheres d - 1 and d, trimmed
    cur = _trimmed(codes.encode(spec.identity())[None, :])
    start = 0  # vertex index of prev's first row; cur follows prev
    counts = [1]
    table = []
    for d in range(r_out + 1):
        if len(cur) == 0:
            break
        rows = _sphere_rows(codes, elements, prev, cur)
        known = len(prev) + len(cur)
        # the known rows are classes 0 .. known - 1 and the next sphere the
        # classes after them, so class c is vertex start + c
        first, cls = _row_classes(rows.view(np.uint64))
        n, fresh = start + known, len(first) - known
        vertex = start + cls[known:]
        if d == r_out:  # products outside the ball
            vertex[vertex >= n] = -1
            fresh = 0
        elif n + fresh > budget:
            raise BudgetExceededError(budget, max(n, budget), d)
        table.append(vertex.astype(np.int32))
        counts.append(fresh)
        prev, cur, start = cur, rows[first[known : known + fresh]], start + len(prev)
    nbr = np.concatenate(table).reshape(-1, len(letters))
    dist0 = np.repeat(np.arange(len(counts)), counts)
    return BallGraph(spec, letters, r_in, r_out, None, dist0, nbr)


def _sphere_rows(codes, elements, prev, cur):
    """Sphere ``d - 1``, sphere ``d`` and the product of each vertex of
    sphere ``d`` with each letter, in (vertex, letter) row-major order: code
    rows zero-padded to a common width of whole uint64 words."""
    if cur.shape[1] >= codes.width:
        full = cur[:, : codes.width]
    else:
        full = np.zeros((len(cur), codes.width), dtype=codes.dtype)
        full[:, : cur.shape[1]] = cur
    products = codes.multiply(full, elements).reshape(-1, codes.width)
    per_word = 8 // codes.dtype.itemsize
    if codes.width > per_word:  # a code of one word has no words to trim
        products = _trimmed(products)
    width = -(-max(prev.shape[1], cur.shape[1], products.shape[1]) // per_word) * per_word
    rows = np.zeros((len(prev) + len(cur) + len(products), width), dtype=codes.dtype)
    at = 0
    for block in (prev, cur, products):
        rows[at : at + len(block), : block.shape[1]] = block
        at += len(block)
    return rows


def _trimmed(block):
    """``block`` without its trailing all-zero columns (at least one column)."""
    used = np.flatnonzero(block.any(axis=0))
    return block[:, : used[-1] + 1 if used.size else 1]


_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _row_hashes(words, seed):
    """One 64-bit hash per row of a uint64 array: the first word xor the
    seed, then a bijective mix (the splitmix64 finalizer) before each
    further word is xored in."""
    h = words[:, 0] ^ np.uint64(seed) if seed or words.shape[1] > 1 else words[:, 0]
    for j in range(1, words.shape[1]):
        h ^= h >> np.uint64(30)
        h *= _MIX[0]
        h ^= h >> np.uint64(27)
        h *= _MIX[1]
        h ^= h >> np.uint64(31)
        h ^= words[:, j]
    return h


def _row_classes(words):
    """Exact classes of equal rows of a 2-D uint64 array, numbered by first
    occurrence: ``first[c]`` is the first row of class ``c`` (ascending) and
    ``cls[i]`` the class of row ``i``.

    Rows are grouped by ``_row_hashes`` and every row is then compared in
    full with its class's first row.  Should two different rows share a
    hash, that comparison fails and the rows are grouped again under the
    next seed, so the classes never depend on the hash.  One sort of the
    hashes is cheaper than a ``np.lexsort`` over the words (a stable pass
    per word) or ``np.unique`` over void rows: ``build_ball`` on
    ``Z2 * Z3`` R9 takes about 165 ms this way against 195 and 235 ms.
    """
    seed = 0
    while True:
        h = _row_hashes(words, seed)
        order = np.argsort(h)
        sorted_h = h[order]
        head = np.empty(len(h), dtype=bool)
        head[:1] = True
        np.not_equal(sorted_h[1:], sorted_h[:-1], out=head[1:])
        first = np.minimum.reduceat(order, np.flatnonzero(head))  # per hash
        renumber = np.argsort(first)
        rank = np.empty_like(renumber)
        rank[renumber] = np.arange(len(renumber))
        first = first[renumber]
        cls = np.empty(len(h), dtype=np.intp)
        cls[order] = rank[np.cumsum(head) - 1]
        if words.shape[1] == 1:  # a one-word row is its own hash up to the xor
            return first, cls
        dup = np.flatnonzero(first[cls] != np.arange(len(cls)))
        rep = first[cls[dup]]
        if all((words[dup, j] == words[rep, j]).all() for j in range(words.shape[1])):
            return first, cls
        seed += 1


class DistanceMatrix:
    """Clipped ball distances, every row in one int16 ``block``.

    A row holds ``min(d_ball(u, w), clip)`` with ``clip = 2 * r_in + 1``:
    exact up to ``2 * r_in`` and ``clip`` beyond it (the certificate in the
    module docstring).  Every row comes from ``_clipped_rows``, and a slot
    per vertex gives its row in the block, or -1.  The block fills in one
    order: the inner rows at construction; on the first request for any
    other row, the rest of the hull in hull order (``ensure_mid_rows`` is a
    view of them); then each request's missing rows.  Read through ``rows``
    or ``row``, since a request may replace ``block``.  ``inner`` is a
    contiguous copy of the inner columns of the inner rows.

    Logically read-only, but the hull and the block fill on first use
    without locks, so concurrent readers need a lock of their own.
    Geodesic DAGs are not cached: each caller builds the flattened store it
    needs (``geodesics._interval_dags``) for a whole batch of pairs at once.
    """

    def __init__(self, ball: BallGraph):
        self.ball = ball
        self.clip = 2 * ball.r_in + 1
        self._hull: np.ndarray | None = None
        self._pscan = None  # the polygon scan, filled lazily by invariants
        ni = ball.inner_count
        self.block = self._clipped_rows(np.arange(ni))
        self.inner = self.block[:, :ni].copy()
        self._slot = np.full(ball.n_vertices, -1, dtype=np.int32)
        self._slot[:ni] = np.arange(ni)

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

    def _slots(self, vertices):
        """Block rows of ``vertices``, after appending the rows they lack
        (and the rest of the hull before them) in one ``_clipped_rows`` call."""
        at = self._slot[vertices]
        if at.min(initial=0) < 0:
            hull = self.hull()
            missing = np.setdiff1d(np.asarray(vertices)[at < 0], hull)
            missing = np.concatenate([hull[len(self.block) :], missing])
            self.block = np.concatenate([self.block, self._clipped_rows(missing)])
            self._slot[missing] = np.arange(len(self.block) - len(missing), len(self.block))
            at = self._slot[vertices]
        return at

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
            rows = self.block[:ni, ni:mid]
            on = np.zeros(mid - ni, dtype=bool)
            for a in range(ni):  # pairs (a, b) with b >= a
                on |= (rows[a:] + rows[a] == self.inner[a:, a, None]).any(axis=0)
            self._hull = np.concatenate([np.arange(ni), ni + np.flatnonzero(on)])
        return self._hull

    def ensure_mid_rows(self):
        """The hull rows in hull order, as a view of the block's first rows.
        The name predates the hull and stays because the layer probe in
        ``perfbench/tracing.py`` binds it by name; its ``ball.mid_rows_s``
        and ``ball.mid_block_bytes`` measure this block."""
        hull = self.hull()
        self._slots(hull)
        return self.block[: len(hull)]

    def rows(self, vertices, cols=None) -> np.ndarray:
        """Clipped rows of a 1-D array of vertices, as a new int16 array,
        or only columns ``cols``: a 1-D ``cols`` is read from every row, a
        2-D one row by row (``d(vertices[i], cols[i, j])``)."""
        at = self._slots(vertices)
        return self.block[at] if cols is None else self.block[at[:, None], cols]

    def row(self, u) -> np.ndarray:
        """Clipped distances from ``u`` to every ball vertex, as a view of
        its block row: exact up to ``2 * r_in``, ``clip`` beyond it."""
        k = self._slot[u]
        if k < 0:  # fill first: the fill replaces the block
            k = self._slots([u])[0]
        return self.block[k]

    def d(self, u, v) -> int:
        """Clipped distance between two ball vertices: exact up to
        ``2 * r_in``, ``clip`` beyond it."""
        return int(self.row(u)[int(v)])


def all_pairs_distances(ball: BallGraph) -> DistanceMatrix:
    """Clipped distance rows of every inner vertex over the full ball."""
    return DistanceMatrix(ball)


# ---------------------------------------------------------------------------
# line-based export / import

def write_ball(ball: BallGraph) -> str:
    """Serialize a ball to the line-based text format (bit-exact round trip)."""
    lines = [f"vertices {ball.n_vertices} radius_in {ball.r_in} radius_out {ball.r_out}"]
    lines += [f"{i} {w}" for i, w in enumerate(ball.words())]
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
    out of one vertex, an edge without its reverse, a disconnected graph,
    vertex lines out of breadth-first order (a vertex closer to vertex 0
    than the one before it), a ``radius_in`` outside ``1.._MAX_R_IN``, a
    vertex farther than ``radius_out`` from vertex 0, or (with ``spec``) two
    vertex words naming one element.
    """
    lines = text.splitlines() or [""]  # empty text fails the header check
    header = lines[0].split()
    if len(header) != 6 or header[0] != "vertices" or header[2] != "radius_in" or header[4] != "radius_out":
        raise ValueError(f"bad ball header: {lines[0]!r}")
    n, r_in, r_out = int(header[1]), int(header[3]), int(header[5])
    if not 1 <= r_in <= _MAX_R_IN:
        raise ValueError(f"radius_in must lie in 1..{_MAX_R_IN}, got {r_in}")

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
    drop = np.flatnonzero(np.diff(dist0) < 0)
    if drop.size:
        v = int(drop[0])
        raise ValueError(f"vertex lines not in breadth-first order: vertex {v + 1} is closer to vertex 0 than vertex {v}")
    if dist0[-1] > r_out:
        raise ValueError(f"vertex {n - 1} is {int(dist0[-1])} from vertex 0, beyond radius_out {r_out}")

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
