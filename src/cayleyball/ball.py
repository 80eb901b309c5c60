"""Cayley-graph balls with exact word-metric distances.

A ball is enumerated one sphere at a time over array codes of the elements
(``groups.ElementCodes``: one int64 row per element, equal exactly when the
elements are; a free group or free product element is one id), a sphere's
block multiplied by each letter at once.  A product ``u *
l`` of a vertex at distance ``d`` lies at distance ``d - 1``, ``d`` or ``d +
1``, so matching the products against spheres ``d - 1`` and ``d`` and each
other finds sphere ``d + 1``, numbered by first occurrence in (vertex,
letter) order: breadth-first order.  The last sphere's products are looked
up, not added, so a free id outside the ball reads -1.  The ball keeps the
Cayley table, not the elements.

It reaches ``r_out = 3 * r_in``; a ball distance ``d(u, v)`` is exact when
``(d(1, u) + d(1, v) + d(u, v)) / 2 <= r_out``.  Distance rows are clipped
at ``clip = 2 * r_in + 1``: exact up to ``2 * r_in``, ``clip`` beyond.  The
invariants need no more.  Their probe points lie on geodesics between inner
vertices (the geodesic hull, within ``2 * r_in`` of the identity), and each
value they report or compare against a threshold is at most a side length
or a probe's distance to an end of its geodesic.  Below ``clip`` a clipped
distance decides every such comparison as the exact one does, and extrema
of clipped values are clipped extrema.

Inner rows span B(2R) and are swept on B(floor(5R/2)) alone: an inner u,
a 2R vertex w and ``d(u, w) <= 2R`` give ``(R + 2R + 2R) / 2`` in the rule
above, and a longer distance reads ``clip`` in both balls.  Whole-ball rows
are swept only for reads past 2R: detour levels from 2, ``masked_path``,
the adversarial mesh, quasi-convexity, and vertices past the inner ball.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .groups import ElementCodes, GeneratorLetter, GroupSpec, InternalCheckError

# Distances are int16, and the Gromov kernels add two inner distances of at
# most 2 * r_in each: 4 * r_in must stay at most 32767.
_MAX_R_IN = 8191
# Subtrees per sphere slice in ``connected_without``: a slice's sizes and
# extremes merge into their parents' in one ``ufunc.at`` each, so its gathered
# temporaries stay within 1 MiB.
_SUBTREE_RANGES = 1 << 18
# Maps kept and letter permutations checked by ``_automorphisms``: there are
# factorially many, each a pass of every orbit filter.  Any set of maps gives
# the same reports (a tuple no map sends lower is evaluated).
_MAX_MAPS = 64
# ``build_ball``'s vertex budget, and the CLI's default
_DEFAULT_BUDGET = 500_000


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


def resolve_letters(spec: GroupSpec, generators=None):
    """Resolve a generating set (words over the standard generators, or
    those when omitted) and close it under inversion.  Letters are
    deduplicated by element (labels are canonical words) and identity letters
    are rejected.
    """
    if generators is None:
        base = [(name, spec._by_name[name]) for name, _ in spec.generators]
    else:
        base = [(w, spec.parse_word(w)) for w in generators]
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
    so ``dist0`` is nondecreasing and the inner ball is the prefix
    ``range(inner_count)``.  The adjacency, the only one kept, is the Cayley
    table ``nbr``, an ``(n_vertices, len(letters))`` int32 array: ``nbr[u,
    li]`` is the index of ``u * letters[li]``, or -1 outside the ball.
    Letters are sorted by label, so label-order traversals are intrinsic to
    the group, not the ball.

    ``elements`` (in vertex order) and ``index`` (element to vertex) are
    derived on first access, as ``automorphisms()`` is: vertex
    ``v``'s breadth-first parent is the first ``(u, letter)`` in row-major
    order with ``nbr[u, letter] == v``, and its element the parent's times
    that letter.  ``word(i)`` walks the parent chain of ``i`` alone until the
    list exists.  The table, ``dist0`` and the counts are fixed; the derived
    views fill in without locks.  Balls come from ``build_ball`` (``read_ball``
    rebuilds one); ``index``, when given, is the element-to-vertex map.
    """

    def __init__(self, spec, letters, r_in, r_out, index, dist0, nbr):
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
        self._words = {}
        self._arcs = None
        self._autos = None

    def __repr__(self):
        return (
            f"BallGraph({self.spec.text!r}, r_in={self.r_in}, "
            f"vertices={self.n_vertices}, inner={self.inner_count})"
        )

    @property
    def counts_per_radius(self):
        """Number of vertices at each distance 0..r_out from the identity."""
        counts = np.bincount(self.dist0, minlength=self.r_out + 1)
        return [int(c) for c in counts]

    def _parent_arcs(self):
        """``arc[v] = u * len(letters) + li`` for the first ``(u, li)`` in
        row-major order with ``nbr[u, li] == v`` (``arc[0]`` unused): a column
        maps vertices one to one, so one scatter per column and their minimum."""
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
        """Group element of each vertex, in vertex order."""
        if self._elements is None:
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
        """Vertex of each element."""
        if self._index is None:
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
        """Every vertex's word, in vertex order, from the element list (one
        multiply per vertex, not a chain walk per word)."""
        if len(self._words) < self.n_vertices:
            elements = self.elements
            for i in range(self.n_vertices):
                if i not in self._words:
                    self._words[i] = self.spec.format_element(elements[i])
        return [self._words[i] for i in range(self.n_vertices)]

    def index_of_word(self, word):
        """Vertex index of the element a word evaluates to; KeyError if outside."""
        e = self.spec.parse_word(word)
        if e not in self.index:
            raise KeyError(f"element {word!r} lies outside the ball")
        return self.index[e]

    def label(self, letter_index):
        return self.letters[letter_index].label

    def automorphisms(self):
        """Label-permuting automorphisms fixing vertex 0, as a ``(k, mid_count)``
        int32 array of maps of the 2R prefix, identity first."""
        if self._autos is None:
            self._autos = _automorphisms(self, self.mid_count)
        return self._autos


def _inverse_letters(nbr):
    """Column of each letter's inverse: ``nbr[nbr[0, c], inv[c]] == 0``."""
    hit = nbr[nbr[0]] == 0
    if (nbr[0] < 0).any() or (hit.sum(axis=1) != 1).any():
        raise InternalCheckError("no inverses")
    return hit.argmax(axis=1)


def _letter_perms(inv):
    """Permutations of the letters that commute with inversion, unturned
    pairs first: a square's symmetries then take two checks."""
    one = [c for c in range(len(inv)) if inv[c] == c]
    two = np.array([c for c in range(len(inv)) if c < inv[c]], dtype=np.int64)
    for flip in itertools.product((False, True), repeat=len(two)):
        for a in itertools.permutations(one):
            for b in itertools.permutations(two):
                pi = np.empty(len(inv), dtype=np.int64)
                img = np.where(flip, inv[list(b)], b).astype(np.int64)
                pi[one], pi[two], pi[inv[two]] = a, img, inv[img]
                yield pi


def _tree_map(nbr, parent, letter, cuts, pi):
    """The map ``phi(u * l) = phi(u) * pi(l)`` along the breadth-first tree,
    or None unless it permutes the vertices and ``nbr[phi(u), pi(l)] ==
    phi(nbr[u, l])`` on every entry (``phi[-1] = -1`` keeps -1 entries)."""
    n = len(nbr)
    phi = np.full(n + 1, -1, dtype=np.int32)
    phi[0] = 0
    for d in range(1, len(cuts) - 1):
        at = slice(cuts[d], cuts[d + 1])
        phi[at] = nbr[phi[parent[at]], pi[letter[at]]]
        if phi[at].min() < 0:
            return None
    hit = np.zeros(n, dtype=bool)
    hit[phi[:n]] = True
    # np.take: the fast gathers here
    if hit.all() and (np.take(nbr, phi[:n], axis=0)[:, pi] == np.take(phi, nbr)).all():
        return phi[:n]
    return None


def _automorphisms(ball, keep):
    """``BallGraph.automorphisms`` on the first ``keep`` vertices: the
    ``_letter_perms`` that ``_tree_map`` keeps.  Maps compose, so a candidate
    in the group found is not checked, and a failed one fails its coset.
    """
    nbr = ball.nbr
    ident = np.arange(keep, dtype=np.int32)
    inv = _inverse_letters(nbr)
    parent, letter = np.divmod(ball._parent_arcs(), len(inv))
    cuts = np.searchsorted(ball.dist0, np.arange(int(ball.dist0[-1]) + 2))
    gens, group, bad, checks = [], {tuple(range(len(inv))): ident}, set(), 0
    for pi in _letter_perms(inv):
        if len(group) >= _MAX_MAPS or checks >= _MAX_MAPS:
            break
        if tuple(pi) in group or tuple(pi) in bad:
            continue
        checks += 1
        phi = _tree_map(nbr, parent, letter, cuts, pi)
        if phi is None:
            bad.update(tuple(pi[list(h)]) for h in group)
            continue
        gens.append((pi, phi[:keep]))
        todo = list(group.items())
        while todo and len(group) < _MAX_MAPS:  # close the group under the maps found
            h, f = todo.pop()
            for g, m in gens:
                if (gh := tuple(g[list(h)])) not in group:
                    group[gh] = m[f]
                    todo.append((gh, group[gh]))
    return np.stack(list(group.values()))


def _orbit_least(ball, tuples):
    """Which rows of a ``(t, k)`` int64 array of sorted tuples over the
    ``2 * r_in`` prefix (k <= 3) are the least of their orbit under
    ``ball.automorphisms()``.  The first entry must be least in its own
    orbit; past that, each map's image is compared as one int64 key,
    ``(lo * n + mid) * n + hi``.  An exhaustive scan evaluates only these
    rows: its value is the same on every member of an orbit, and its
    witness is the smallest tuple attaining the maximum, its orbit's least."""
    maps, n = ball.automorphisms(), ball.mid_count
    out = (maps >= np.arange(n)).all(axis=0)[tuples[:, 0]]
    test = np.flatnonzero(out) if tuples.shape[1] > 1 else []

    def key(t):  # columns: numpy reduces a short last axis slowly
        c = list(np.moveaxis(t, -1, 0))
        lo, hi = functools.reduce(np.minimum, c), functools.reduce(np.maximum, c)
        return (lo * n + sum(c) - lo - hi) * n + hi

    if len(test):
        out[test] = (key(np.take(maps, tuples[test], axis=1).astype(np.int64)) >= key(tuples[test])).all(axis=0)
    return out


def _segments(starts, sizes):
    """The concatenated index ranges ``starts[i]:starts[i] + sizes[i]``."""
    offsets = np.cumsum(sizes) - sizes
    return np.arange(int(np.sum(sizes))) + np.repeat(starts - offsets, sizes)


def _unique(x):
    """The sorted distinct values of array ``x``: ``np.unique(x)``, whose
    plain form imports ``numpy.ma`` on its first call."""
    x = np.sort(x, axis=None)
    keep = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _least_triangles(ball, capped, size):
    """A function yielding, in plan order, batches of about ``size`` inner
    corner triples least in their orbit or with a ``capped`` side."""
    n = len(capped)
    # a least triple's least corner is least in its orbit
    a = np.arange(n) if capped.any() else np.flatnonzero(_orbit_least(ball, np.arange(n)[:, None]))
    pairs = np.column_stack(np.triu_indices(n, 1))
    start = np.searchsorted(pairs[:, 0], a + 1)  # the pairs (b, c) with b > a
    count = len(pairs) - start
    cuts = np.flatnonzero(np.diff(np.cumsum(count) // size)) + 1

    def batches():
        for at in np.split(np.arange(len(a)), cuts):
            tri = np.column_stack([np.repeat(a[at], count[at]), pairs[_segments(start[at], count[at])]])
            if len(tri := tri[capped[tri, tri[:, [1, 2, 0]]].any(axis=1) | _orbit_least(ball, tri)]):
                yield tri

    return batches


def components(n, a, b):
    """Connected components of the graph on ``range(n)`` with edges ``(a[i],
    b[i])``: each vertex's label is the least vertex of its component.

    Min-label hooking with pointer jumping.  Labels point to smaller or equal
    vertices and start as the vertices themselves; a round hooks the larger
    of each edge's two labels, both roots, to the smaller (the least offer
    wins), then jumps every label to its root, and drops the edges whose ends
    now share a label.  Every component tree with an edge to another one
    hooks or is hooked, so the number of trees per component halves each
    round.
    """
    dtype = np.int32 if n < 1 << 31 else np.int64
    label = np.arange(n, dtype=dtype)
    a, b = np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    while len(lo):
        np.minimum.at(label, hi, lo)
        while True:
            up = label.take(label)
            if (up == label).all():
                break
            label = up
        la, lb = label.take(a), label.take(b)
        split = np.flatnonzero(la != lb)
        a, b, la, lb = a.take(split), b.take(split), la.take(split), lb.take(split)
        lo, hi = np.minimum(la, lb), np.maximum(la, lb)
    return label


def connected_without(ball, removed, xs, ys):
    """Whether ``xs[i]`` and ``ys[i]`` stay connected in the ball minus
    vertex ``removed[i]``, as a bool array; false when either is removed.

    Tarjan and Vishkin's biconnected components on the breadth-first tree
    (``BallGraph._parent_arcs``), one node per tree edge, named by its lower
    end.  A non-tree edge between two vertices neither of which is an
    ancestor of the other links their tree edges, and a vertex's edge links
    to its parent's edge (unless the parent is the root) when some table row
    in the vertex's subtree reaches outside the parent's subtree.  Removing
    p leaves x and y connected exactly when the first edges of tree paths
    from p to them lie in one block: p's own edge when x lies outside p's
    subtree, otherwise the edge of p's child toward x.

    The tree is walked a sphere at a time.  ``build_ball`` numbers each
    sphere by first occurrence in (vertex, letter) order, so parents are
    nondecreasing: each sphere is grouped by parent, in the order of the
    parents (checked; InternalCheckError otherwise).  Subtree sizes merge
    bottom-up, preorder positions follow top-down (so a subtree is a range
    of positions), and each subtree's least and greatest position on its
    table rows merge bottom-up.  Each sphere is then in preorder, so a
    query's child toward x is the vertex one sphere below p with the last
    position at or before x's: one ``searchsorted`` over the spheres in turn.
    """
    n, nbr, dist0 = ball.n_vertices, ball.nbr, ball.dist0
    removed, xs, ys = (np.asarray(q) for q in (removed, xs, ys))
    parent = ball._parent_arcs() // nbr.shape[1]
    parent[0] = 0
    cuts = np.searchsorted(dist0, np.arange(int(dist0[-1]) + 2))
    if (parent[2:] < parent[1:-1]).any():
        raise InternalCheckError("breadth-first parents out of order")
    parent = parent.astype(np.int32)
    # the spheres deepest first, in slices of at most _SUBTREE_RANGES vertices
    slices = [slice(lo, min(lo + _SUBTREE_RANGES, cuts[d + 1]))
              for d in range(len(cuts) - 2, 0, -1) for lo in range(cuts[d], cuts[d + 1], _SUBTREE_RANGES)]
    size = np.ones(n, dtype=np.int32)
    for at in slices:
        np.add.at(size, parent[at], size[at])
    # a vertex's position is its parent's plus one plus the sizes of its
    # earlier siblings, whose numbers run from the parent's first child
    heads = np.flatnonzero(np.diff(parent[1:], prepend=-1)) + 1
    first = np.zeros(n, dtype=np.intp)
    first[heads] = heads
    before = np.cumsum(size) - size
    step = before - before[np.maximum.accumulate(first)] + 1
    pre = np.zeros(n, dtype=np.int32)
    for at in reversed(slices):
        pre[at] = pre[parent[at]] + step[at]
    end = pre + size
    # each vertex's least and greatest position on its table row (-1 entries
    # read n, then -1), then over its subtree
    lo_ext, hi_ext = np.append(pre, np.int32(n)), np.append(pre, np.int32(-1))
    low, high = pre.copy(), pre.copy()
    for col in nbr.T:
        np.minimum(low, lo_ext[col], out=low)
        np.maximum(high, hi_ext[col], out=high)
    for at in slices:
        np.minimum.at(low, parent[at], low[at])
        np.maximum.at(high, parent[at], high[at])
    reach = (parent > 0) & ((low < pre[parent]) | (high >= end[parent]))
    a, b = [np.flatnonzero(reach)], [parent[reach]]
    for col in nbr.T:  # row entries past the row's subtree, each edge once
        u = np.flatnonzero(hi_ext[col] >= end)
        a.append(u)
        b.append(col[u])
    block = components(n, np.concatenate(a), np.concatenate(b))
    key = dist0.astype(np.int64) * n + pre  # ascending
    below = (dist0[removed].astype(np.int64) + 1) * n

    def side(v):
        inside = (pre[removed] < pre[v]) & (pre[v] < end[removed])
        child = np.searchsorted(key, below + pre[v], side="right") - 1
        return block[np.where(inside, child, removed)]

    return (xs != removed) & (ys != removed) & (side(xs) == side(ys))


def build_ball(spec: GroupSpec, r_in: int, generators=None, budget: int = _DEFAULT_BUDGET) -> BallGraph:
    """Breadth-first enumeration of the Cayley ball of radius ``3 * r_in``
    over array codes, as the module docstring describes.

    ``generators`` optionally replaces the standard generators by words over
    them (a new graph, the same group).  Three spheres of codes are alive at
    a time and no element is kept.  Raises BudgetExceededError when
    more than ``budget`` vertices appear.
    """
    if r_in < 1:
        raise ValueError("r_in must be at least 1")
    if r_in > _MAX_R_IN:
        raise ValueError(f"r_in must be at most {_MAX_R_IN}, so that 4 * r_in fits int16")
    letters = resolve_letters(spec, generators)
    r_out = 3 * r_in
    elements = [l.element for l in letters]
    codes = ElementCodes(spec.root)
    prev = np.zeros((0, codes.width), dtype=np.int64)  # spheres d - 1 and d
    cur = codes.encode(spec.identity())[None, :]
    start = 0  # vertex index of prev's first row; cur follows prev
    counts = [1]
    table = []
    for d in range(r_out + 1):
        if len(cur) == 0:
            break
        products = codes.multiply(cur, elements, add=d < r_out).reshape(-1, codes.width)
        known = len(prev) + len(cur)
        # the known rows are classes 0 .. known - 1 and the next sphere the
        # classes after them, so class c is vertex start + c
        first, cls = _row_classes(np.concatenate([prev, cur, products]))
        n, fresh = start + known, len(first) - known
        vertex = start + cls[known:]
        if d == r_out:  # products outside the ball
            vertex[vertex >= n] = -1
            fresh = 0
        elif n + fresh > budget:
            raise BudgetExceededError(budget, max(n, budget), d)
        table.append(vertex.astype(np.int32))
        counts.append(fresh)
        prev, cur, start = cur, products[first[known : known + fresh] - known], start + len(prev)
    nbr = np.concatenate(table).reshape(-1, len(letters))
    dist0 = np.repeat(np.arange(len(counts)), counts)
    return BallGraph(spec, letters, r_in, r_out, None, dist0, nbr)


def _row_classes(rows):
    """Exact classes of equal rows of a 2-D integer array, numbered by first
    occurrence: ``first[c]`` is the first row of class ``c`` (ascending) and
    ``cls[i]`` the class of row ``i``.

    One stable ``np.lexsort`` over the columns puts equal rows side by side
    in input order: a class starts wherever a sorted row differs from the
    one before it, and that row is its first occurrence.  ``build_ball``
    takes about 0.48 s on ``F(a,b)`` R4 and 0.25 s on ``Z2 * Z3`` R11 (one id
    column), 19 ms on ``(Z2 * Z3) x Z`` R6 (two), medians on a 2-core VM.
    """
    order = np.lexsort(rows.T)
    head = np.zeros(len(order), dtype=bool)
    head[0] = True
    for col in rows.T:  # a column at a time: numpy reduces a short last axis slowly
        s = col[order]
        head[1:] |= s[1:] != s[:-1]
    del s  # before the class arrays
    first = order[head]  # per class, in sorted order
    renumber = np.argsort(first)
    rank = np.empty_like(renumber)
    rank[renumber] = np.arange(len(renumber))
    first = first[renumber]
    cls = np.empty(len(order), dtype=np.intp)
    cls[order] = rank[np.cumsum(head) - 1]
    return first, cls


class DistanceMatrix:
    """Clipped distances (module docstring) in two int16 row stores.

    ``inner_rows`` holds the inner rows over the ``mid_count`` columns,
    B(2R), swept on B(floor(5R/2)) at construction (no geodesic of length
    at most 2R from an inner vertex to B(2R) leaves it); ``inner`` is its
    inner block.  ``block`` holds whole-ball rows, one sweep per request
    for the rows it lacks, and ``_slot`` a vertex's block row, or -1.
    ``rows`` serves inner vertices on columns below ``mid_count`` from
    ``inner_rows``; other reads (detour levels from 2, ``masked_path``, the
    adversarial mesh, quasi-convexity, vertices past the inner ball) and
    ``row`` fill ``block``, so read it through them.  ``_dags`` is the
    geodesic-DAG store of ``geodesics.inner_dags``, whose vertex set is the
    geodesic hull.  Both fill on first use without locks.
    """

    def __init__(self, ball: BallGraph):
        self.ball = ball
        self.clip = 2 * ball.r_in + 1
        self._pscan = None  # the polygon scan, filled lazily by invariants
        self._dags = None  # the geodesic-DAG store, filled lazily by geodesics
        ni, mid = ball.inner_count, ball.mid_count
        prefix = int(np.searchsorted(ball.dist0, 5 * ball.r_in // 2, side="right"))
        self.inner_rows = self._clipped_rows(np.arange(ni), prefix)[:, :mid].copy()
        self.inner = self.inner_rows[:, :ni].copy()
        self.block = np.empty((0, ball.n_vertices), dtype=np.int16)
        self._slot = np.full(ball.n_vertices, -1, dtype=np.int32)

    def _clipped_rows(self, sources, width=None):
        """int16 rows ``min(d(s, w), clip)`` on the subgraph induced by the
        first ``width`` vertices (default all), one per source, by one
        breadth-first sweep for all sources.  The frontier holds flat indices
        ``i * n + v`` into rows that start at ``clip``; level ``t`` reads its
        table rows a letter at a time and writes ``t`` to the products still at
        ``clip``, the next frontier.  A letter maps vertices one to one, so
        marking before the next column is read puts each index in one level."""
        n, clip, nbr = width or self.ball.n_vertices, self.clip, self.ball.nbr
        if n < len(nbr):
            nbr = np.where(nbr[:n] < n, nbr[:n], -1)
        out = np.full((len(sources), n), clip, dtype=np.int16)
        flat = out.reshape(-1)
        front = np.arange(len(sources), dtype=np.int64) * n + sources
        flat[front] = 0
        for t in range(1, clip):
            v = front % n
            base, parts = front - v, []
            for col in nbr.T:
                w = col[v]
                keep = w >= 0
                fresh = base[keep] + w[keep]
                fresh = fresh[flat[fresh] == clip]
                flat[fresh] = t
                parts.append(fresh)
            front = np.concatenate(parts)
        return out

    def _slots(self, vertices):
        """Block rows of ``vertices`` (checked by the caller), after appending
        the rows they lack in one ``_clipped_rows`` call."""
        at = self._slot[vertices]
        if at.min(initial=0) < 0:
            missing = _unique(np.asarray(vertices)[at < 0])
            self.block = np.concatenate([self.block, self._clipped_rows(missing)])
            self._slot[missing] = np.arange(len(self.block) - len(missing), len(self.block))
            at = self._slot[vertices]
        return at

    def ensure_mid_rows(self, vertices) -> np.ndarray:
        """``rows`` of ``vertices`` over the ``mid_count`` columns; a probe in
        ``perfbench/tracing.py`` binds the name (``ball.mid_rows_s``,
        ``ball.mid_block_bytes``)."""
        return self.rows(vertices, np.arange(self.ball.mid_count))

    def rows(self, vertices, cols=None) -> np.ndarray:
        """Clipped rows of a 1-D array of vertices, as a new int16 array, or
        only columns ``cols``: a 1-D ``cols`` from every row, a 2-D one row by
        row (``d(vertices[i], cols[i, j])``).  Read from ``inner_rows`` when
        every vertex is inner and every column below ``mid_count``."""
        vertices = _vertices(np.asarray(vertices))
        if cols is not None:
            cols = _vertices(np.asarray(cols))
            if vertices.max(initial=0) < self.ball.inner_count and cols.max(initial=0) < self.ball.mid_count:
                return self.inner_rows[vertices[:, None], cols]
        at = self._slots(vertices)  # fill first: the fill replaces the block
        return self.block[at] if cols is None else self.block[at[:, None], cols]

    def row(self, u) -> np.ndarray:
        """Clipped distances from ``u`` to every ball vertex, as a view of
        its block row: exact up to ``2 * r_in``, ``clip`` beyond it."""
        k = self._slot[_vertices(u)]
        if k < 0:  # fill first: the fill replaces the block
            k = self._slots([u])[0]
        return self.block[k]

    def d(self, u, v) -> int:
        """Clipped distance between two ball vertices: exact up to
        ``2 * r_in``, ``clip`` beyond it."""
        return int(self.rows([u], [v])[0, 0])


def _vertices(idx):
    """``idx``, checked to hold no negative vertex (numpy would wrap it)."""
    least = np.min(idx, initial=0)
    if least < 0:
        raise IndexError(f"negative vertex index {least}")
    return idx


def all_pairs_distances(ball: BallGraph) -> DistanceMatrix:
    """Clipped distance rows of every inner vertex over the 2R ball."""
    return DistanceMatrix(ball)


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


def read_ball(text: str, spec: GroupSpec) -> BallGraph:
    """Rebuild a ball from its text export: ``build_ball(spec, radius_in)``
    over the edge labels (the lines of three fields), accepted only when its
    ``write_ball`` export is the text, line for line.

    The build's vertex budget is the text's line count, so a header cannot
    make it outgrow its input.  Raises ValueError on a malformed header, a
    ``radius_in`` outside ``1.._MAX_R_IN``, no edge line, a label that is not
    a word of ``spec``, a build past the budget, or a line that differs from
    the rebuilt ball's export (the first one is named).
    """
    lines = text.splitlines() or [""]  # empty text fails the header check
    header = lines[0].split()
    if len(header) != 6 or header[0] != "vertices" or header[2] != "radius_in" or header[4] != "radius_out":
        raise ValueError(f"bad ball header: {lines[0]!r}")
    r_in = int(header[3])
    if not 1 <= r_in <= _MAX_R_IN:
        raise ValueError(f"radius_in must lie in 1..{_MAX_R_IN}, got {r_in}")
    labels = sorted({f[2] for f in (line.split(" ") for line in lines[1:]) if len(f) == 3})
    if not labels:
        raise ValueError("imported ball has no edge lines: a Cayley ball needs at least one letter")
    try:
        ball = build_ball(spec, r_in, generators=labels, budget=len(lines))
    except BudgetExceededError as exc:
        raise ValueError(f"the rebuilt ball outgrows the text: {exc}") from None
    export = write_ball(ball).splitlines()
    for i, (got, want) in enumerate(itertools.zip_longest(lines, export)):
        if got != want:
            raise ValueError(f"line {i + 1} is {got!r}, the rebuilt ball's export has {want!r}")
    return ball
