"""Finitely generated groups with decidable canonical normal forms.

Group expressions combine a few building blocks:

    spec := term ('*' term)*          free product
    term := atom ('x' atom)*          direct product
    atom := 'F(' name (',' name)* ')' | 'Z' | 'Z'<n> | 'S'<n> | '(' spec ')'

Examples: ``F(a,b)``, ``Z2 * Z3``, ``Z x Z``, ``(Z2 * Z3) x Z``.

Elements are hashable values in canonical normal form, equal in the group
iff they compare equal:

* cyclic Z / Zn  -- integer (residue in ``range(n)`` for Zn)
* symmetric Sn   -- permutation of ``range(n)`` in one-line notation
* free product   -- tuple of ``(factor index, factor element)`` syllables,
                    none the identity, no two neighbours from one factor;
                    ``F(a,b)`` is the free product of one Z per name
* direct product -- tuple of per-factor elements

Free-group generators keep their declared names; the k-th atom (1-based,
in source order) contributes ``t<k>`` when cyclic and the adjacent
transpositions ``s<k>_1 .. s<k>_<n-1>`` when symmetric.  Names must be
unique.  Words are dot-separated (``a.b^-1.a``), any integer exponent is
accepted (``t1^3``), ``1`` is the identity, and
:meth:`GroupSpec.format_element` parses back to the same element.

For ball enumeration every normal form also has a code, one int64 row
(:class:`ElementCodes`), and whole blocks of codes multiply at once.  A
cyclic value stays below 2**62 in absolute value, so no sum of two wraps.
A free product element's code is one id in a prefix table, so each letter
syllable costs a row one table step (a free group steps one letter at a
time: ``a^k`` is k steps).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

import numpy as np

Element = Any  # canonical normal-form value, hashable


class InternalCheckError(RuntimeError):
    """A mathematically guaranteed relation failed; indicates a bug."""


class SpecParseError(ValueError):
    """Malformed group specification; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class WordError(ValueError):
    """Malformed word over the declared generators."""


# group nodes

class CyclicNode:
    """Infinite cyclic group (order None) or Z/nZ; elements are integers."""

    def __init__(self, order, name):
        self.order = order
        self.name = name

    def identity(self):
        return 0

    def multiply(self, a, b):
        c = a + b
        return c % self.order if self.order else c

    def invert(self, a):
        return (-a) % self.order if self.order else -a

    def gens(self):
        return [(self.name, 1)]

    def word_syllables(self, a):
        return [] if a == 0 else [(self.name, a)]

    # code: [a], below _MAX_Z in absolute value (the parser keeps every
    # order at most _MAX_Z, so only Z can reach it)
    def code_width(self):
        return 1

    def encode(self, a, codes):
        if abs(a) >= _MAX_Z:
            raise ValueError(f"{self.name} value {a} is not below 2**62 in absolute value; use smaller exponents")
        return [a]

    def multiply_codes(self, block, elements, codes, add=True):
        # two values below _MAX_Z sum without wrapping int64
        out = block[:, None, :] + np.array([self.encode(e, codes) for e in elements], dtype=np.int64)
        if self.order:
            np.remainder(out, self.order, out=out)
        elif (np.abs(out) >= _MAX_Z).any():
            raise ValueError(f"a product's {self.name} value reached 2**62 in absolute value; use smaller exponents")
        return out


class SymmetricNode:
    """Symmetric group on n letters generated by adjacent transpositions."""

    def __init__(self, n, names):
        self.n = n
        self.names = tuple(names)  # names[k] swaps positions k, k+1

    def identity(self):
        return tuple(range(self.n))

    def multiply(self, a, b):
        # right multiplication: (a*b)[k] = a[b[k]]
        return tuple(a[b[k]] for k in range(self.n))

    def invert(self, a):
        inv = [0] * self.n
        for k, v in enumerate(a):
            inv[v] = k
        return tuple(inv)

    def gens(self):
        out = []
        for k, name in enumerate(self.names):
            perm = list(range(self.n))
            perm[k], perm[k + 1] = perm[k + 1], perm[k]
            out.append((name, tuple(perm)))
        return out

    def word_syllables(self, a):
        # bubble-sort decomposition into adjacent transpositions
        p = list(a)
        swaps = []
        changed = True
        while changed:
            changed = False
            for k in range(self.n - 1):
                if p[k] > p[k + 1]:
                    p[k], p[k + 1] = p[k + 1], p[k]
                    swaps.append(k)
                    changed = True
        return [(self.names[k], 1) for k in reversed(swaps)]

    # code: the permutation in one-line notation, n columns
    def code_width(self):
        return self.n

    def encode(self, a, codes):
        return list(a)

    def multiply_codes(self, block, elements, codes, add=True):
        return block[:, np.array(elements)]  # (a*b)[k] = a[b[k]]


class FreeProductNode:
    """Free product; elements are alternating sequences of factor syllables."""

    def __init__(self, factors):
        self.factors = list(factors)

    def identity(self):
        return ()

    def multiply(self, a, b):
        out = list(a)
        junction = len(out) - 1  # the last merged or surviving syllable
        for fi, e in b:
            if out and out[-1][0] == fi:
                merged = self.factors[fi].multiply(out[-1][1], e)
                if merged == self.factors[fi].identity():
                    out.pop()
                else:
                    out[-1] = (fi, merged)
                junction = len(out) - 1
            else:
                out.append((fi, e))
        # reduced factors can break the normal form only where they meet
        if not self._reduced(out[max(junction - 1, 0) : junction + 2]):
            raise InternalCheckError("free-product normal form violated")
        return tuple(out)

    def _reduced(self, a):
        for i, (fi, e) in enumerate(a):
            if e == self.factors[fi].identity():
                return False
            if i and a[i - 1][0] == fi:
                return False
        return True

    def invert(self, a):
        return tuple((fi, self.factors[fi].invert(e)) for fi, e in reversed(a))

    def gens(self):
        out = []
        for fi, factor in enumerate(self.factors):
            for name, e in factor.gens():
                out.append((name, ((fi, e),)))
        return out

    def word_syllables(self, a):
        out = []
        for fi, e in a:
            out.extend(self.factors[fi].word_syllables(e))
        return out

    # code: one column, the id in the node's prefix table.  The table steps
    # through ``_steps(a)``, keying each step by ``_syllable`` (the tag fi + 1
    # followed by the factor's code); ``_merge`` names what a table syllable
    # times a letter's step leaves
    def code_width(self):
        return 1

    def encode(self, a, codes):
        if not self._reduced(a):
            raise InternalCheckError("free-product normal form violated")
        table = codes.table(self)
        i = np.zeros(1, dtype=np.int64)
        for x in self._steps(a):
            i = table.find(i, self._syllable(x, table, codes), True)
        return [int(i[0])]

    def multiply_codes(self, block, elements, codes, add=True):
        table = codes.table(self)
        steps = [self._steps(b) for b in elements]
        letters = [[self._syllable(x, table, codes) for x in b] for b in steps]
        source = {s: x for b, ss in zip(steps, letters) for x, s in zip(b, ss)}
        ids = table.multiply(block[:, 0], letters, lambda t, s: self._merge(table, t, source[s], codes), add)
        return ids.astype(np.int64)[:, :, None]

    def _steps(self, a):
        return a

    def _syllable(self, x, table, codes):
        return table.syllable((x[0] + 1, *self.factors[x[0]].encode(x[1], codes)))

    def _merge(self, table, t, x, codes):
        fi, e = x
        tag, *code = table.info[t]
        if tag != fi + 1:
            return -1
        factor = self.factors[fi]
        row = factor.multiply_codes(np.array([code], dtype=np.int64), [e], codes)[0, 0].tolist()
        if row == factor.encode(factor.identity(), codes):
            return 0
        return table.syllable((tag, *row))


class FreeGroupNode(FreeProductNode):
    """Free group on named generators: the free product of infinite cyclic
    groups, one per name.  Its prefix table steps one letter at a time: a
    syllable ``(fi, k)`` is ``|k|`` steps ``(fi, +-1)``, and a step either
    cancels the table's last one or grows the word."""

    def __init__(self, names):
        super().__init__([CyclicNode(None, name) for name in names])

    def _steps(self, a):
        for fi, k in a:
            if abs(k) >= _MAX_ID:  # more steps than the table has ids
                raise ValueError(f"{self.factors[fi].name}^{k} takes 2**31 or more table steps; use smaller exponents")
        return [(fi, 1 if k > 0 else -1) for fi, k in a for _ in range(abs(k))]

    def _merge(self, table, t, x, codes):
        return 0 if table.info[t] == (x[0] + 1, -x[1]) else -1


class DirectProductNode:
    """Direct product; elements are tuples of per-factor elements."""

    def __init__(self, factors):
        self.factors = list(factors)

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def multiply(self, a, b):
        return tuple(f.multiply(x, y) for f, x, y in zip(self.factors, a, b))

    def invert(self, a):
        return tuple(f.invert(x) for f, x in zip(self.factors, a))

    def gens(self):
        ident = self.identity()
        out = []
        for fi, factor in enumerate(self.factors):
            for name, e in factor.gens():
                value = list(ident)
                value[fi] = e
                out.append((name, tuple(value)))
        return out

    def word_syllables(self, a):
        out = []
        for factor, x in zip(self.factors, a):
            out.extend(factor.word_syllables(x))
        return out

    # code: the factors' codes side by side
    def code_width(self):
        return sum(f.code_width() for f in self.factors)

    def encode(self, a, codes):
        return [v for factor, x in zip(self.factors, a) for v in factor.encode(x, codes)]

    def multiply_codes(self, block, elements, codes, add=True):
        parts, col = [], 0
        for fi, factor in enumerate(self.factors):
            w = factor.code_width()
            parts.append(factor.multiply_codes(block[:, col : col + w], [b[fi] for b in elements], codes, add))
            col += w
        return np.concatenate(parts, axis=2)


# Ids stay below 2**31: a key ``parent << 32 | syllable`` then fits int64.
_MAX_ID = 1 << 31
# Cyclic code values stay below 2**62 in absolute value: a sum of two then
# fits int64.
_MAX_Z = 1 << 62


class _PrefixTable:
    """The normal forms of one free product node met so far.

    Id 0 is the identity; id i > 0 the pair (``parent[i]``, ``last[i]``) of
    the id of the normal form less its last syllable and that syllable's id,
    all int32.  ``keys`` holds the pairs as ``parent << 32 | last``, sorted,
    before a sentinel; ``at`` their ids.  Syllable s > 0 has key ``info[s]``,
    a tuple led by its tag.  ``move[t, c]`` caches what syllable t times
    letter syllable ``columns[c]`` leaves: -1 both, 0 nothing, or one
    merged syllable.
    """

    def __init__(self):
        self.parent = np.zeros(1, dtype=np.int32)
        self.last = np.zeros(1, dtype=np.int32)
        self.keys = np.array([np.iinfo(np.int64).max])
        self.at = np.array([-1], dtype=np.int32)
        self.info = [(0,)]
        self._syllables = {}
        self.columns = []
        self.move = np.zeros((1, 0), dtype=np.int32)

    def syllable(self, key):
        s = self._syllables.get(key)
        if s is None:
            s = len(self.info)
            if s >= _MAX_ID:
                raise _id_overflow()
            self._syllables[key] = s
            self.info.append(key)
        return s

    def find(self, parent, syllable, add):
        """Ids of the pairs (``parent[i]``, ``syllable[i]``); a pair not in
        the table is added where ``add`` (one bool, or one per pair) holds,
        else reads -1."""
        key = parent.astype(np.int64)
        key <<= 32
        key |= syllable
        pos = np.searchsorted(self.keys, key)
        out = self.at[pos]
        missing = self.keys[pos] != key
        del pos
        out[missing] = -1
        new = missing & add
        if new.any():
            fresh, inv = np.unique(key[new], return_inverse=True)
            n = len(self.parent)
            if n + len(fresh) > _MAX_ID:
                raise _id_overflow()
            at = np.searchsorted(self.keys, fresh)
            self.keys = np.insert(self.keys, at, fresh)
            self.at = np.insert(self.at, at, np.arange(n, n + len(fresh), dtype=np.int32))
            self.parent = np.concatenate([self.parent, fresh >> 32], dtype=np.int32)
            self.last = np.concatenate([self.last, fresh & 0xFFFFFFFF], dtype=np.int32)
            out[new] = n + inv
        return out

    def multiply(self, ids, letters, merge, add):
        """The ``(len(ids), len(letters))`` ids of ``a * b`` for every id
        ``a`` and letter ``b`` (syllable ids); ``merge(t, s)`` fills ``move``.
        A letter's last step adds to the table only with ``add``."""
        ending = np.array([len(b) for b in letters]) - 1
        ids = np.repeat(ids.astype(np.int32)[:, None], len(letters), axis=1)
        for k in range(ending.max(initial=-1) + 1):
            s = np.array([b[k] if k < len(b) else 0 for b in letters])  # 0: the letter has ended
            m = self._moves(self.last[ids], s, merge)
            grow = m < 0
            out = np.where(grow, ids, self.parent[ids])
            syl = np.where(grow, s, m)
            del m, grow
            look = np.flatnonzero(syl)
            keep = add or np.broadcast_to(k < ending, syl.shape).ravel()[look]
            out.ravel()[look] = self.find(out.ravel()[look], syl.ravel()[look], keep)
            ids = out
        return ids

    def _moves(self, last, s, merge):
        """``move`` at syllables ``last[:, j]`` and letter syllable ``s[j]``."""
        for x in s:
            if x not in self.columns:
                self.columns.append(x)
        col = np.array([self.columns.index(x) for x in s])
        shape = (len(self.info), len(self.columns))
        if self.move.shape != shape:
            grown = np.full(shape, -2, dtype=np.int32)  # -2: not computed yet
            grown[: self.move.shape[0], : self.move.shape[1]] = self.move
            self.move = grown
        m = self.move[last, col]
        r, j = np.nonzero(m == -2)
        if r.size:
            for t, c in set(zip(last[r, j].tolist(), col[j].tolist())):
                x = self.columns[c]
                self.move[t, c] = merge(t, x) if x else -1
            m = self.move[last, col]
        return m


def _id_overflow():
    return InternalCheckError(f"prefix table ids past {_MAX_ID} would not fit the int64 key")


class ElementCodes:
    """Integer codes for the elements of the group ``root``.

    A code is one int64 row of ``width`` integers, equal exactly when the
    elements are: a cyclic element is one column, a permutation its
    one-line notation, a direct product its factors' columns side by side,
    and a free product element the id of its normal form in the node's
    ``_PrefixTable``, which this object owns and fills.

    A cyclic value at or past 2**62 in absolute value, which only a
    generator exponent can reach, raises ValueError; nothing wraps.
    """

    def __init__(self, root):
        self.root = root
        self._tables = {}
        self.width = root.code_width()

    def table(self, node):
        """The prefix table of a free product node."""
        if node not in self._tables:
            self._tables[node] = _PrefixTable()
        return self._tables[node]

    def encode(self, e):
        """The code row of an element of the root group."""
        return np.array(self.root.encode(e, self), dtype=np.int64)

    def multiply(self, block, elements, add=True):
        """The ``(m, len(elements), width)`` codes of ``a * e`` for every row
        ``a`` of an ``(m, width)`` block and every element ``e``.  Without
        ``add``, an id not yet in its prefix table reads -1."""
        return self.root.multiply_codes(block, elements, self, add)


# public spec object

@dataclass(frozen=True)
class GeneratorLetter:
    """One directed edge label of a Cayley graph: a word plus inversion flag."""

    label: str            # canonical word, unique per group element
    word: str             # source text the letter came from
    inverted: bool
    element: Element = field(compare=False, hash=False)


class GroupSpec:
    """A parsed group expression with exact element algebra: pure methods,
    immutable after construction, so safe to share between threads."""

    def __init__(self, text, root, generators):
        self.text = text
        self.root = root
        self.generators = tuple(generators)  # (name, element), source order
        self._by_name = {name: e for name, e in generators}

    def __repr__(self):
        return f"GroupSpec({self.text!r})"

    @property
    def generator_names(self):
        return tuple(name for name, _ in self.generators)

    def identity(self):
        return self.root.identity()

    def multiply(self, a, b):
        return self.root.multiply(a, b)

    def invert(self, a):
        return self.root.invert(a)

    def power(self, a, k):
        """``a ** k`` by square and multiply: about ``2 log2 |k|`` products."""
        out, base, k = self.identity(), a if k >= 0 else self.invert(a), abs(k)
        while k:
            if k & 1:
                out = self.multiply(out, base)
            k >>= 1
            if k:
                base = self.multiply(base, base)
        return out

    def parse_word(self, text):
        """Evaluate a dot-separated word like ``a.b^-1.t1^3`` to an element."""
        text = text.strip()
        if text in ("", "1"):
            return self.identity()
        out = self.identity()
        for token in text.split("."):
            m = re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+))?", token.strip())
            if not m:
                raise WordError(f"bad word token {token!r}")
            name, exp = m.group(1), int(m.group(2) or 1)
            if name not in self._by_name:
                raise WordError(f"unknown generator {name!r}")
            out = self.multiply(out, self.power(self._by_name[name], exp))
        return out

    def format_element(self, e):
        """Canonical word for an element; parses back to the same element."""
        syllables = self.root.word_syllables(e)
        if not syllables:
            return "1"
        return ".".join(name if exp == 1 else f"{name}^{exp}" for name, exp in syllables)


# parser

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|[(),*])")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.atom_count = 0
        self.names = []        # (name, position) in source order
        self._peeked = None

    def error(self, message, position=None):
        raise SpecParseError(message, self.pos if position is None else position)

    def peek(self):
        if self._peeked is None:
            m = _TOKEN.match(self.text, self.pos)
            if m:
                self._peeked = (m.group(1), m.start(1), m.end())
            elif self.text[self.pos:].strip():
                bad = self.pos + len(self.text[self.pos:]) - len(self.text[self.pos:].lstrip())
                raise SpecParseError(f"unexpected character {self.text[bad]!r}", bad)
            else:
                self._peeked = (None, len(self.text), len(self.text))
        return self._peeked[0]

    def take(self):
        tok = self.peek()
        _, start, end = self._peeked
        self.pos = end
        self._peeked = None
        return tok, start

    def expect(self, symbol):
        tok, start = self.take()
        if tok != symbol:
            self.error(f"expected {symbol!r}, found {tok!r}", start)

    def add_name(self, name, position):
        self.names.append((name, position))

    def parse(self):
        node = self.parse_spec()
        tok = self.peek()
        if tok is not None:
            self.error(f"unexpected token {tok!r}")
        seen = {}
        for name, position in self.names:
            if name in seen:
                raise SpecParseError(f"duplicate generator name {name!r}", position)
            seen[name] = position
        return node

    def parse_spec(self):
        factors = [self.parse_term()]
        while self.peek() == "*":
            self.take()
            factors.append(self.parse_term())
        return factors[0] if len(factors) == 1 else FreeProductNode(factors)

    def parse_term(self):
        factors = [self.parse_atom()]
        while self.peek() == "x":
            self.take()
            factors.append(self.parse_atom())
        return factors[0] if len(factors) == 1 else DirectProductNode(factors)

    def parse_atom(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            node = self.parse_spec()
            self.expect(")")
            return node
        tok, start = self.take()
        if tok is None:
            self.error("expected a group atom, found end of input", start)
        if tok == "F":
            return self.parse_free(start)
        m = re.fullmatch(r"Z(\d+)?", tok)
        if m:
            self.atom_count += 1
            order = int(m.group(1)) if m.group(1) else None
            if order is not None and order < 2:
                self.error(f"cyclic order must be at least 2, got {order}", start)
            if order is not None and order > _MAX_Z:
                self.error(f"cyclic order must be at most 2**62, got {order}", start)
            name = f"t{self.atom_count}"
            self.add_name(name, start)
            return CyclicNode(order, name)
        m = re.fullmatch(r"S(\d+)", tok)
        if m:
            self.atom_count += 1
            n = int(m.group(1))
            if n < 2:
                self.error(f"symmetric degree must be at least 2, got {n}", start)
            names = [f"s{self.atom_count}_{k + 1}" for k in range(n - 1)]
            for name in names:
                self.add_name(name, start)
            return SymmetricNode(n, names)
        self.error(f"expected a group atom, found {tok!r}", start)

    def parse_free(self, start):
        self.atom_count += 1
        self.expect("(")
        names = []
        while True:
            tok, tstart = self.take()
            if tok is None or tok in "(),*":
                self.error("expected a generator name", tstart)
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
                self.error(f"bad generator name {tok!r}", tstart)
            names.append(tok)
            self.add_name(tok, tstart)
            tok, tstart = self.take()
            if tok == ")":
                return FreeGroupNode(names)
            if tok != ",":
                self.error(f"expected ',' or ')', found {tok!r}", tstart)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a group expression, e.g. ``"F(a,b)"`` or ``"Z2 * Z3"``; raises
    SpecParseError (with position) on syntax errors, duplicate generator
    names, or cyclic orders below 2 or above 2**62."""
    if not text.strip():
        raise SpecParseError("empty group specification", 0)
    root = _Parser(text).parse()
    return GroupSpec(text, root, list(root.gens()))
