"""Finitely generated groups with decidable canonical normal forms.

Group expressions combine a few well-behaved building blocks:

    spec := term ('*' term)*          free product
    term := atom ('x' atom)*          direct product
    atom := 'F(' name (',' name)* ')' | 'Z' | 'Z'<n> | 'S'<n> | '(' spec ')'

Examples: ``F(a,b)``, ``Z2 * Z3``, ``Z x Z``, ``(Z2 * Z3) x Z``.

Elements are plain hashable Python values in canonical normal form, so two
elements are equal in the group iff their values compare equal:

* free group     -- tuple of ``(generator index, +1/-1)`` letters, freely reduced
* cyclic Z / Zn  -- integer (residue in ``range(n)`` for Zn)
* symmetric Sn   -- permutation of ``range(n)`` in one-line notation, as a tuple
* free product   -- tuple of ``(factor index, factor element)`` syllables with no
                    identity syllable and no two adjacent syllables from the
                    same factor
* direct product -- tuple of per-factor elements

Generator naming: free-group generators keep their declared names; the k-th
atom of the expression (1-based, in source order) contributes ``t<k>`` when
cyclic and the adjacent transpositions ``s<k>_1 .. s<k>_<n-1>`` when
symmetric.  Names must be unique across the whole expression.

Words over the generators are dot-separated: ``a.b^-1.a``.  Any integer
exponent is accepted (``t1^3``), and ``1`` denotes the identity.  The
canonical word produced by :meth:`GroupSpec.format_element` parses back to
the same element.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

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


# ---------------------------------------------------------------------------
# group nodes

class FreeGroupNode:
    """Free group on named generators; elements are freely reduced words."""

    def __init__(self, names):
        self.names = tuple(names)

    def identity(self):
        return ()

    def multiply(self, a, b):
        out = list(a)
        for gen, sign in b:
            if out and out[-1][0] == gen and out[-1][1] == -sign:
                out.pop()
            else:
                out.append((gen, sign))
        return tuple(out)

    def invert(self, a):
        return tuple((gen, -sign) for gen, sign in reversed(a))

    def gens(self):
        return [(name, ((i, 1),)) for i, name in enumerate(self.names)]

    def word_syllables(self, a):
        return [(self.names[gen], sign) for gen, sign in a]


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


# ---------------------------------------------------------------------------
# public spec object

@dataclass(frozen=True)
class GeneratorLetter:
    """One directed edge label of a Cayley graph: a word plus inversion flag."""

    label: str            # canonical word, unique per group element
    word: str             # source text the letter came from
    inverted: bool
    element: Element = field(compare=False, hash=False)


class GroupSpec:
    """A parsed group expression with exact element algebra.

    All methods are pure and the object is immutable after construction, so
    instances are safe to share between threads.
    """

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
        out = self.identity()
        base = a if k >= 0 else self.invert(a)
        for _ in range(abs(k)):
            out = self.multiply(out, base)
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
        merged = []
        for name, exp in syllables:
            if merged and merged[-1][0] == name:
                merged[-1][1] += exp
                if merged[-1][1] == 0:
                    merged.pop()
            else:
                merged.append([name, exp])
        if not merged:
            return "1"
        return ".".join(name if exp == 1 else f"{name}^{exp}" for name, exp in merged)

    def standard_letters(self):
        """The declared generators as GeneratorLetter objects (not yet closed
        under inversion; see cayleyball.ball.resolve_letters)."""
        return [
            GeneratorLetter(label=self.format_element(e), word=name, inverted=False, element=e)
            for name, e in self.generators
        ]


# ---------------------------------------------------------------------------
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
    """Parse a group expression, e.g. ``"F(a,b)"`` or ``"Z2 * Z3"``.

    Raises SpecParseError (with position) on syntax errors, duplicate
    generator names, or orders below 2.
    """
    if not text.strip():
        raise SpecParseError("empty group specification", 0)
    root = _Parser(text).parse()
    return GroupSpec(text, root, list(root.gens()))
