"""Lattice terms, identities, and their concrete syntax.

A term is a finite binary tree over indexed variables ``x1, x2, ...`` with
the two lattice operations join (``\\/``) and meet (``/\\``).  Meet binds
tighter than join and both operators associate to the left.  The
pretty-printer emits fully parenthesized text, so
``parse_term(pretty(t)) == t`` for every term ``t``.

An identity is the universally quantified inequality ``lhs <= rhs``; the
equational form ``p = q`` is the conjunction of ``p <= q`` and ``q <= p``.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple, Union


class ParseError(ValueError):
    """Malformed term or identity text. ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class Variable:
    """The variable ``x<index>``.  Term nodes are immutable by convention:
    they are shared between terms, and hash by their fields."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 1:
            raise ValueError(f"variable index must be >= 1, got {index}")
        self.index = index

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.index == other.index
        return NotImplemented

    def __hash__(self):
        return hash((self.index,))

    def __repr__(self):
        return f"Variable(index={self.index!r})"


class _Binary:
    """A join or meet node; a ``Join`` never equals a ``Meet``."""

    __slots__ = ("left", "right")

    def __init__(self, left: "Term", right: "Term"):
        self.left = left
        self.right = right

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self):
        return hash((self.left, self.right))

    def __repr__(self):
        return f"{type(self).__name__}(left={self.left!r}, right={self.right!r})"


class Join(_Binary):
    __slots__ = ()


class Meet(_Binary):
    __slots__ = ()


Term = Union[Variable, Join, Meet]


class Identity(NamedTuple):
    """The inequality ``lhs <= rhs``, quantified over all variables."""

    lhs: Term
    rhs: Term


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN = re.compile(r"x(\d+)|\\/|/\\|<=|=|[()]")

_KIND = {"\\/": "join", "/\\": "meet", "(": "lparen", ")": "rparen",
         "<=": "le", "=": "eq"}

# token: (kind, payload, source offset)
_Token = Tuple[str, int, int]


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(text, pos)
        if not match:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        lexeme = match.group(0)
        if match.group(1) is not None:
            index = int(match.group(1))
            if index < 1:
                raise ParseError("variable index must be >= 1", pos)
            tokens.append(("var", index, pos))
        else:
            tokens.append((_KIND[lexeme], 0, pos))
        pos = match.end()
    return tokens


class _TermParser:
    """Recursive-descent parser; meet over join, both left-associative."""

    def __init__(self, tokens: List[_Token], end: int):
        self.tokens = tokens
        self.i = 0
        self.end = end

    def peek(self) -> _Token:
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("end", 0, self.end)

    def take(self) -> _Token:
        tok = self.peek()
        self.i += 1
        return tok

    def term(self) -> Term:
        node = self.meet_chain()
        while self.peek()[0] == "join":
            self.take()
            node = Join(node, self.meet_chain())
        return node

    def meet_chain(self) -> Term:
        node = self.atom()
        while self.peek()[0] == "meet":
            self.take()
            node = Meet(node, self.atom())
        return node

    def atom(self) -> Term:
        kind, value, pos = self.peek()
        if kind == "var":
            self.take()
            return Variable(value)
        if kind == "lparen":
            self.take()
            node = self.term()
            kind2, _, pos2 = self.peek()
            if kind2 != "rparen":
                raise ParseError("expected ')'", pos2)
            self.take()
            return node
        raise ParseError("expected a variable or '('", pos)

    def finish(self) -> None:
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected trailing input", pos)


def parse_term(text: str) -> Term:
    """Parse a single lattice term."""
    parser = _TermParser(_tokenize(text), len(text))
    node = parser.term()
    parser.finish()
    return node


def parse_identity(text: str) -> List[Identity]:
    """Parse ``p <= q`` into one identity or ``p = q`` into two (both orders)."""
    tokens = _tokenize(text)
    split = next((k for k, tok in enumerate(tokens) if tok[0] in ("le", "eq")), None)
    if split is None:
        raise ParseError("missing relation symbol '<=' or '='", len(text))
    relation = tokens[split][0]
    left = _TermParser(tokens[:split], tokens[split][2])
    lhs = left.term()
    left.finish()
    right = _TermParser(tokens[split + 1:], len(text))
    rhs = right.term()
    right.finish()
    if relation == "le":
        return [Identity(lhs, rhs)]
    return [Identity(lhs, rhs), Identity(rhs, lhs)]


def pretty(t: Term) -> str:
    """Fully parenthesized rendering; inverse of parse_term on ASTs."""
    if isinstance(t, Variable):
        return f"x{t.index}"
    if isinstance(t, Join):
        return f"({pretty(t.left)} \\/ {pretty(t.right)})"
    return f"({pretty(t.left)} /\\ {pretty(t.right)})"


def pretty_identity(ident: Identity) -> str:
    return f"{pretty(ident.lhs)} <= {pretty(ident.rhs)}"


# ---------------------------------------------------------------------------
# structural queries

def leaves(t: Term) -> Iterator[int]:
    """Variable indices in left-to-right leaf order."""
    if isinstance(t, Variable):
        yield t.index
    else:
        yield from leaves(t.left)
        yield from leaves(t.right)


def variables(t: Term) -> Set[int]:
    return set(leaves(t))


def occurrence_counts(t: Term) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for index in leaves(t):
        counts[index] = counts.get(index, 0) + 1
    return counts


class OccurrenceProfile(NamedTuple):
    """Per variable: (number of occurrences in lhs, in rhs)."""

    counts: Dict[int, Tuple[int, int]]


def occurrences(ident: Identity) -> OccurrenceProfile:
    left = occurrence_counts(ident.lhs)
    right = occurrence_counts(ident.rhs)
    profile = {i: (left.get(i, 0), right.get(i, 0)) for i in set(left) | set(right)}
    return OccurrenceProfile(profile)


def is_one_balanced(ident: Identity) -> bool:
    """True iff every occurring variable occurs exactly once on each side."""
    return all(uv == (1, 1) for uv in occurrences(ident).counts.values())


def is_repetition_free(t: Term) -> bool:
    """True iff no variable occurs twice in ``t``."""
    return all(c == 1 for c in occurrence_counts(t).values())


def dual_term(t: Term) -> Term:
    """Swap join and meet at every node (an involution)."""
    if isinstance(t, Variable):
        return t
    if isinstance(t, Join):
        return Meet(dual_term(t.left), dual_term(t.right))
    return Join(dual_term(t.left), dual_term(t.right))


def dual_identity(ident: Identity) -> Identity:
    """The dual of ``p <= q`` is ``q* <= p*`` (sides swap for inequalities)."""
    return Identity(dual_term(ident.rhs), dual_term(ident.lhs))
