"""A recursive-descent parser for LTL formulas.

Grammar (in decreasing binding strength)::

    formula   := iff
    iff       := implies ( "<->" implies )*
    implies   := or ( "->" or )*          (right associative)
    or        := and ( ("|" | "||") and )*
    and       := until ( ("&" | "&&") until )*
    until     := unary ( ("U" | "R") unary )*   (right associative)
    unary     := ("!" | "~" | "X" | "F" | "G" | "<>" | "[]") unary | primary
    primary   := "true" | "false" | atom | "(" formula ")"

Atoms may contain letters, digits, ``_``, ``.``, and comparison expressions
wrapped in quotes or braces, e.g. ``{x1 >= 5}`` which is convenient for the
paper's running example ``G((x1>=5) -> ((x2>=15) U (x1=10)))``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .ast import (
    FALSE,
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    Formula,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    Until,
    intern_formula,
)

__all__ = ["parse", "LTLSyntaxError"]


class LTLSyntaxError(ValueError):
    """Raised when an LTL formula string cannot be parsed."""


class _Token(NamedTuple):
    kind: str
    value: str
    pos: int


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<LBRACE>\{[^{}]*\})
  | (?P<IFF><->)
  | (?P<IMPLIES>->|=>)
  | (?P<OR>\|\||\|)
  | (?P<AND>&&|&)
  | (?P<NOT>!|~)
  | (?P<DIAMOND><>)
  | (?P<BOX>\[\])
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_.]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "true": "TRUE",
    "false": "FALSE",
    "U": "UNTIL",
    "R": "RELEASE",
    "V": "RELEASE",
    "X": "NEXT",
    "F": "EVENTUALLY",
    "G": "ALWAYS",
}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LTLSyntaxError(f"unexpected character {text[pos]!r} at position {pos}")
        kind = m.lastgroup or ""
        value = m.group()
        pos = m.end()
        if kind == "WS":
            continue
        if kind == "NAME":
            kind = _KEYWORDS.get(value, "NAME")
        if kind == "LBRACE":
            # {x1 >= 5} -> atom with the inner text as its name
            value = value[1:-1].strip()
            kind = "NAME"
        if kind == "DIAMOND":
            kind = "EVENTUALLY"
        if kind == "BOX":
            kind = "ALWAYS"
        tokens.append(_Token(kind, value, m.start()))
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.index = 0

    @property
    def current(self) -> _Token:
        """The token under the cursor."""
        return self.tokens[self.index]

    def _advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        if self.current.kind != kind:
            raise LTLSyntaxError(
                f"expected {kind} but found {self.current.kind} "
                f"({self.current.value!r}) at position {self.current.pos}"
            )
        return self._advance()

    # grammar rules -----------------------------------------------------
    def parse_formula(self) -> Formula:
        """Parse the whole input as one ``formula``; trailing tokens are an error."""
        formula = self.parse_iff()
        if self.current.kind != "EOF":
            raise LTLSyntaxError(
                f"unexpected trailing input {self.current.value!r} at position {self.current.pos}"
            )
        return formula

    def parse_iff(self) -> Formula:
        """Parse the ``iff`` rule of the module's grammar."""
        left = self.parse_implies()
        while self.current.kind == "IFF":
            self._advance()
            right = self.parse_implies()
            left = Iff(left, right)
        return left

    def parse_implies(self) -> Formula:
        """Parse the ``implies`` rule of the module's grammar."""
        left = self.parse_or()
        if self.current.kind == "IMPLIES":
            self._advance()
            right = self.parse_implies()  # right associative
            return Implies(left, right)
        return left

    def parse_or(self) -> Formula:
        """Parse the ``or`` rule of the module's grammar."""
        left = self.parse_and()
        while self.current.kind == "OR":
            self._advance()
            right = self.parse_and()
            left = Or(left, right)
        return left

    def parse_and(self) -> Formula:
        """Parse the ``and`` rule of the module's grammar."""
        left = self.parse_until()
        while self.current.kind == "AND":
            self._advance()
            right = self.parse_until()
            left = And(left, right)
        return left

    def parse_until(self) -> Formula:
        """Parse the ``until`` rule of the module's grammar."""
        left = self.parse_unary()
        if self.current.kind in ("UNTIL", "RELEASE"):
            op = self._advance()
            right = self.parse_until()  # right associative
            if op.kind == "UNTIL":
                return Until(left, right)
            return Release(left, right)
        return left

    def parse_unary(self) -> Formula:
        """Parse the ``unary`` rule of the module's grammar."""
        kind = self.current.kind
        if kind == "NOT":
            self._advance()
            return Not(self.parse_unary())
        if kind == "NEXT":
            self._advance()
            return Next(self.parse_unary())
        if kind == "EVENTUALLY":
            self._advance()
            return Eventually(self.parse_unary())
        if kind == "ALWAYS":
            self._advance()
            return Always(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Formula:
        """Parse the ``primary`` rule of the module's grammar."""
        tok = self.current
        if tok.kind == "TRUE":
            self._advance()
            return TRUE
        if tok.kind == "FALSE":
            self._advance()
            return FALSE
        if tok.kind == "NAME":
            self._advance()
            return Atom(tok.value)
        if tok.kind == "LPAREN":
            self._advance()
            inner = self.parse_iff()
            self._expect("RPAREN")
            return inner
        raise LTLSyntaxError(
            f"unexpected token {tok.value!r} ({tok.kind}) at position {tok.pos}"
        )


def parse(text: str) -> Formula:
    """Parse *text* into a :class:`repro.ltl.ast.Formula`.

    >>> from repro.ltl import parse
    >>> str(parse("G (p -> F q)"))
    'G((p -> F(q)))'
    """
    if not isinstance(text, str):
        raise TypeError("parse expects a string")
    tokens = _tokenize(text)
    # hash-cons the result: parsing the same formula twice (or two formulas
    # sharing subterms) yields shared interned nodes with cached hashes
    return intern_formula(_Parser(tokens).parse_formula())
