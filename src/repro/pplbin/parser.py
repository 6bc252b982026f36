"""Concrete-syntax parser for PPLbin (Fig. 3).

Grammar (lowest to highest precedence)::

    union_expr   := except_expr ( ('union' | 'intersect' | 'except') except_expr )*
    except_expr  := 'except' except_expr | composition
    composition  := filtered ( '/' filtered )*
    filtered     := primary ( '[' union_expr ']' )*
    primary      := 'self' | '.' | Axis '::' NameTest | '(' union_expr ')'
                  | '[' union_expr ']'

Binary ``intersect`` and binary ``except`` are accepted as syntactic sugar
and expanded through the derived forms of Section 2 / Fig. 4, so the parsed
AST only ever contains the Fig. 3 operators.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.lexer import PATH_NAME, PATH_SYMBOLS, Lexer, TokenParser
from repro.trees.axes import parse_axis
from repro.pplbin.ast import (
    BCompose,
    BExcept,
    BFilter,
    BinExpr,
    BStep,
    BUnion,
    SelfStep,
    binary_except,
    binary_intersect,
)

_LEXER = Lexer(
    PATH_SYMBOLS,
    ("union", "intersect", "except", "self"),
    PATH_NAME,
)


class _Parser(TokenParser):
    lexer = _LEXER

    # -------------------------------------------------------------- grammar
    def parse_union(self) -> BinExpr:
        left = self.parse_prefix()
        while self.kind in ("union", "intersect", "except"):
            operator = self.kind
            self.advance()
            right = self.parse_prefix()
            if operator == "union":
                left = BUnion(left, right)
            elif operator == "intersect":
                left = binary_intersect(left, right)
            else:
                left = binary_except(left, right)
        return left

    def parse_prefix(self) -> BinExpr:
        if self.kind == "except":
            self.advance()
            return BExcept(self.parse_prefix())
        return self.parse_composition()

    def parse_composition(self) -> BinExpr:
        left = self.parse_filtered()
        while self.kind == "slash":
            self.advance()
            left = BCompose(left, self.parse_filtered())
        return left

    def parse_filtered(self) -> BinExpr:
        expression = self.parse_primary()
        while self.kind == "lbracket":
            self.advance()
            inner = self.parse_union()
            self.expect("rbracket")
            expression = BCompose(expression, BFilter(inner))
        return expression

    def parse_primary(self) -> BinExpr:
        kind = self.kind
        if kind == "self" and self.at("axis_sep", 1):
            return self.parse_step()
        if kind in ("self", "dot"):
            self.advance()
            return SelfStep()
        if kind == "lparen":
            self.advance()
            inner = self.parse_union()
            self.expect("rparen")
            return inner
        if kind == "lbracket":
            self.advance()
            inner = self.parse_union()
            self.expect("rbracket")
            return BFilter(inner)
        if kind == "name":
            return self.parse_step()
        if kind == "end":
            raise self.error("expected a PPLbin expression")
        raise self.error(f"unexpected token {self.texts[self.index]!r}")

    def parse_step(self) -> BinExpr:
        start = self.index
        axis_name = self.advance()
        if self.kind != "axis_sep":
            raise ParseError(
                f"expected '::' after axis name {axis_name!r}", self.position(start)
            )
        self.advance()
        try:
            axis = parse_axis(axis_name)
        except Exception as exc:  # noqa: BLE001 - re-raise as ParseError
            raise ParseError(str(exc), self.position(start)) from exc
        if self.kind == "star":
            self.advance()
            return BStep(axis, None)
        return BStep(axis, self.expect("name"))


def parse_pplbin(text: str) -> BinExpr:
    """Parse a PPLbin expression from concrete syntax.

    Examples
    --------
    >>> expr = parse_pplbin("descendant::book/child::author")
    >>> expr.size
    3
    """
    parser = _Parser(text)
    expression = parser.parse_union()
    parser.finish()
    return expression
