"""A small concrete syntax for FO formulas over trees.

Grammar (lowest to highest precedence)::

    formula  := quantified
    quantified := ('exists' | 'forall') NAME '.' quantified | or_expr
    or_expr  := and_expr ( 'or' and_expr )*
    and_expr := not_expr ( 'and' not_expr )*
    not_expr := 'not' not_expr | atom
    atom     := 'lab' '[' NAME ']' '(' NAME ')'
              | ('ch*' | 'ns*' | 'ch' | 'ns' | 'ch1' | 'ch2') '(' NAME ',' NAME ')'
              | NAME '=' NAME
              | '(' formula ')'

The syntax matches what :meth:`repro.fo.ast.Formula.unparse` produces, so
formulas round-trip through the parser.
"""

from __future__ import annotations

from repro.fo.ast import (
    And,
    ChStar,
    Child,
    Exists,
    FirstChild,
    Forall,
    Formula,
    Lab,
    NextSibling,
    Not,
    NsStar,
    Or,
    SecondChild,
    equality,
)
from repro.lexer import Lexer, TokenParser

_LEXER = Lexer(
    {
        "ch*": "chstar",
        "ns*": "nsstar",
        "(": "lparen",
        ")": "rparen",
        "[": "lbracket",
        "]": "rbracket",
        ",": "comma",
        ".": "dotsep",
        "=": "equals",
    },
    ("exists", "forall", "and", "or", "not", "lab", "ch", "ns", "ch1", "ch2"),
    r"[A-Za-z_]\w*",
)

_RELATIONS = {
    "chstar": ChStar,
    "nsstar": NsStar,
    "ch": Child,
    "ns": NextSibling,
    "ch1": FirstChild,
    "ch2": SecondChild,
}


class _Parser(TokenParser):
    lexer = _LEXER

    def parse_formula(self) -> Formula:
        if self.kind == "exists" or self.kind == "forall":
            keyword = self.advance()
            variable = self.expect("name")
            self.expect("dotsep")
            body = self.parse_formula()
            return Exists(variable, body) if keyword == "exists" else Forall(variable, body)
        return self.parse_or()

    def parse_or(self) -> Formula:
        left = self.parse_and()
        while self.kind == "or":
            self.advance()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> Formula:
        left = self.parse_not()
        while self.kind == "and":
            self.advance()
            left = And(left, self.parse_not())
        return left

    def parse_not(self) -> Formula:
        if self.kind == "not":
            self.advance()
            return Not(self.parse_not())
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        kind = self.kind
        if kind == "end":
            raise self.error("expected an atom")
        if kind == "lparen":
            self.advance()
            inner = self.parse_formula()
            self.expect("rparen")
            return inner
        if kind == "lab":
            self.advance()
            self.expect("lbracket")
            label = self.expect("name")
            self.expect("rbracket")
            self.expect("lparen")
            variable = self.expect("name")
            self.expect("rparen")
            return Lab(label, variable)
        if kind in _RELATIONS:
            self.advance()
            self.expect("lparen")
            source = self.expect("name")
            self.expect("comma")
            target = self.expect("name")
            self.expect("rparen")
            return _RELATIONS[kind](source, target)
        if kind == "name" and self.at("equals", 1):
            left = self.advance()
            self.advance()
            return equality(left, self.expect("name"))
        raise self.error(f"unexpected token {self.texts[self.index]!r} in FO formula")


def parse_fo(text: str) -> Formula:
    """Parse an FO formula from concrete syntax.

    Examples
    --------
    >>> phi = parse_fo("exists z. ch*(x,z) and lab[book](z)")
    >>> sorted(phi.free_variables)
    ['x']
    """
    parser = _Parser(text)
    formula = parser.parse_formula()
    parser.finish()
    return formula
