"""Concrete-syntax parser for Core XPath 2.0 (Fig. 1).

The grammar follows the paper's Fig. 1 with the usual XPath precedences:

* ``for $x in P return P`` binds weakest,
* then ``union``,
* then ``intersect`` / ``except``,
* then path composition ``/``,
* then postfix filters ``[T]``,
* primaries are steps ``axis::nametest``, the context item ``.``, variables
  ``$x`` and parenthesised expressions.

Test expressions use ``or`` < ``and`` < ``not`` < atoms, where an atom is a
node comparison ``NodeRef is NodeRef``, a parenthesised test, or a path
expression.  Both ``not T`` and ``not(T)`` spellings are accepted.

Abbreviated XPath syntax (``//``, leading ``/``, bare name tests) is *not*
part of Core XPath and is not accepted; the paper's explicit axis syntax must
be used.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.lexer import PATH_NAME, PATH_SYMBOLS, Lexer, TokenParser
from repro.trees.axes import parse_axis
from repro.trees.tree import Tree  # noqa: F401  (re-exported for convenience in docs)
from repro.xpath.ast import (
    CONTEXT,
    AndTest,
    CompTest,
    ContextItem,
    Filter,
    ForLoop,
    NotTest,
    OrTest,
    PathCompose,
    PathExcept,
    PathExpr,
    PathIntersect,
    PathTest,
    PathUnion,
    Step,
    TestExpr,
    VarRef,
)

_LEXER = Lexer(
    PATH_SYMBOLS,
    ("union", "intersect", "except", "for", "in", "return", "and", "or", "not", "is"),
    PATH_NAME,
    sigil="$",
)

#: Tokens that only a test can hold: a parenthesised group holding one of
#: them outside nested brackets cannot be a path.
_TEST_ONLY = frozenset({"and", "or", "not", "is"})


class _Parser(TokenParser):
    """Recursive-descent parser over the token stream."""

    lexer = _LEXER

    def __init__(self, text: str) -> None:
        super().__init__(text)
        self._verdicts: dict[int, bool] = {}

    # ------------------------------------------------------------------ path
    def parse_path(self) -> PathExpr:
        if self.kind == "for":
            self.skip()
            variable = self.expect("variable")
            self.expect("in")
            source = self.parse_path()
            self.expect("return")
            body = self.parse_path()
            return ForLoop(variable[1:], source, body)
        left = self.parse_intersect_except()
        while self.kind == "union":
            self.skip()
            left = PathUnion(left, self.parse_intersect_except())
        return left

    def parse_intersect_except(self) -> PathExpr:
        left = self.parse_composition()
        while self.kind == "intersect" or self.kind == "except":
            operator = self.kind
            self.skip()
            right = self.parse_composition()
            if operator == "intersect":
                left = PathIntersect(left, right)
            else:
                left = PathExcept(left, right)
        return left

    def parse_composition(self) -> PathExpr:
        left = self.parse_filtered()
        while self.kind == "slash":
            self.skip()
            left = PathCompose(left, self.parse_filtered())
        return left

    def parse_filtered(self) -> PathExpr:
        """A primary (step, ``.``, variable or parenthesised path) and its filters."""
        kind = self.kind
        if kind == "name":
            expression = self.parse_step()
        elif kind == "dot":
            self.skip()
            expression = ContextItem()
        elif kind == "variable":
            expression = VarRef(self.texts[self.index][1:])
            self.skip()
        elif kind == "lparen":
            self.skip()
            expression = self.parse_path()
            self.expect("rparen")
        elif kind == "end":
            raise self.error("expected a path expression")
        else:
            raise self.error(f"unexpected token {self.texts[self.index]!r} in path expression")
        while self.kind == "lbracket":
            self.skip()
            test = self.parse_test()
            self.expect("rbracket")
            expression = Filter(expression, test)
        return expression

    def parse_step(self) -> PathExpr:
        start = self.index
        kinds = self.kinds
        axis_name = self.texts[start]
        if kinds[start + 1] != "axis_sep":
            raise ParseError(
                f"expected '::' after axis name {axis_name!r} "
                "(Core XPath requires explicit axes)",
                self.position(start),
            )
        try:
            axis = parse_axis(axis_name)
        except Exception as exc:  # noqa: BLE001 - re-raise as ParseError
            raise ParseError(str(exc), self.position(start)) from exc
        self.index = start + 2
        self.kind = kinds[start + 2]
        if self.kind == "star":
            self.skip()
            return Step(axis, None)
        return Step(axis, self.expect("name"))

    # ----------------------------------------------------------------- tests
    def parse_test(self) -> TestExpr:
        left = self.parse_and_test()
        while self.kind == "or":
            self.skip()
            left = OrTest(left, self.parse_and_test())
        return left

    def parse_and_test(self) -> TestExpr:
        left = self.parse_not_test()
        while self.kind == "and":
            self.skip()
            left = AndTest(left, self.parse_not_test())
        return left

    def parse_not_test(self) -> TestExpr:
        if self.kind == "not":
            self.skip()
            if self.kind == "lparen":
                # Accept both `not(T)` and `not T`; the parenthesised form is
                # parsed as a test atom, which handles either a pure test or a
                # path expression inside the parentheses.
                return NotTest(self.parse_test_atom())
            return NotTest(self.parse_not_test())
        return self.parse_test_atom()

    def parse_test_atom(self) -> TestExpr:
        kind = self.kind
        # Node comparison: NodeRef is NodeRef.
        if (kind == "dot" or kind == "variable") and self.kinds[self.index + 1] == "is":
            left = CONTEXT if kind == "dot" else self.texts[self.index][1:]
            self.index += 2
            self.kind = self.kinds[self.index]
            return CompTest(left, self._parse_noderef())
        if kind == "lparen":
            # Could be a parenthesised test (containing and/or/not/is) or a
            # parenthesised path expression; try the path route first because
            # it may continue with '/' after the closing parenthesis, and
            # fall back to a test on failure.  A group that holds a test-only
            # token cannot parse as a path, so it skips the path route.
            saved = self.index
            if not self._not_a_path(saved):
                try:
                    return PathTest(self.parse_path())
                except ParseError:
                    self.index, self.kind = saved, kind
            self.skip()  # consume '('
            inner = self.parse_test()
            self.expect("rparen")
            return inner
        return PathTest(self.parse_path())

    def _not_a_path(self, start: int) -> bool:
        """Whether the group opened by the '(' at ``start`` cannot be a path.

        It cannot when an ``and``, ``or``, ``not`` or ``is`` sits in it
        outside nested brackets, or when a group directly inside it cannot.
        The scan stops at the first such token; every group it passes to
        the end is remembered, so no token is scanned twice.
        """
        verdicts = self._verdicts
        if start in verdicts:
            return verdicts[start]
        kinds = self.kinds
        open_groups = [start]
        failing: set[int] = set()
        index = start
        while open_groups:
            index += 1
            kind = kinds[index]
            if kind == "lparen" or kind == "lbracket":
                open_groups.append(index)
            elif kind == "rparen" or kind == "rbracket":
                closed = open_groups.pop()
                if kinds[closed] == "lparen":
                    verdicts[closed] = closed in failing
                    if verdicts[closed] and open_groups and kinds[open_groups[-1]] == "lparen":
                        failing.add(open_groups[-1])
            elif kind in _TEST_ONLY and kinds[open_groups[-1]] == "lparen":
                if open_groups[-1] == start:
                    verdicts[start] = True
                    return True
                failing.add(open_groups[-1])
            elif kind == "end":
                return False  # unbalanced: let the path route report it
        return verdicts[start]

    def _parse_noderef(self) -> str:
        start = self.index
        text = self.advance()
        kind = self.kinds[start]
        if kind == "dot":
            return CONTEXT
        if kind == "variable":
            return text[1:]
        raise ParseError(f"expected '.' or a variable, found {text!r}", self.position(start))


def parse_path(text: str) -> PathExpr:
    """Parse a Core XPath 2.0 path expression from concrete syntax.

    Examples
    --------
    >>> expr = parse_path("descendant::book[child::author[. is $y]]")
    >>> sorted(expr.free_variables)
    ['y']
    """
    parser = _Parser(text)
    expression = parser.parse_path()
    parser.finish()
    return expression


def parse_test(text: str) -> TestExpr:
    """Parse a Core XPath 2.0 test expression from concrete syntax."""
    parser = _Parser(text)
    expression = parser.parse_test()
    parser.finish()
    return expression
