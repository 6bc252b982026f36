"""Abstract syntax of Core XPath 2.0 (Fig. 1 of the paper).

Path expressions denote binary relations over tree nodes, test expressions
denote node sets (Fig. 2).  Every AST class is an immutable value object with
structural equality, a ``size`` (number of AST nodes, the paper's ``|P|``),
a ``free_variables`` set and an ``unparse`` method producing concrete syntax
accepted back by :func:`repro.xpath.parser.parse_path`.

Node references (the ``NodeRef`` production) are represented as follows: the
context item ``.`` is the string constant :data:`CONTEXT`, a variable ``$x``
is its bare name ``"x"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.annotated import Annotated
from repro.trees.axes import Axis

#: Sentinel used in comparison tests for the context item ``.``.
CONTEXT = "."


class _Expr(Annotated):
    """Shared helpers for path and test expressions.

    ``size`` is the paper's term size ``|P|`` and ``free_variables`` the
    set ``Var(P)``; both are filled for a whole expression in one pass
    (:func:`repro.annotated.annotate`).
    """

    def unparse(self) -> str:
        """Return concrete syntax for the expression."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.unparse()


class PathExpr(_Expr):
    """Base class of path expressions (binary relations over nodes)."""


class TestExpr(_Expr):
    """Base class of test expressions (node sets)."""


# --------------------------------------------------------------------- paths
@dataclass(frozen=True)
class Step(PathExpr):
    """An axis step ``Axis::NameTest``; ``nametest`` of ``None`` means ``*``."""

    axis: Axis
    nametest: Optional[str] = None

    def unparse(self) -> str:
        test = self.nametest if self.nametest is not None else "*"
        return f"{self.axis.value}::{test}"


@dataclass(frozen=True)
class ContextItem(PathExpr):
    """The context item ``.`` — the identity relation on nodes."""

    def unparse(self) -> str:
        return "."


@dataclass(frozen=True)
class VarRef(PathExpr):
    """A variable reference ``$x`` — jump from any node to the node bound to x."""

    name: str

    def _note(self, children: tuple) -> None:
        self.__dict__.update(size=1, free_variables=frozenset((self.name,)))

    def unparse(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class PathCompose(PathExpr):
    """Path composition ``P1/P2`` (relational composition)."""

    left: PathExpr
    right: PathExpr

    def children(self) -> tuple[_Expr, ...]:
        return (self.left, self.right)

    def unparse(self) -> str:
        return _unparse_chain(self)


@dataclass(frozen=True)
class PathUnion(PathExpr):
    """Path union ``P1 union P2``."""

    left: PathExpr
    right: PathExpr

    def children(self) -> tuple[_Expr, ...]:
        return (self.left, self.right)

    def unparse(self) -> str:
        return _unparse_chain(self)


@dataclass(frozen=True)
class PathIntersect(PathExpr):
    """Path intersection ``P1 intersect P2``."""

    left: PathExpr
    right: PathExpr

    def children(self) -> tuple[_Expr, ...]:
        return (self.left, self.right)

    def unparse(self) -> str:
        return _unparse_chain(self)


@dataclass(frozen=True)
class PathExcept(PathExpr):
    """Path difference ``P1 except P2``."""

    left: PathExpr
    right: PathExpr

    def children(self) -> tuple[_Expr, ...]:
        return (self.left, self.right)

    def unparse(self) -> str:
        return _unparse_chain(self)


@dataclass(frozen=True)
class Filter(PathExpr):
    """A filtered path ``P[T]``: keep pairs whose target satisfies the test."""

    path: PathExpr
    test: TestExpr

    def children(self) -> tuple[_Expr, ...]:
        return (self.path, self.test)

    def unparse(self) -> str:
        return _unparse_chain(self)


@dataclass(frozen=True)
class ForLoop(PathExpr):
    """The quantifier ``for $x in P1 return P2``.

    The variable is bound in ``P2`` only (as in the paper's semantics, the
    source expression ``P1`` is evaluated under the outer assignment).
    """

    variable: str
    source: PathExpr
    body: PathExpr

    def children(self) -> tuple[_Expr, ...]:
        return (self.source, self.body)

    def _note(self, children: tuple) -> None:
        self.__dict__.update(
            size=1 + self.source.size + self.body.size,
            free_variables=self.source.free_variables
            | (self.body.free_variables - {self.variable}),
        )

    def unparse(self) -> str:
        return (
            f"(for ${self.variable} in {self.source.unparse()} "
            f"return {self.body.unparse()})"
        )


# --------------------------------------------------------------------- tests
@dataclass(frozen=True)
class PathTest(TestExpr):
    """A path expression used as a test: satisfied where the path can start."""

    path: PathExpr

    def children(self) -> tuple[_Expr, ...]:
        return (self.path,)

    def unparse(self) -> str:
        return self.path.unparse()


@dataclass(frozen=True)
class CompTest(TestExpr):
    """A node comparison ``NodeRef is NodeRef``.

    Each side is either :data:`CONTEXT` (the string ``"."``) or a variable
    name (without the ``$`` sigil).
    """

    left: str
    right: str

    def _note(self, children: tuple) -> None:
        names = frozenset(side for side in (self.left, self.right) if side != CONTEXT)
        self.__dict__.update(size=1, free_variables=names)

    def unparse(self) -> str:
        left = "." if self.left == CONTEXT else f"${self.left}"
        right = "." if self.right == CONTEXT else f"${self.right}"
        return f"{left} is {right}"


@dataclass(frozen=True)
class NotTest(TestExpr):
    """Negated test ``not T``."""

    test: TestExpr

    def children(self) -> tuple[_Expr, ...]:
        return (self.test,)

    def unparse(self) -> str:
        return f"not({self.test.unparse()})"


@dataclass(frozen=True)
class AndTest(TestExpr):
    """Conjunction of tests ``T1 and T2``."""

    left: TestExpr
    right: TestExpr

    def children(self) -> tuple[_Expr, ...]:
        return (self.left, self.right)

    def unparse(self) -> str:
        return _unparse_chain(self)


@dataclass(frozen=True)
class OrTest(TestExpr):
    """Disjunction of tests ``T1 or T2``."""

    left: TestExpr
    right: TestExpr

    def children(self) -> tuple[_Expr, ...]:
        return (self.left, self.right)

    def unparse(self) -> str:
        return _unparse_chain(self)


NodeExpr = Union[PathExpr, TestExpr]


#: ``(opening, infix, closing)`` syntax of the operators the parser chains.
_CHAIN_SYNTAX = {
    PathCompose: ("", "/", ""),
    PathUnion: ("(", " union ", ")"),
    PathIntersect: ("(", " intersect ", ")"),
    PathExcept: ("(", " except ", ")"),
    Filter: ("", "[", "]"),
    AndTest: ("(", " and ", ")"),
    OrTest: ("(", " or ", ")"),
}


def _unparse_chain(expression: _Expr) -> str:
    """Concrete syntax of a chained operator, walked down its left spine.

    The parser builds ``/``, ``union``, ``intersect``/``except``, ``[]``,
    ``and`` and ``or`` chains left-deep in a loop; rendering one here in a
    loop joins its pieces once, so a chain of any length takes linear time
    and does not deepen the stack.  Only right operands recurse.
    """
    kind = type(expression)
    if kind is Filter:
        left, right = expression.path, expression.test
    else:
        left, right = expression.left, expression.right
    opening, infix, closing = _CHAIN_SYNTAX[kind]
    if type(left) not in _CHAIN_SYNTAX:
        return f"{opening}{left.unparse()}{infix}{right.unparse()}{closing}"
    spine = [expression]
    node = left
    while type(node) in _CHAIN_SYNTAX:
        spine.append(node)
        node = node.path if type(node) is Filter else node.left
    pieces = [_CHAIN_SYNTAX[type(parent)][0] for parent in spine]
    pieces.append(node.unparse())
    for parent in reversed(spine):
        _, infix, closing = _CHAIN_SYNTAX[type(parent)]
        right = parent.test if type(parent) is Filter else parent.right
        pieces += (infix, right.unparse(), closing)
    return "".join(pieces)


# ------------------------------------------------------------------ builders
def steps(*parts: PathExpr) -> PathExpr:
    """Compose path expressions left to right with ``/``."""
    if not parts:
        raise ValueError("steps() requires at least one path expression")
    result = parts[0]
    for part in parts[1:]:
        result = PathCompose(result, part)
    return result


def union_all(*parts: PathExpr) -> PathExpr:
    """Union of one or more path expressions."""
    if not parts:
        raise ValueError("union_all() requires at least one path expression")
    result = parts[0]
    for part in parts[1:]:
        result = PathUnion(result, part)
    return result


def nodes_expression() -> PathExpr:
    """The paper's ``nodes`` expression reaching every node of the tree.

    ``(ancestor::* union .)/(descendant::* union .)`` — from any start node,
    the relation contains every pair of nodes.
    """
    up = PathUnion(Step(Axis.ANCESTOR, None), ContextItem())
    down = PathUnion(Step(Axis.DESCENDANT, None), ContextItem())
    return PathCompose(up, down)


def root_anchor(variable: str | None = None) -> PathExpr:
    """The paper's root-anchoring prefix ``.[. is $x and not(parent::*)]``.

    When ``variable`` is ``None`` the variable test is dropped and the prefix
    merely constrains the start of navigation to the root.
    """
    no_parent = NotTest(PathTest(Step(Axis.PARENT, None)))
    if variable is None:
        return Filter(ContextItem(), no_parent)
    return Filter(ContextItem(), AndTest(CompTest(CONTEXT, variable), no_parent))
