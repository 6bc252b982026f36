"""Linear-time set-based evaluation for Core XPath 1.0 (the except-free fragment).

Section 4 of the paper recalls the main evaluation trick of Gottlob, Koch and
Pichler: the set of successors ``S_a(N) = {u' | exists u in N, a(u, u')}`` of
a node set ``N`` along a standard axis ``a`` is computable in time O(|t|).
Extending this to whole expressions gives linear-time monadic query answering
for Core XPath 1.0 and a quadratic binary algorithm — but the trick does not
extend to the complement operator, which is why PPLbin needs the cubic matrix
algorithm of Theorem 2.  This module implements the set-based evaluator as
the baseline for experiment E8.

Only complement-free PPLbin expressions are accepted
(:class:`repro.errors.EvaluationError` otherwise).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import EvaluationError
from repro.trees.axes import Axis, axis_image
from repro.trees.tree import Tree
from repro.pplbin.ast import (
    BCompose,
    BExcept,
    BFilter,
    BinExpr,
    BStep,
    BUnion,
    SelfStep,
)
from repro.pplbin.parser import parse_pplbin

NodeSet = frozenset


def axis_successor_set(tree: Tree, axis: Axis, sources: Iterable[int]) -> frozenset[int]:
    """Return ``S_axis(N)`` in time O(|t|): one vectorised pass over the tree.

    See :func:`repro.trees.axes.axis_image`.
    """
    mask = np.zeros(tree.size, dtype=bool)
    mask[np.fromiter(sources, dtype=np.int64)] = True
    return frozenset(np.flatnonzero(axis_image(tree, axis, mask)).tolist())


def successor_set(tree: Tree, expression: BinExpr | str, sources: Iterable[int]) -> frozenset[int]:
    """Return ``S_P(N)`` for a complement-free PPLbin expression ``P``.

    Raises
    ------
    EvaluationError
        If the expression contains the ``except`` operator, for which the
        set-based trick is unsound (``S_{except P}(N) != S_P(N)`` in general,
        as Section 4 points out).
    """
    parsed = parse_pplbin(expression) if isinstance(expression, str) else expression
    return _successors(tree, parsed, frozenset(sources))


def _successors(tree: Tree, expression: BinExpr, sources: frozenset[int]) -> frozenset[int]:
    if isinstance(expression, BExcept):
        raise EvaluationError(
            "the set-based Core XPath 1.0 evaluator does not support 'except'"
        )
    if isinstance(expression, BStep):
        targets = axis_successor_set(tree, expression.axis, sources)
        if expression.nametest is None:
            return targets
        return frozenset(t for t in targets if tree.labels[t] == expression.nametest)
    if isinstance(expression, SelfStep):
        return sources
    if isinstance(expression, BCompose):
        return _successors(tree, expression.right, _successors(tree, expression.left, sources))
    if isinstance(expression, BUnion):
        return _successors(tree, expression.left, sources) | _successors(
            tree, expression.right, sources
        )
    if isinstance(expression, BFilter):
        return sources & satisfying_nodes(tree, expression.operand)
    raise EvaluationError(f"unknown PPLbin expression {expression!r}")


def satisfying_nodes(tree: Tree, expression: BinExpr | str) -> frozenset[int]:
    """Return the nodes from which ``expression`` can reach some node.

    Computed by evaluating the *inverted* expression from all nodes, which
    keeps the whole computation inside the set-based (linear per operator)
    regime.
    """
    parsed = parse_pplbin(expression) if isinstance(expression, str) else expression
    inverted = invert(parsed)
    return _successors(tree, inverted, frozenset(tree.nodes()))


_INVERSE = {
    Axis.SELF: Axis.SELF,
    Axis.CHILD: Axis.PARENT,
    Axis.PARENT: Axis.CHILD,
    Axis.DESCENDANT: Axis.ANCESTOR,
    Axis.ANCESTOR: Axis.DESCENDANT,
    Axis.DESCENDANT_OR_SELF: Axis.ANCESTOR_OR_SELF,
    Axis.ANCESTOR_OR_SELF: Axis.DESCENDANT_OR_SELF,
    Axis.FOLLOWING_SIBLING: Axis.PRECEDING_SIBLING,
    Axis.PRECEDING_SIBLING: Axis.FOLLOWING_SIBLING,
    Axis.FOLLOWING: Axis.PRECEDING,
    Axis.PRECEDING: Axis.FOLLOWING,
    Axis.FIRST_CHILD: Axis.PARENT,
    Axis.NEXT_SIBLING: Axis.PREVIOUS_SIBLING,
    Axis.PREVIOUS_SIBLING: Axis.NEXT_SIBLING,
}


def invert(expression: BinExpr) -> BinExpr:
    """Return an expression denoting the inverse relation (complement-free only).

    Name tests move to a filter on the source side when inverting a step,
    because the original step tests its *target* label.
    """
    if isinstance(expression, BStep):
        if expression.axis is Axis.FIRST_CHILD:
            raise EvaluationError(
                "the firstchild axis cannot be inverted without negation; "
                "use the matrix evaluator for expressions filtering on it"
            )
        if expression.axis is Axis.SELF:
            # self::N is its own inverse (source equals target).
            return expression
        inverse_step = BStep(_INVERSE[expression.axis], None)
        if expression.nametest is None:
            return inverse_step
        label_filter = BFilter(BStep(Axis.SELF, expression.nametest))
        return BCompose(label_filter, inverse_step)
    if isinstance(expression, SelfStep):
        return expression
    if isinstance(expression, BCompose):
        return BCompose(invert(expression.right), invert(expression.left))
    if isinstance(expression, BUnion):
        return BUnion(invert(expression.left), invert(expression.right))
    if isinstance(expression, BFilter):
        return expression
    if isinstance(expression, BExcept):
        raise EvaluationError("cannot invert an expression containing 'except'")
    raise EvaluationError(f"unknown PPLbin expression {expression!r}")


def monadic_answer(tree: Tree, expression: BinExpr | str, start: int | None = None) -> frozenset[int]:
    """Answer the monadic query of ``expression`` from ``start`` (default: root).

    This is Core XPath 1.0's standard use: select the nodes reachable from
    the document root, in combined linear time.
    """
    origin = tree.root() if start is None else start
    return successor_set(tree, expression, [origin])


def binary_relation(tree: Tree, expression: BinExpr | str):
    """The binary query as a :class:`repro.pplbin.bitmatrix.SparseRelation`.

    Runs the monadic evaluator from every node (quadratic in |t|, the
    Section 4 bound) and assembles the rows into the sparse successor-set
    representation — the set-based baseline thereby produces the same
    normalised relation values as the matrix kernels, so E8/E9 compare and
    cross-check them directly.
    """
    from repro.pplbin import bitmatrix

    parsed = parse_pplbin(expression) if isinstance(expression, str) else expression
    return bitmatrix.relation_from_rows(
        tree.size,
        (_successors(tree, parsed, frozenset([node])) for node in tree.nodes()),
    )


def binary_answer(tree: Tree, expression: BinExpr | str) -> frozenset[tuple[int, int]]:
    """Answer the binary query by running the monadic evaluator from every node.

    Quadratic in |t| (the bound quoted in Section 4 for Core XPath 1.0).
    """
    return binary_relation(tree, expression).pairs()
