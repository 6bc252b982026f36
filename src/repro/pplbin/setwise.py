"""Set-at-a-time access to PPLbin binary queries (the Fig. 8 oracle path).

Proposition 10's MC table and the Fig. 8 ``vals`` procedure only ever ask a
leaf ``b`` three questions about whole node sets:

* :func:`preimage` — ``{u | exists v in S: (u, v) in q_b(t)}`` for a set
  ``S`` of targets (one MC column from the tail's column);
* :func:`image` — ``{v | exists u in S: (u, v) in q_b(t)}`` (the start
  nodes a leaf hands to its tail when no one needs to know which source
  reached them);
* :func:`edges` — the pairs of ``q_b(t)`` from a set of sources into a set
  of targets (the leaf rows ``vals`` joins with the tail's valuations).

All three recurse over the expression with the set-based trick of Section 4
(Gottlob, Koch and Pichler): a step is an O(|t|) vector operation over the
tree's arrays (:func:`repro.trees.axes.axis_preimage`,
:func:`repro.trees.axes.axis_image`, :func:`repro.trees.axes.axis_edges`;
listing edges also pays for its output), a composition nests, a union ORs and a
filter ``[P]`` masks with ``preimage(P, all nodes)``.  The trick does not
extend to the complement, so an ``except`` sub-expression falls back to its
Theorem 2 relation, supplied by the caller as ``relation(expr)``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import EvaluationError
from repro.pplbin import bitmatrix as bx
from repro.pplbin.ast import BCompose, BExcept, BFilter, BinExpr, BStep, BUnion, SelfStep
from repro.trees.axes import axis_edges, axis_image, axis_preimage, equijoin, label_vector
from repro.trees.tree import Tree

RelationFn = Callable[[BinExpr], bx.Relation]
Pairs = tuple[np.ndarray, np.ndarray]

_NONE = np.zeros(0, dtype=np.int64)


def unique_pairs(us: np.ndarray, vs: np.ndarray, size: int) -> Pairs:
    """Drop repeated ``(u, v)`` pairs (node ids below ``size``)."""
    keys = np.unique(us * size + vs)
    return keys // size, keys % size


def _step_targets(tree: Tree, step: BStep, targets: np.ndarray) -> np.ndarray:
    bx._count("set_steps")
    if step.nametest is None:
        return targets
    return targets & label_vector(tree, step.nametest)


def _chain(expression: BinExpr, operator: type) -> list[BinExpr]:
    """The operands of a chain of one associative ``operator``, left to right.

    Walked with an explicit stack, so set-at-a-time steps over a long
    composition or union recurse only into its operands.
    """
    parts: list[BinExpr] = []
    stack = [expression]
    while stack:
        node = stack.pop()
        if isinstance(node, operator):
            stack.append(node.right)
            stack.append(node.left)
        else:
            parts.append(node)
    return parts


def preimage(
    tree: Tree, expression: BinExpr, targets: np.ndarray, relation: RelationFn
) -> np.ndarray:
    """Return the Boolean vector of nodes with a successor in ``targets``."""
    if isinstance(expression, BStep):
        return axis_preimage(tree, expression.axis, _step_targets(tree, expression, targets))
    if isinstance(expression, SelfStep):
        return targets
    if isinstance(expression, BCompose):
        for part in reversed(_chain(expression, BCompose)):
            targets = preimage(tree, part, targets, relation)
        return targets
    if isinstance(expression, BUnion):
        parts = iter(_chain(expression, BUnion))
        result = preimage(tree, next(parts), targets, relation)
        for part in parts:
            result = result | preimage(tree, part, targets, relation)
        return result
    if isinstance(expression, BFilter):
        everything = np.ones(tree.size, dtype=bool)
        return targets & preimage(tree, expression.operand, everything, relation)
    if isinstance(expression, BExcept):
        return relation(expression).to_dense()[:, targets].any(axis=1)
    raise EvaluationError(f"unknown PPLbin expression {expression!r}")


def image(
    tree: Tree, expression: BinExpr, sources: np.ndarray, relation: RelationFn
) -> np.ndarray:
    """Return the Boolean vector of nodes with a predecessor in ``sources``."""
    if isinstance(expression, BStep):
        reached = axis_image(tree, expression.axis, sources)
        return _step_targets(tree, expression, reached)
    if isinstance(expression, SelfStep):
        return sources
    if isinstance(expression, BCompose):
        for part in _chain(expression, BCompose):
            sources = image(tree, part, sources, relation)
        return sources
    if isinstance(expression, BUnion):
        parts = iter(_chain(expression, BUnion))
        result = image(tree, next(parts), sources, relation)
        for part in parts:
            result = result | image(tree, part, sources, relation)
        return result
    if isinstance(expression, BFilter):
        everything = np.ones(tree.size, dtype=bool)
        return sources & preimage(tree, expression.operand, everything, relation)
    if isinstance(expression, BExcept):
        return relation(expression).to_dense()[sources].any(axis=0)
    raise EvaluationError(f"unknown PPLbin expression {expression!r}")


def edges(
    tree: Tree,
    expression: BinExpr,
    sources: np.ndarray,
    targets: np.ndarray,
    relation: RelationFn,
) -> Pairs:
    """Return ``(us, vs)``: every pair of the query from ``sources`` into ``targets``.

    Each pair occurs once.  A composition joins the left operand's pairs
    into the right operand's pre-image with the right operand's pairs on
    the middle node.
    """
    if isinstance(expression, BStep):
        return axis_edges(
            tree, expression.axis, sources, _step_targets(tree, expression, targets)
        )
    if isinstance(expression, (SelfStep, BFilter)):
        both = sources & targets
        if isinstance(expression, BFilter):
            everything = np.ones(tree.size, dtype=bool)
            both &= preimage(tree, expression.operand, everything, relation)
        nodes = np.flatnonzero(both)
        return nodes, nodes
    if isinstance(expression, BCompose):
        middle = preimage(tree, expression.right, targets, relation)
        us, mids = edges(tree, expression.left, sources, middle, relation)
        if not us.size:
            return _NONE, _NONE
        reached = np.zeros(tree.size, dtype=bool)
        reached[mids] = True
        starts, vs = edges(tree, expression.right, reached, targets, relation)
        left, right = equijoin(mids, starts)
        return unique_pairs(us[left], vs[right], tree.size)
    if isinstance(expression, BUnion):
        lu, lv = edges(tree, expression.left, sources, targets, relation)
        ru, rv = edges(tree, expression.right, sources, targets, relation)
        return unique_pairs(np.concatenate([lu, ru]), np.concatenate([lv, rv]), tree.size)
    if isinstance(expression, BExcept):
        dense = relation(expression).to_dense()
        rows = np.flatnonzero(sources)
        cols = np.flatnonzero(targets)
        hit_rows, hit_cols = np.nonzero(dense[np.ix_(rows, cols)])
        return rows[hit_rows], cols[hit_cols]
    raise EvaluationError(f"unknown PPLbin expression {expression!r}")
