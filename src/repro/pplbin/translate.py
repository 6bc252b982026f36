"""Translations between variable-free Core XPath 2.0 and PPLbin.

Two directions are provided:

* :func:`from_core_xpath` — the linear-time translation of Fig. 4, mapping
  ``Core XPath 2.0 ∩ N($x)`` (no variables, no for-loops, no node
  comparisons other than ``. is .``) into PPLbin.  This is one half of
  Proposition 4.
* :func:`to_core_xpath` — the converse syntactic embedding of PPLbin back
  into Core XPath 2.0 (the other, "obvious" half of Proposition 4).  It is
  used as the correctness oracle for the matrix evaluator: the matrix of a
  PPLbin expression must equal the Fig. 2 semantics of its embedding.

Deviation from the paper (documented in DESIGN.md): Fig. 4 writes the
negative test case as ``[not P]_test = [except P]``.  Under the Fig. 2
semantics of the ``[.]`` operator that expression selects nodes having *some
non*-successor, not nodes having *no* successor.  We implement the intended
semantics ``self except [P]`` (expressed with the unary complement), and the
test-suite contains a regression test demonstrating the difference.
"""

from __future__ import annotations

from repro.errors import TranslationError
from repro.trees.axes import Axis
from repro.xpath import ast as x
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
    complement_filter,
    nodes_query,
)


def _spine(node: x._Expr, chains: dict) -> tuple[x._Expr, list]:
    """Walk down the left operands of a chain of ``chains`` operators.

    Returns the leftmost operand and the chain's operators, innermost
    first.  The parser builds ``/``, ``union``, ``intersect``/``except``,
    ``[]``, ``and`` and ``or`` chains left-deep in a loop, so the
    translations below walk them in a loop too and recurse only into right
    operands, as deep as the parser itself recursed.
    """
    spine = []
    while type(node) in chains:
        spine.append(node)
        node = node.path if type(node) is x.Filter else node.left
    spine.reverse()
    return node, spine


_PATH_CHAINS = {
    x.PathCompose: BCompose,
    x.PathUnion: BUnion,
    x.PathIntersect: binary_intersect,
    x.PathExcept: binary_except,
    x.Filter: BCompose,
}
_TEST_CHAINS = {x.AndTest: BCompose, x.OrTest: BUnion}
# de Morgan: not(T1 and T2) = not T1 or not T2, and the other way round.
_NEGATED_CHAINS = {x.AndTest: BUnion, x.OrTest: BCompose}


def from_core_xpath(expression: x.PathExpr) -> BinExpr:
    """Translate a variable-free Core XPath 2.0 path expression into PPLbin.

    Implements Fig. 4 of the paper.  The input must satisfy N($x): no
    variables, no for-loops and no comparisons other than ``. is .``.

    Raises
    ------
    TranslationError
        If the expression uses variables, for-loops or node comparisons
        involving variables.
    """
    node, spine = _spine(expression, _PATH_CHAINS)
    if isinstance(node, x.Step):
        result: BinExpr = BStep(node.axis, node.nametest)
    elif isinstance(node, x.ContextItem):
        result = SelfStep()
    elif isinstance(node, x.VarRef):
        raise TranslationError(
            f"variable ${node.name} is not allowed in PPLbin (condition N($x))"
        )
    elif isinstance(node, x.ForLoop):
        raise TranslationError("for-loops are not allowed in PPLbin (condition N($x))")
    else:
        raise TranslationError(f"cannot translate {node!r} into PPLbin")
    for parent in spine:
        if type(parent) is x.Filter:
            result = BCompose(result, test_to_pplbin(parent.test))
        else:
            result = _PATH_CHAINS[type(parent)](result, from_core_xpath(parent.right))
    return result


def test_to_pplbin(test: x.TestExpr) -> BinExpr:
    """Translate a variable-free test expression into a PPLbin partial identity.

    The result relates ``(v, v)`` exactly for the nodes ``v`` satisfying the
    test, so composing it on the right of a path implements the filter
    ``P[T]`` (Fig. 4's ``[T]_test`` translation).
    """
    node, spine = _spine(test, _TEST_CHAINS)
    if isinstance(node, x.PathTest):
        result = BFilter(from_core_xpath(node.path))
    elif isinstance(node, x.CompTest):
        if node.left != x.CONTEXT or node.right != x.CONTEXT:
            raise TranslationError(
                "node comparisons involving variables are not allowed in PPLbin"
            )
        result = SelfStep()
    elif isinstance(node, x.NotTest):
        result = _negate_test(node.test)
    else:
        raise TranslationError(f"cannot translate test {node!r} into PPLbin")
    for parent in spine:
        result = _TEST_CHAINS[type(parent)](result, test_to_pplbin(parent.right))
    return result


def _negate_test(test: x.TestExpr) -> BinExpr:
    """Translate ``not T`` by pushing the negation through the test structure."""
    node, spine = _spine(test, _NEGATED_CHAINS)
    if isinstance(node, x.PathTest):
        result = complement_filter(from_core_xpath(node.path))
    elif isinstance(node, x.CompTest):
        if node.left != x.CONTEXT or node.right != x.CONTEXT:
            raise TranslationError(
                "node comparisons involving variables are not allowed in PPLbin"
            )
        # not(. is .) holds nowhere.
        result = binary_except(SelfStep(), SelfStep())
    elif isinstance(node, x.NotTest):
        result = test_to_pplbin(node.test)
    else:
        raise TranslationError(f"cannot translate negated test {node!r} into PPLbin")
    for parent in spine:
        result = _NEGATED_CHAINS[type(parent)](result, _negate_test(parent.right))
    return result


def to_core_xpath(expression: BinExpr) -> x.PathExpr:
    """Embed a PPLbin expression back into Core XPath 2.0.

    The embedding interprets the unary complement ``except P`` as
    ``nodes except P`` where ``nodes`` is the universal relation expression
    of Section 2, and the filter ``[P]`` as ``.[P]``.
    """
    # Children first over an explicit stack, so a deep expression embeds
    # without recursing.
    done: dict[int, x.PathExpr] = {}
    stack: list[tuple[BinExpr, bool]] = [(expression, False)]
    while stack:
        node, expanded = stack.pop()
        if not isinstance(node, (BStep, SelfStep, BCompose, BUnion, BExcept, BFilter)):
            raise TranslationError(f"cannot embed {node!r} into Core XPath 2.0")
        if not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in node.children())
            continue
        parts = [done[id(child)] for child in node.children()]
        if isinstance(node, BStep):
            result = x.Step(node.axis, node.nametest)
        elif isinstance(node, SelfStep):
            result = x.ContextItem()
        elif isinstance(node, BCompose):
            result = x.PathCompose(*parts)
        elif isinstance(node, BUnion):
            result = x.PathUnion(*parts)
        elif isinstance(node, BExcept):
            result = x.PathExcept(x.nodes_expression(), *parts)
        else:
            result = x.Filter(x.ContextItem(), x.PathTest(*parts))
        done[id(node)] = result
    return done[id(expression)]


#: Re-export of the universal PPLbin query, named as in the paper.
NODES: BinExpr = nodes_query()

#: The root test as a PPLbin partial identity: nodes with no parent.
ROOT: BinExpr = binary_except(SelfStep(), BFilter(BStep(Axis.PARENT, None)))
