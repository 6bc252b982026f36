"""The Fig. 7 / Proposition 5 translations: PPL ⟷ HCL⁻(PPLbin).

``ppl_to_hcl`` is the workhorse of the polynomial engine: it maps a PPL
expression (checked by :mod:`repro.core.ppl`) into a hybrid composition
formula over PPLbin leaves, following Fig. 7 of the paper:

* axis steps and the context item become PPLbin leaves;
* ``$x`` becomes ``nodes/x`` (jump anywhere, then test the variable);
* compositions, unions and filters translate homomorphically;
* ``intersect`` / ``except`` sub-expressions and negated tests are variable
  free (by NV(intersect) / NV(except) / NV(not)), so the whole sub-expression
  is translated into a single PPLbin leaf through Fig. 4;
* comparison tests become variable formulas: ``[. is $x]`` is the HCL
  variable ``x``; ``[$x is $y]`` becomes ``[x/y]`` (see DESIGN.md).

``hcl_to_ppl`` is the converse direction of Proposition 5 (used for the
language-equality tests): PPLbin leaves embed into Core XPath 2.0, variables
become ``.[. is $x]``, and the images are PPL expressions whenever the input
satisfies NVS(/).

Both translations are linear-time and linear-size; experiment E7 measures
the expansion factors.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import RestrictionViolation, TranslationError
from repro.xpath import ast as x
from repro.pplbin import translate as pb_translate
from repro.pplbin.ast import BinExpr, BStep, SelfStep, nodes_query
from repro.pplbin.translate import from_core_xpath
from repro.hcl.ast import HclExpr, HCompose, HFilter, HUnion, HVar, Leaf
from repro.core.ppl import Violation, check_ppl


def ppl_to_hcl(
    expression: x.PathExpr, violations: Optional[Sequence[Violation]] = None
) -> HclExpr:
    """Translate a PPL path expression into HCL⁻(PPLbin) (Fig. 7).

    The expression is checked against Definition 1 first; a
    :class:`repro.errors.RestrictionViolation` is raised when it is not PPL.
    A caller that has already listed the expression's ``violations``
    passes them, and the check reads that list instead of walking the
    expression again.
    """
    if violations is None:
        check_ppl(expression)
    elif violations:
        raise RestrictionViolation(violations[0].condition, violations[0].message)
    return _translate_path(expression)


#: The chained operators and their images: the parser builds ``/``,
#: ``union``, ``[]``, ``and`` and ``or`` chains left-deep in a loop.
_CHAINS = {
    x.PathCompose: HCompose,
    # A filter test is a partial identity, so the filter is a composition.
    x.Filter: HCompose,
    x.AndTest: HCompose,
    x.PathUnion: HUnion,
    x.OrTest: HUnion,
}


def _translate_path(expression: x._Expr) -> HclExpr:
    """Fig. 7, for a path or a filter test.

    A chain is walked down its left spine in a loop, so however long it is
    it does not deepen the stack; only right operands and the operands of
    ``[T]``-tests recurse, as deep as the parser itself recursed to build
    them (brackets and parentheses).
    """
    spine = []
    node = expression
    kind = type(node)
    while kind in _CHAINS:
        spine.append(node)
        node = node.path if kind is x.Filter else node.left
        kind = type(node)
    if kind is x.Step:
        image = Leaf(BStep(node.axis, node.nametest))
    elif kind is x.PathTest:
        image = HFilter(_translate_path(node.path))
    elif kind is x.CompTest:
        image = _comparison(node.left, node.right)
    elif kind is x.ContextItem:
        image = Leaf(SelfStep())
    elif kind is x.VarRef:
        # $x  =  nodes/x : jump to an arbitrary node, require it to be alpha(x).
        image = HCompose(Leaf(nodes_query()), HVar(node.name))
    elif kind is x.PathIntersect or kind is x.PathExcept:
        # Variable free by NV(intersect)/NV(except): one PPLbin leaf via Fig. 4.
        image = Leaf(from_core_xpath(node))
    elif kind is x.NotTest:
        # Variable free by NV(not): one PPLbin leaf for the partial identity
        # selecting the nodes satisfying `not T`.
        image = Leaf(pb_translate._negate_test(node.test))
    elif kind is x.ForLoop:  # pragma: no cover - rejected by check_ppl
        raise TranslationError("for-loops cannot occur in PPL expressions")
    elif isinstance(node, x.TestExpr):
        raise TranslationError(f"cannot translate test {node!r} into HCL")
    else:
        raise TranslationError(f"cannot translate {node!r} into HCL")
    for parent in reversed(spine):
        kind = type(parent)
        right = parent.test if kind is x.Filter else parent.right
        image = _CHAINS[kind](image, _translate_path(right))
    return image


def _comparison(left: str, right: str) -> HclExpr:
    """The image of the comparison test ``left is right``."""
    if left == x.CONTEXT and right == x.CONTEXT:
        return Leaf(SelfStep())
    if left == x.CONTEXT:
        return HVar(right)
    if right == x.CONTEXT or left == right:
        return HVar(left)
    # $x is $y with distinct variables: [x/y] holds at alpha(x) when
    # alpha(x) = alpha(y); no variable sharing since x != y.
    return HFilter(HCompose(HVar(left), HVar(right)))


# --------------------------------------------------------------- converse
def hcl_to_ppl(formula: HclExpr) -> x.PathExpr:
    """Translate an HCL⁻(PPLbin) formula back into a PPL expression (Prop. 5).

    PPLbin leaves are embedded through
    :func:`repro.pplbin.translate.to_core_xpath`; the result is a Core XPath
    2.0 expression, and it satisfies Definition 1 whenever the input formula
    contained no variable sharing across compositions.
    """
    if isinstance(formula, Leaf):
        query = formula.query
        if not isinstance(query, BinExpr):
            raise TranslationError(
                "hcl_to_ppl only handles formulas whose leaves are PPLbin expressions"
            )
        return pb_translate.to_core_xpath(query)
    if isinstance(formula, HVar):
        return x.Filter(x.ContextItem(), x.CompTest(x.CONTEXT, formula.name))
    if isinstance(formula, HCompose):
        return x.PathCompose(hcl_to_ppl(formula.left), hcl_to_ppl(formula.right))
    if isinstance(formula, HFilter):
        return x.Filter(x.ContextItem(), x.PathTest(hcl_to_ppl(formula.inner)))
    if isinstance(formula, HUnion):
        return x.PathUnion(hcl_to_ppl(formula.left), hcl_to_ppl(formula.right))
    raise TranslationError(f"cannot translate HCL formula {formula!r}")
