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


def _translate_path(expression: x.PathExpr) -> HclExpr:
    if isinstance(expression, x.Step):
        return Leaf(BStep(expression.axis, expression.nametest))
    if isinstance(expression, x.ContextItem):
        return Leaf(SelfStep())
    if isinstance(expression, x.VarRef):
        # $x  =  nodes/x : jump to an arbitrary node, require it to be alpha(x).
        return HCompose(Leaf(nodes_query()), HVar(expression.name))
    if isinstance(expression, x.PathCompose):
        return HCompose(_translate_path(expression.left), _translate_path(expression.right))
    if isinstance(expression, x.PathUnion):
        return HUnion(_translate_path(expression.left), _translate_path(expression.right))
    if isinstance(expression, (x.PathIntersect, x.PathExcept)):
        # Variable-free by NV(intersect)/NV(except): one PPLbin leaf via Fig. 4.
        return Leaf(from_core_xpath(expression))
    if isinstance(expression, x.Filter):
        return HCompose(_translate_path(expression.path), _translate_test(expression.test))
    if isinstance(expression, x.ForLoop):  # pragma: no cover - rejected by check_ppl
        raise TranslationError("for-loops cannot occur in PPL expressions")
    raise TranslationError(f"cannot translate {expression!r} into HCL")


def _translate_test(test: x.TestExpr) -> HclExpr:
    """Translate a filter test into a partial-identity HCL formula."""
    if isinstance(test, x.PathTest):
        return HFilter(_translate_path(test.path))
    if isinstance(test, x.CompTest):
        left, right = test.left, test.right
        if left == x.CONTEXT and right == x.CONTEXT:
            return Leaf(SelfStep())
        if left == x.CONTEXT:
            return HVar(right)
        if right == x.CONTEXT:
            return HVar(left)
        if left == right:
            return HVar(left)
        # $x is $y with distinct variables: [x/y] holds at alpha(x) when
        # alpha(x) = alpha(y); no variable sharing since x != y.
        return HFilter(HCompose(HVar(left), HVar(right)))
    if isinstance(test, x.NotTest):
        # Variable-free by NV(not): one PPLbin leaf for the partial identity
        # selecting the nodes satisfying `not T`.
        return Leaf(pb_translate._negate_test(test.test))
    if isinstance(test, x.AndTest):
        return HCompose(_translate_test(test.left), _translate_test(test.right))
    if isinstance(test, x.OrTest):
        return HUnion(_translate_test(test.left), _translate_test(test.right))
    raise TranslationError(f"cannot translate test {test!r} into HCL")


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
