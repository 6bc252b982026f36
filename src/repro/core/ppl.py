"""The PPL membership check — Definition 1 of the paper.

A Core XPath 2.0 expression belongs to PPL when it satisfies the seven
syntactic conditions:

===============  ==============================================================
``N(for)``       no for-loops (no explicit quantifiers)
``NV(intersect)``no variables in either operand of an ``intersect``
``NV(except)``   no variables in either operand of an ``except``
``NV(not)``      no variables below a ``not`` test
``NVS(/)``       no variable shared between the two sides of a composition
``NVS([])``      no variable shared between a filtered path and its test
``NVS(and)``     no variable shared between the two conjuncts of an ``and``
===============  ==============================================================

Two access paths are offered: :func:`ppl_violations` collects every violated
condition with an explanatory message (useful for error reporting and the
hardness demonstrations), :func:`check_ppl` raises
:class:`repro.errors.RestrictionViolation` on the first violation.

One point the paper leaves implicit: the comparison test ``$x is $y`` between
two *distinct* variables is accepted here — it translates to the HCL formula
``[x/y]`` which involves no variable sharing (two different variables) and is
handled by the Fig. 8 algorithm; see DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.annotated import annotate
from repro.errors import RestrictionViolation
from repro.xpath.ast import (
    AndTest,
    Filter,
    ForLoop,
    NotTest,
    PathCompose,
    PathExcept,
    PathExpr,
    PathIntersect,
    TestExpr,
)
from repro.xpath.parser import parse_path

#: The names of the seven conditions of Definition 1, in the paper's order.
PPL_CONDITIONS: tuple[str, ...] = (
    "N(for)",
    "NV(intersect)",
    "NV(except)",
    "NV(not)",
    "NVS(/)",
    "NVS([])",
    "NVS(and)",
)


@dataclass(frozen=True)
class Violation:
    """One violated condition together with the offending sub-expression."""

    condition: str
    message: str
    subexpression: object

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.condition}: {self.message}"


#: The condition each operator is checked against, with how its offending
#: variables are found (all the operands', or those the two operands share)
#: and the message that names them.
_CHECKS = {
    ForLoop: ("N(for)", None, ""),
    PathIntersect: ("NV(intersect)", "all", "occur inside an intersect"),
    PathExcept: ("NV(except)", "all", "occur inside an except"),
    NotTest: ("NV(not)", "all", "occur below a negation"),
    PathCompose: ("NVS(/)", "shared", "are shared across a composition"),
    Filter: ("NVS([])", "shared", "are shared between a path and its filter"),
    AndTest: ("NVS(and)", "shared", "are shared across a conjunction"),
}


def ppl_violations(expression: PathExpr | TestExpr | str) -> list[Violation]:
    """Return every violation of Definition 1 found in ``expression``.

    One pass over the expression (:func:`repro.annotated.annotate`) fills
    every sub-expression's free variables bottom-up; the conditions then
    read them, so the check is linear in ``|P|``.  Violations are listed in
    preorder.
    """
    parsed = parse_path(expression) if isinstance(expression, str) else expression
    violations: list[Violation] = []
    for sub, children in annotate(parsed):
        check = _CHECKS.get(type(sub))
        if check is None:
            continue
        condition, how, tail = check
        if how is None:
            message = f"for-loop over ${sub.variable} is not allowed in PPL"
            violations.append(Violation(condition, message, sub))
            continue
        if how == "all":
            offending = frozenset().union(*(child.free_variables for child in children))
        else:
            offending = children[0].free_variables & children[1].free_variables
        if offending:
            names = ", ".join(sorted(offending))
            violations.append(Violation(condition, f"variables {{{names}}} {tail}", sub))
    return violations


def is_ppl(expression: PathExpr | TestExpr | str) -> bool:
    """Return True when the expression satisfies all conditions of Definition 1."""
    return not ppl_violations(expression)


def check_ppl(expression: PathExpr | TestExpr | str) -> None:
    """Raise :class:`RestrictionViolation` if the expression is not in PPL."""
    violations = ppl_violations(expression)
    if violations:
        first = violations[0]
        raise RestrictionViolation(first.condition, first.message)
