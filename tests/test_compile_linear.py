"""Compiling and planning a text visits each AST node a bounded number of times.

Theorem 1's bound assumes that the Fig. 7 translation and the Definition 1
and NVS(/) checks run in time linear in ``|P|``.  Timing cannot show that
without flaking, so these tests count work instead: every pass over a Core
XPath expression or an HCL formula asks each node for its children, and the
tests count those calls while compiling and planning chains of ``k``
conjunct filters.  Doubling ``k`` may at most (about) double the count, and
a chain of 2,000 conjuncts must compile and plan without hitting the
recursion limit.
"""

from __future__ import annotations

import math

import pytest

from repro.api import compile_query
from repro.hcl.answering import plan_for
from repro.hcl.ast import HclExpr
from repro.session import Session
from repro.xpath.ast import _Expr

#: Largest growth of the visit count allowed per doubling of ``k``.
GROWTH_PER_DOUBLING = 2.2


def chain(k: int) -> tuple[str, tuple[str, ...]]:
    """A query whose filter holds ``k`` variable-free conjuncts, plus two variables."""
    tests = " and ".join(f"child::c{index}" for index in range(k))
    return f"descendant::r[child::a[. is $x] and {tests}]/child::b[. is $y]", ("x", "y")


def _classes(base: type) -> list[type]:
    found, stack = [], [base]
    while stack:
        cls = stack.pop()
        found.append(cls)
        stack.extend(cls.__subclasses__())
    return found


@pytest.fixture
def visits(monkeypatch):
    """A counter of ``children()`` calls on XPath and HCL nodes."""
    counter = {"visits": 0}
    for cls in _classes(_Expr) + _classes(HclExpr):
        if "children" in vars(cls):
            original = vars(cls)["children"]

            def children(self, original=original):
                counter["visits"] += 1
                return original(self)

            monkeypatch.setattr(cls, "children", children)
    return counter


def compile_and_plan(k: int, counter: dict) -> int:
    """Visits made compiling and planning ``chain(k)``."""
    text, variables = chain(k)
    counter["visits"] = 0
    query = compile_query(text, variables)
    plan_for(query.hcl, variables)
    return counter["visits"]


def test_visits_grow_linearly_with_the_chain(visits):
    sizes = [50, 100, 200, 400, 2000]
    counts = [compile_and_plan(k, visits) for k in sizes]
    assert counts[0] >= 2 * sizes[0]  # every pass asks every node
    for (small, low), (large, high) in zip(zip(sizes, counts), zip(sizes[1:], counts[1:])):
        bound = GROWTH_PER_DOUBLING ** math.log2(large / small)
        assert high <= bound * low, (small, low, large, high)


def test_a_long_chain_compiles_plans_and_answers_through_a_session():
    text, variables = chain(2000)
    query = compile_query(text, variables)
    plan = plan_for(query.hcl, variables)
    assert query.expression_size > 6000
    assert query.hcl_size > 4000
    assert len(plan.instructions) > 2000
    assert len(query.plan_text) > 30000
    conjuncts = "".join(f"<c{index}/>" for index in range(2000))
    with Session() as session:
        session.add_xml("doc", f"<doc><r><a/><b/>{conjuncts}</r><r><a/><b/></r></doc>")
        assert session.query("doc", text, variables) == frozenset({(2, 3)})


@pytest.mark.parametrize("joiner", [" or ", " union ", "/"])
def test_long_disjunctions_unions_and_paths_compile(joiner):
    parts = joiner.join(f"child::c{index}" for index in range(2000))
    text = f"descendant::r[. is $x][{parts}]/child::b[. is $y]"
    query = compile_query(text, ("x", "y"))
    plan = plan_for(query.hcl, ("x", "y"))
    assert query.expression_size > 4000
    assert plan.domains[plan.root] == ("x", "y")


def test_a_long_variable_free_chain_compiles_to_pplbin_and_answers():
    tests = " and ".join(f"child::c{index}" for index in range(2000))
    text = f"descendant::r[{tests}]"
    assert compile_query(text, ()).pplbin is not None
    conjuncts = "".join(f"<c{index}/>" for index in range(2000))
    with Session() as session:
        session.add_xml("doc", f"<doc><r>{conjuncts}</r><r><c0/></r></doc>")
        assert session.query("doc", text, ()) == frozenset({()})


def test_a_long_negated_disjunction_compiles_and_plans():
    # not(...) becomes one PPLbin leaf 2,000 operators deep; planning hashes it.
    tests = " or ".join(f"child::c{index}" for index in range(2000))
    query = compile_query(f"descendant::r[not({tests})][. is $x]", ("x",))
    plan = plan_for(query.hcl, ("x",))
    assert plan.domains[plan.root] == ("x",)


def test_a_long_negated_disjunction_answers():
    # The leaf is evaluated as a Theorem 2 relation (except), then read set
    # at a time: every walk over it, and every cache key comparison, must
    # run without recursing once per operator.
    tests = " or ".join(f"child::c{index}" for index in range(2000))
    text = f"descendant::r[not({tests})][. is $x]"
    with Session() as session:
        session.add_xml("doc", "<t><r/><r><c5/></r><r/></t>")
        assert session.query("doc", text, ["x"]) == frozenset({(1,), (4,)})


def test_a_deep_except_leaf_equals_its_copy():
    from repro.pplbin.ast import BExcept, BStep, BUnion, binary_union
    from repro.pplbin.translate import to_core_xpath
    from repro.trees.axes import Axis

    def leaf():
        steps = [BStep(Axis.CHILD, f"c{index}") for index in range(2000)]
        return BExcept(binary_union(*steps))

    first, second = leaf(), leaf()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != BExcept(BUnion(first.operand, BStep(Axis.CHILD, "other")))
    assert first.size == 4000
    assert to_core_xpath(first) is not None
