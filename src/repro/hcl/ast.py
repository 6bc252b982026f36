"""Syntax (Fig. 5) and naive semantics (Fig. 6) of HCL(L).

Expressions are parameterised by an arbitrary binary query language ``L``:
a leaf holds an opaque expression ``b`` of ``L`` (for this library usually a
:class:`repro.pplbin.ast.BinExpr`), and evaluation goes through a
:class:`repro.hcl.binding.BinaryQueryOracle` supplying ``q_b(t)``.

The naive evaluation functions here are the direct transcription of Fig. 6
and the n-ary query definition; like the Core XPath naive engine they exist
as correctness oracles for the polynomial algorithm of Fig. 8.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterator, Mapping, Sequence

from repro.annotated import Annotated
from repro.errors import EvaluationError, UnboundVariableError
from repro.trees.tree import Tree


class HclExpr(Annotated):
    """Base class of HCL composition formulas.

    ``size`` is the composition size ``|C|`` (a leaf counts 1 whatever its
    own size) and ``free_variables`` the variables occurring in the
    formula; both are filled for a whole formula in one pass
    (:func:`repro.annotated.annotate`).
    """

    @cached_property
    def answer_plans(self) -> dict:
        """Compiled Fig. 8 plans of this formula, keyed by output variables.

        Filled by :func:`repro.hcl.answering.plan_for`, so a query answered
        on many documents is normalised and compiled once.  Like every
        cached property it is left out of pickles.
        """
        return {}

    def leaves(self) -> Iterator["Leaf"]:
        """Yield every leaf (binary query) of the formula."""
        for sub in self.walk():
            if isinstance(sub, Leaf):
                yield sub

    def unparse(self) -> str:
        """Return a readable rendering of the formula."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.unparse()


@dataclass(frozen=True)
class Leaf(HclExpr):
    """A binary query ``b`` of the parameter language ``L``."""

    query: Any

    def unparse(self) -> str:
        return f"<{self.query}>"


@dataclass(frozen=True)
class HVar(HclExpr):
    """A variable ``x`` — the partial identity ``{(alpha(x), alpha(x))}``."""

    name: str

    def _note(self, children: tuple) -> None:
        self.__dict__.update(size=1, free_variables=frozenset((self.name,)))

    def unparse(self) -> str:
        return self.name


@dataclass(frozen=True)
class HCompose(HclExpr):
    """Composition ``C/C'``."""

    left: HclExpr
    right: HclExpr

    def children(self) -> tuple[HclExpr, ...]:
        return (self.left, self.right)

    def unparse(self) -> str:
        return f"{self.left.unparse()}/{self.right.unparse()}"


@dataclass(frozen=True)
class HFilter(HclExpr):
    """Filter ``[C]`` — the partial identity on nodes from which ``C`` starts."""

    inner: HclExpr

    def children(self) -> tuple[HclExpr, ...]:
        return (self.inner,)

    def unparse(self) -> str:
        return f"[{self.inner.unparse()}]"


@dataclass(frozen=True)
class HUnion(HclExpr):
    """Disjunction ``C ∪ C'``."""

    left: HclExpr
    right: HclExpr

    def children(self) -> tuple[HclExpr, ...]:
        return (self.left, self.right)

    def unparse(self) -> str:
        return f"({self.left.unparse()} U {self.right.unparse()})"


def compose(*parts: HclExpr) -> HclExpr:
    """Compose formulas left to right with ``/``."""
    if not parts:
        raise ValueError("compose() requires at least one formula")
    result = parts[0]
    for part in parts[1:]:
        result = HCompose(result, part)
    return result


def union(*parts: HclExpr) -> HclExpr:
    """Union of one or more formulas."""
    if not parts:
        raise ValueError("union() requires at least one formula")
    result = parts[0]
    for part in parts[1:]:
        result = HUnion(result, part)
    return result


# ------------------------------------------------------------ naive semantics
Assignment = Mapping[str, int]


def evaluate_hcl(
    tree: Tree, formula: HclExpr, assignment: Assignment, oracle
) -> frozenset[tuple[int, int]]:
    """Return ``[[C]]^{t,alpha}`` following Fig. 6 (naive, for cross-checking).

    ``oracle`` must provide ``pairs(b)`` returning ``q_b(t)`` for leaf
    queries ``b`` (see :class:`repro.hcl.binding.BinaryQueryOracle`).
    """
    if isinstance(formula, Leaf):
        return frozenset(oracle.pairs(formula.query))
    if isinstance(formula, HVar):
        try:
            node = assignment[formula.name]
        except KeyError:
            raise UnboundVariableError(formula.name) from None
        return frozenset({(node, node)})
    if isinstance(formula, HCompose):
        left = evaluate_hcl(tree, formula.left, assignment, oracle)
        right = evaluate_hcl(tree, formula.right, assignment, oracle)
        by_source: dict[int, set[int]] = {}
        for source, target in right:
            by_source.setdefault(source, set()).add(target)
        return frozenset(
            (source, target)
            for source, middle in left
            for target in by_source.get(middle, ())
        )
    if isinstance(formula, HFilter):
        inner = evaluate_hcl(tree, formula.inner, assignment, oracle)
        starts = {source for source, _ in inner}
        return frozenset((node, node) for node in starts)
    if isinstance(formula, HUnion):
        return evaluate_hcl(tree, formula.left, assignment, oracle) | evaluate_hcl(
            tree, formula.right, assignment, oracle
        )
    raise EvaluationError(f"unknown HCL formula {formula!r}")


def hcl_naive_answer(
    tree: Tree, formula: HclExpr, variables: Sequence[str], oracle
) -> frozenset[tuple[int, ...]]:
    """Answer ``q_{C,x}(t)`` by brute-force assignment enumeration.

    Exponential in the number of variables; used only as the correctness
    oracle for the Fig. 8 algorithm in tests.
    """
    inner_variables = sorted(formula.free_variables)
    nodes = list(tree.nodes())
    witnesses: set[tuple[int, ...]] = set()
    for values in itertools.product(nodes, repeat=len(inner_variables)):
        assignment = dict(zip(inner_variables, values))
        if evaluate_hcl(tree, formula, assignment, oracle):
            witnesses.add(tuple(assignment.get(name, -1) for name in variables))
    if not witnesses:
        return frozenset()
    free_positions = [
        index
        for index, name in enumerate(variables)
        if name not in formula.free_variables
    ]
    if not free_positions:
        return frozenset(witnesses)
    answers: set[tuple[int, ...]] = set()
    for witness in witnesses:
        for values in itertools.product(nodes, repeat=len(free_positions)):
            completed = list(witness)
            for position, value in zip(free_positions, values):
                completed[position] = value
            answers.add(tuple(completed))
    return frozenset(answers)
