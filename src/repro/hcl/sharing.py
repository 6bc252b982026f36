"""Sharing expressions and equation systems (Lemma 3 of the paper).

The answering algorithm of Fig. 8 requires formulas in which no union occurs
on the left of a composition.  Naively rewriting ``(C1 ∪ C2)/C`` into
``C1/C ∪ C2/C`` duplicates ``C`` and can blow up exponentially, so the paper
introduces *sharing expressions* with parameters and an acyclic equation
system ``Δ``::

    E ::= x | [D] | b
    D ::= p | D ∪ D' | E/D | self

:func:`normalize` turns an arbitrary HCL formula ``C`` into a pair
``(D, Δ)`` with ``D_Δ = C`` in linear time, introducing one parameter per
union that occurs to the left of a composition (Lemma 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import EvaluationError
from repro.hcl.ast import HCompose, HclExpr, HFilter, HUnion, HVar, Leaf


# ------------------------------------------------------------ head expressions
class HeadExpr:
    """Base class of head expressions ``E ::= x | [D] | b``."""

    # Sharing formulas are built afresh for every plan; slotted instances
    # are cheaper to make than ones with a ``__dict__``.
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class HeadVar(HeadExpr):
    """A variable head ``x``."""

    name: str


@dataclass(frozen=True, slots=True)
class HeadFilter(HeadExpr):
    """A filter head ``[D]``."""

    inner: "SharedExpr"


@dataclass(frozen=True, slots=True)
class HeadLeaf(HeadExpr):
    """A binary-query head ``b``."""

    query: Any


# ---------------------------------------------------------- sharing expressions
class SharedExpr:
    """Base class of sharing formulas ``D``."""

    __slots__ = ()

    def children(self) -> tuple["SharedExpr", ...]:
        return ()

    def walk(self) -> Iterator["SharedExpr"]:
        """Yield this formula and its sub-formulas (not following parameters)."""
        stack: list[SharedExpr] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    @property
    def size(self) -> int:
        """Number of nodes of the sharing formula (parameters count 1)."""
        total = 0
        for node in self.walk():
            total += 1
            if isinstance(node, SharedCompose) and isinstance(node.head, HeadFilter):
                total += node.head.inner.size
        return total


@dataclass(frozen=True, slots=True)
class SharedSelf(SharedExpr):
    """The trivial continuation ``self``."""


@dataclass(frozen=True, slots=True)
class SharedParam(SharedExpr):
    """A parameter ``p`` referring to an equation of ``Δ``."""

    name: str


@dataclass(frozen=True, slots=True)
class SharedUnion(SharedExpr):
    """Union ``D ∪ D'``."""

    left: SharedExpr
    right: SharedExpr

    def children(self) -> tuple[SharedExpr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, slots=True)
class SharedCompose(SharedExpr):
    """Composition ``E/D`` of a head expression with a continuation."""

    head: HeadExpr
    tail: SharedExpr

    def children(self) -> tuple[SharedExpr, ...]:
        return (self.tail,)


class EquationSystem:
    """An acyclic mapping from parameter names to sharing formulas.

    Parameters are created in normalisation order; every formula may only
    reference parameters created *before* it, which guarantees acyclicity
    (the paper indexes them the other way around, which is equivalent).
    """

    def __init__(self) -> None:
        self._equations: dict[str, SharedExpr] = {}
        self._counter = 0

    def fresh(self, formula: SharedExpr) -> SharedParam:
        """Create a fresh parameter bound to ``formula`` and return it."""
        name = f"p{self._counter}"
        self._counter += 1
        self._equations[name] = formula
        return SharedParam(name)

    def resolve(self, parameter: SharedParam) -> SharedExpr:
        """Return the formula bound to ``parameter``."""
        try:
            return self._equations[parameter.name]
        except KeyError:
            raise EvaluationError(f"unknown parameter {parameter.name!r}") from None

    def items(self):
        """Iterate over ``(name, formula)`` pairs in creation order."""
        return self._equations.items()

    def __len__(self) -> int:
        return len(self._equations)

    @property
    def size(self) -> int:
        """Total size of all equations (the paper's ``|Δ|``)."""
        return sum(formula.size for formula in self._equations.values())


def normalize(formula: HclExpr) -> tuple[SharedExpr, EquationSystem]:
    """Transform an HCL formula into an equivalent pair ``(D, Δ)`` (Lemma 3).

    The transformation is linear-time and linear-size: every sub-formula of
    the input is visited once, and unions occurring to the left of a
    composition share their continuation through a fresh parameter instead of
    copying it.

    ``convert(C, K)`` is the sharing formula of ``C`` followed by ``K``.  A
    chain of compositions or of unions is walked down its left spine in a
    loop, so however long it is it does not deepen the stack; only right
    sides and filter bodies recurse, as deep as they are nested.
    """
    system = EquationSystem()

    def convert(expr: HclExpr, continuation: SharedExpr) -> SharedExpr:
        # convert(C/C', K) = convert(C, convert(C', K)): right sides first.
        while type(expr) is HCompose:
            continuation = convert(expr.right, continuation)
            expr = expr.left
        kind = type(expr)
        if kind is Leaf:
            return SharedCompose(HeadLeaf(expr.query), continuation)
        if kind is HVar:
            return SharedCompose(HeadVar(expr.name), continuation)
        if kind is HFilter:
            return SharedCompose(HeadFilter(convert(expr.inner, SharedSelf())), continuation)
        if kind is HUnion:
            if not isinstance(continuation, (SharedSelf, SharedParam)):
                continuation = system.fresh(continuation)
            rights = []
            while type(expr) is HUnion:
                rights.append(expr.right)
                expr = expr.left
            shared = convert(expr, continuation)
            for right in reversed(rights):
                shared = SharedUnion(shared, convert(right, continuation))
            return shared
        raise EvaluationError(f"unknown HCL formula {expr!r}")

    return convert(formula, SharedSelf()), system


def expand(formula: SharedExpr, system: EquationSystem) -> HclExpr:
    """Expand a sharing formula back into a plain HCL formula (``D_Δ``).

    Only used in tests and documentation examples — expansion can be
    exponentially larger than the sharing representation, which is the whole
    point of Lemma 3.
    """
    if isinstance(formula, SharedSelf):
        return Leaf(SELF_QUERY)
    if isinstance(formula, SharedParam):
        return expand(system.resolve(formula), system)
    if isinstance(formula, SharedUnion):
        return HUnion(expand(formula.left, system), expand(formula.right, system))
    if isinstance(formula, SharedCompose):
        head = formula.head
        if isinstance(head, HeadVar):
            head_expr: HclExpr = HVar(head.name)
        elif isinstance(head, HeadLeaf):
            head_expr = Leaf(head.query)
        elif isinstance(head, HeadFilter):
            head_expr = HFilter(expand(head.inner, system))
        else:  # pragma: no cover - exhaustive
            raise EvaluationError(f"unknown head {head!r}")
        if isinstance(formula.tail, SharedSelf):
            return head_expr
        return HCompose(head_expr, expand(formula.tail, system))
    raise EvaluationError(f"unknown sharing formula {formula!r}")


#: Sentinel binary query denoting the identity relation; ``self`` expands to a
#: leaf holding this value, so oracles used with *expanded* formulas (tests
#: only) must map it to the identity relation.
SELF_QUERY = "__self__"


def shared_variables(formula: SharedExpr, system: EquationSystem) -> frozenset[str]:
    """Return ``Var(D_Δ)`` — all variables of the formula, following parameters."""
    cache: dict[str, frozenset[str]] = {}

    def of(expr: SharedExpr) -> frozenset[str]:
        if isinstance(expr, SharedSelf):
            return frozenset()
        if isinstance(expr, SharedParam):
            if expr.name not in cache:
                cache[expr.name] = of(system.resolve(expr))
            return cache[expr.name]
        if isinstance(expr, SharedUnion):
            return of(expr.left) | of(expr.right)
        if isinstance(expr, SharedCompose):
            head = expr.head
            own: frozenset[str]
            if isinstance(head, HeadVar):
                own = frozenset({head.name})
            elif isinstance(head, HeadFilter):
                own = of(head.inner)
            else:
                own = frozenset()
            return own | of(expr.tail)
        raise EvaluationError(f"unknown sharing formula {expr!r}")

    return of(formula)
