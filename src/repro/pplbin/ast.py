"""Abstract syntax of PPLbin (Fig. 3 of the paper).

The grammar is::

    PathExpr := Axis::NameTest
              | PathExpr / PathExpr
              | PathExpr union PathExpr
              | except PathExpr
              | [ PathExpr ]

plus the ``self`` expression used by the Fig. 4 translation (equivalent to
``self::*``).  The ``except`` operator is the *unary* complement of the
paper: ``except P = nodes except P``.  Binary ``except`` and ``intersect``
are provided as derived builders (:func:`binary_except`,
:func:`binary_intersect`) following the equivalences in Section 2.

Every expression is an immutable value object with ``size`` (the paper's
``|P|``), structural equality and an ``unparse`` method producing text that
:func:`repro.pplbin.parser.parse_pplbin` parses back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from repro.pickling import strip_cached_properties
from repro.trees.axes import Axis


class BinExpr:
    """Base class of PPLbin expressions (binary queries over nodes)."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Set before @dataclass runs, which then keeps them (frozen, eq).
        cls.__hash__ = BinExpr.__hash__
        cls.__eq__ = BinExpr.__eq__

    def __getstate__(self) -> dict:
        return strip_cached_properties(self)

    def __hash__(self) -> int:
        # The structural hash, computed once per expression and kept in the
        # ``_hash`` slot: plans intern their leaves by value and oracles key
        # their caches by query, so one leaf is hashed many times, and the
        # dataclass hash would re-walk the whole expression each time.
        state = self.__dict__
        value = state.get("_hash")
        if value is None:
            if self.children():
                _hash_below(self)
            fields = [state[name] for name in self.__dataclass_fields__]
            value = state["_hash"] = hash((type(self), *fields))
        return value

    def __eq__(self, other: object) -> bool:
        # Structural equality, as the dataclass would compare, but over an
        # explicit stack: equal leaves meet in cache lookups, and a long
        # negated chain is as deep as it is long.
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack: list[tuple[BinExpr, BinExpr]] = [(self, other)]
        while stack:
            left, right = stack.pop()
            if left is right:
                continue
            if left.__class__ is not right.__class__:
                return False
            known, other_known = left.__dict__.get("_hash"), right.__dict__.get("_hash")
            if known is not None and other_known is not None and known != other_known:
                return False
            for name in left.__dataclass_fields__:
                mine, theirs = getattr(left, name), getattr(right, name)
                if isinstance(mine, BinExpr):
                    stack.append((mine, theirs))
                elif mine != theirs:
                    return False
        return True

    @cached_property
    def _hash(self) -> int:
        """The cached structural hash (a cached slot, so pickles leave it out)."""
        return hash(self)

    @cached_property
    def size(self) -> int:
        """Number of AST nodes — the paper's expression size ``|P|``."""
        # Children first over an explicit stack; each size lands in the
        # node's cached slot, so a shared sub-expression is counted once.
        pending = []
        stack = [self]
        while stack:
            node = stack.pop()
            if "size" not in node.__dict__:
                pending.append(node)
                stack.extend(node.children())
        for node in reversed(pending):
            node.__dict__["size"] = 1 + sum(child.size for child in node.children())
        return self.__dict__["size"]

    def children(self) -> tuple["BinExpr", ...]:
        """Direct sub-expressions."""
        return ()

    def walk(self) -> Iterator["BinExpr"]:
        """Yield this expression and all sub-expressions (preorder)."""
        stack: list[BinExpr] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def uses_complement(self) -> bool:
        """Return True when an ``except`` occurs anywhere in the expression.

        The complement-free fragment is exactly Core XPath 1.0 and admits the
        linear-time set-based evaluation of :mod:`repro.pplbin.corexpath1`.
        """
        return any(isinstance(sub, BExcept) for sub in self.walk())

    def unparse(self) -> str:
        """Return concrete syntax for this expression."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.unparse()


@dataclass(frozen=True)
class BStep(BinExpr):
    """An axis step ``Axis::NameTest``; ``nametest`` of ``None`` means ``*``."""

    axis: Axis
    nametest: Optional[str] = None

    def unparse(self) -> str:
        test = self.nametest if self.nametest is not None else "*"
        return f"{self.axis.value}::{test}"


@dataclass(frozen=True)
class SelfStep(BinExpr):
    """The identity relation ``self`` (the Fig. 4 image of the context item)."""

    def unparse(self) -> str:
        return "self"


@dataclass(frozen=True)
class BCompose(BinExpr):
    """Relational composition ``P1/P2``."""

    left: BinExpr
    right: BinExpr

    def children(self) -> tuple[BinExpr, ...]:
        return (self.left, self.right)

    def unparse(self) -> str:
        return f"{self.left.unparse()}/{self.right.unparse()}"


@dataclass(frozen=True)
class BUnion(BinExpr):
    """Union ``P1 union P2``."""

    left: BinExpr
    right: BinExpr

    def children(self) -> tuple[BinExpr, ...]:
        return (self.left, self.right)

    def unparse(self) -> str:
        return f"({self.left.unparse()} union {self.right.unparse()})"


@dataclass(frozen=True)
class BExcept(BinExpr):
    """The unary complement ``except P`` (all node pairs not related by P)."""

    operand: BinExpr

    def children(self) -> tuple[BinExpr, ...]:
        return (self.operand,)

    def unparse(self) -> str:
        return f"(except {self.operand.unparse()})"


@dataclass(frozen=True)
class BFilter(BinExpr):
    """The test ``[P]`` — the partial identity on nodes where ``P`` can start."""

    operand: BinExpr

    def children(self) -> tuple[BinExpr, ...]:
        return (self.operand,)

    def unparse(self) -> str:
        return f"[{self.operand.unparse()}]"


def _hash_below(expression: BinExpr) -> None:
    """Hash every sub-expression below ``expression``, children first.

    An explicit stack, so a deep expression (a long negated chain) hashes
    without recursing: each hash then reads its children's stored hashes.
    """
    pending = []
    stack = list(expression.children())
    while stack:
        node = stack.pop()
        if "_hash" not in node.__dict__:
            pending.append(node)
            stack.extend(node.children())
    for node in reversed(pending):
        hash(node)


# ----------------------------------------------------------------- builders
def binary_compose(*parts: BinExpr) -> BinExpr:
    """Compose PPLbin expressions left to right with ``/``."""
    if not parts:
        raise ValueError("binary_compose() requires at least one expression")
    result = parts[0]
    for part in parts[1:]:
        result = BCompose(result, part)
    return result


def binary_union(*parts: BinExpr) -> BinExpr:
    """Union of one or more PPLbin expressions."""
    if not parts:
        raise ValueError("binary_union() requires at least one expression")
    result = parts[0]
    for part in parts[1:]:
        result = BUnion(result, part)
    return result


def binary_intersect(left: BinExpr, right: BinExpr) -> BinExpr:
    """Binary intersection, derived as in Section 2 of the paper.

    ``P1 intersect P2 = except (except P1 union except P2)``.
    """
    return BExcept(BUnion(BExcept(left), BExcept(right)))


def binary_except(left: BinExpr, right: BinExpr) -> BinExpr:
    """Binary difference, derived as in Fig. 4 of the paper.

    ``P1 except P2 = except (except P1 union P2)``.
    """
    return BExcept(BUnion(BExcept(left), right))


def complement_filter(operand: BinExpr) -> BinExpr:
    """The partial identity on nodes where ``operand`` can NOT start.

    This is the correct PPLbin encoding of the test ``not P``: the complement
    of the filter ``[P]`` *restricted to the diagonal*, i.e.
    ``self except [P]``.  (Fig. 4 of the paper abbreviates this as
    ``[except P]``, which under the Fig. 2 semantics of ``[.]`` would instead
    select nodes having *some* non-successor; we implement the intended
    semantics and exercise the difference in the test-suite.)
    """
    return binary_except(SelfStep(), BFilter(operand))


def nodes_query() -> BinExpr:
    """The universal binary query ``nodes`` relating every pair of nodes.

    ``(ancestor::* union self)/(descendant::* union self)`` — used to encode
    goto-variables (``$x = nodes/x``) when translating PPL into HCL.
    """
    up = BUnion(BStep(Axis.ANCESTOR, None), SelfStep())
    down = BUnion(BStep(Axis.DESCENDANT, None), SelfStep())
    return BCompose(up, down)
