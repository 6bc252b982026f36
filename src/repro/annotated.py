"""Node counts and free variables of a syntax tree, filled in one pass.

Core XPath expressions (:mod:`repro.xpath.ast`) and HCL formulas
(:mod:`repro.hcl.ast`) both report ``size`` (their node count) and
``free_variables``.  A node's values follow from its children's, so
:func:`annotate` fills them for a whole tree bottom-up: the Definition 1
and NVS(/) checks read them at every operator and stay linear in the size
of the query.  The pass uses an explicit stack, so a deep tree does not hit
the recursion limit.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

from repro.pickling import strip_cached_properties

#: The free variables of a node without any.
NO_VARIABLES: frozenset[str] = frozenset()


class Annotated:
    """A syntax-tree node whose ``size`` and ``free_variables`` are derived."""

    def __getstate__(self) -> dict:
        return strip_cached_properties(self)

    @cached_property
    def size(self) -> int:
        """Number of nodes."""
        annotate(self, every=False)
        return self.__dict__["size"]

    @cached_property
    def free_variables(self) -> frozenset[str]:
        """The variables occurring free in the tree."""
        annotate(self, every=False)
        return self.__dict__["free_variables"]

    def children(self) -> tuple:
        """Direct sub-trees."""
        return ()

    def _note(self, children: tuple) -> None:
        """Store ``size`` and ``free_variables`` from the children's.

        A node that holds or binds a variable overrides this.
        """
        size = 1
        names = NO_VARIABLES
        for child in children:
            size += child.size
            more = child.free_variables
            if more:
                names = names | more if names else more
        state = self.__dict__
        state["size"] = size
        state["free_variables"] = names

    def walk(self) -> Iterator:
        """Yield this node and every node below it (preorder)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))


def annotate(root: Annotated, every: bool = True) -> list[tuple[Annotated, tuple]]:
    """Fill ``size`` and ``free_variables`` of every node of ``root``.

    Returns the nodes in preorder, each with its children (with
    ``every=False``, only the nodes not filled before, and none below
    them).  Each node's ``children()`` is called once, and the values are
    built in reverse preorder, which lists every node after the nodes
    below it.
    """
    order: list[tuple[Annotated, tuple]] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if not every and "free_variables" in node.__dict__:
            continue
        children = node.children()
        order.append((node, children))
        if children:
            stack.extend(reversed(children))
    for node, children in reversed(order):
        if "free_variables" not in node.__dict__:
            node._note(children)
    return order
