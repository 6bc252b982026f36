"""The PPLbin query-answering algorithm of Theorem 2.

A PPLbin expression ``P`` over a tree ``t`` is evaluated to the Boolean
matrix ``M^t_P`` of its binary query by structural recursion:

    M_{P1/P2}       = M_{P1} . M_{P2}
    M_{P1 union P2} = M_{P1} + M_{P2}
    M_{except P}    = not M_P
    M_{[P]}         = [M_P]

giving the O(|P| |t|^3) bound of Theorem 2 (the cubic factor being the
Boolean matrix product).  The matrix algebra runs on the pluggable
representations of :mod:`repro.pplbin.bitmatrix` — dense bool, packed
uint64 bitset, sparse successor sets, or the adaptive kernel that picks per
sub-expression — and relations for sub-expressions are cached per tree (in
the byte-budgeted matrix cache) so a query containing the same
sub-expression several times pays for it only once.

This is the full ``|t| x |t|`` relation of Theorem 2.  The Fig. 8 answerer
does not read it node by node: it asks set-at-a-time questions
(:mod:`repro.pplbin.setwise`) and falls back to :func:`evaluate_relation`
only for ``except`` sub-expressions; per-node rows
(:class:`repro.hcl.binding.PPLbinOracle` ``successors``) are read off the
cached relation.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import EvaluationError
from repro.obs import trace as _trace
from repro.trees.axes import axis_relation, label_vector
from repro.trees.tree import Tree
from repro.pplbin import bitmatrix as bx
from repro.pplbin.ast import (
    BCompose,
    BExcept,
    BFilter,
    BinExpr,
    BStep,
    BUnion,
    SelfStep,
)
from repro.pplbin.parser import parse_pplbin


def evaluate_relation(
    tree: Tree,
    expression: BinExpr | str,
    kernel: Union[str, bx.Kernel, None] = None,
    use_cache: bool = True,
) -> bx.Relation:
    """Return the relation ``M^t_P`` of a PPLbin expression.

    Parameters
    ----------
    tree:
        The document.
    expression:
        A PPLbin AST or concrete syntax.
    kernel:
        Kernel name (``dense``/``bitset``/``sparse``/``adaptive``), a
        :class:`repro.pplbin.bitmatrix.Kernel` instance, or ``None`` for the
        process default.
    use_cache:
        Cache sub-expression relations on the tree (recommended; disable
        only for benchmarking cold evaluation).
    """
    parsed = parse_pplbin(expression) if isinstance(expression, str) else expression
    resolved = bx.get_kernel(kernel)
    cache = tree.matrix_cache() if use_cache else {}
    token = resolved.cache_token
    # Children first, left to right, on an explicit stack: a long negated
    # chain is as deep as it is long.  Every visit asks the cache, as a
    # recursive walk would; results are kept here too, because the cache
    # may evict a child before its parent reads it.
    results: dict[int, bx.Relation] = {}
    stack: list[tuple[BinExpr, bool]] = [(parsed, False)]
    while stack:
        node, expanded = stack.pop()
        key = ("pplbin-rel", node, token)
        if not expanded:
            cached = cache.get(key)
            if cached is not None:
                results[id(node)] = cached
                continue
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children()))
            continue
        operands = [results[id(child)] for child in node.children()]
        result = results[id(node)] = _evaluate(tree, node, operands, resolved)
        cache[key] = result
    return results[id(parsed)]


def evaluate_matrix(
    tree: Tree,
    expression: BinExpr | str,
    kernel: Union[str, bx.Kernel, None] = None,
    use_cache: bool = True,
) -> np.ndarray:
    """Return the Boolean matrix ``M^t_P`` of a PPLbin expression.

    The dense view of :func:`evaluate_relation`.  The returned matrix is
    read-only and cached, so repeated calls return the same array object.
    """
    return evaluate_relation(tree, expression, kernel=kernel, use_cache=use_cache).to_dense()


def _evaluate(
    tree: Tree,
    node: BinExpr,
    operands: list[bx.Relation],
    kernel: bx.Kernel,
) -> bx.Relation:
    """One operator of ``node`` over its children's relations ``operands``."""
    if isinstance(node, BStep):
        relation = axis_relation(tree, node.axis, kernel)
        if node.nametest is None:
            return relation
        # The mask keeps the axis relation's representation; re-coerce so the
        # adaptive kernel can rebalance a now-much-sparser step relation.
        return kernel.coerce(
            kernel.mask_columns(relation, label_vector(tree, node.nametest))
        )
    if isinstance(node, SelfStep):
        return kernel.identity(tree.size)
    if isinstance(node, BCompose):
        left, right = operands
        # Operands evaluate before the span opens so nested compositions
        # don't inflate the parent's compose timing.
        if not _trace.enabled():
            with _trace.span("kernel.compose", kernel=kernel.name):
                return kernel.compose(left, right)
        # Tracing/sampling active: attribute the span with the cost model's
        # own predictors so repro.obs.calibrate can regress observed
        # durations against them.  The attrs are computed only on this
        # branch — span kwargs evaluate eagerly, and nnz() on a cold
        # operand is not free.
        with _trace.span(
            "kernel.compose",
            kernel=kernel.name,
            representation=kernel._compose_algorithm(left, right),
            n=left.size,
            left_nnz=left.nnz(),
            right_nnz=right.nnz(),
        ):
            return kernel.compose(left, right)
    if isinstance(node, BUnion):
        return kernel.union(*operands)
    if isinstance(node, BExcept):
        return kernel.complement(*operands)
    if isinstance(node, BFilter):
        return kernel.filter_diagonal(*operands)
    raise EvaluationError(f"unknown PPLbin expression {node!r}")


def evaluate_pairs(tree: Tree, expression: BinExpr | str) -> frozenset[tuple[int, int]]:
    """Return the binary query ``q^bin_P(t)`` as an explicit set of node pairs."""
    return evaluate_relation(tree, expression).pairs()

