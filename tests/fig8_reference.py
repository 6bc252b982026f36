"""Reference Fig. 8: the per-(sub-formula, node) recursion, for differential tests.

This is the direct transcription of Proposition 10 and Fig. 8 that the
library answered with before it went set-at-a-time: ``MC(D0, u)`` and
``vals(D0, u)`` are memoised per sub-formula object and node, successor
sets come one node at a time from ``oracle.successors``, and partial
valuations are frozensets of ``(variable, node)`` pairs.  It shares no code
with :mod:`repro.hcl.mc` or :mod:`repro.hcl.answering` beyond the Lemma 3
normalisation, so agreement between the two is a real check.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from repro.hcl.answering import check_no_variable_sharing
from repro.hcl.sharing import (
    HeadFilter,
    HeadLeaf,
    HeadVar,
    SharedCompose,
    SharedParam,
    SharedSelf,
    SharedUnion,
    normalize,
    shared_variables,
)

EMPTY: frozenset = frozenset()


def _extend(valuations: Iterable[frozenset], target: frozenset, nodes: Sequence[int]) -> set:
    """``extend_{t,X}``: missing variables range over all nodes."""
    result: set = set()
    for valuation in valuations:
        missing = sorted(target - {variable for variable, _ in valuation})
        for values in itertools.product(nodes, repeat=len(missing)):
            result.add(valuation | frozenset(zip(missing, values)))
    return result


def reference_answer(tree, formula, variables: Sequence[str], oracle) -> frozenset:
    """Answer ``q_{C,x}(t)`` node by node, as Fig. 8 is written."""
    check_no_variable_sharing(formula)
    shared, system = normalize(formula)
    output = frozenset(variables)
    nodes = list(tree.nodes())
    mc_memo: dict = {}
    vals_memo: dict = {}

    def mc(expr, node: int) -> bool:
        key = (id(expr), node)
        if key not in mc_memo:
            mc_memo[key] = False
            mc_memo[key] = mc_compute(expr, node)
        return mc_memo[key]

    def mc_compute(expr, node: int) -> bool:
        if isinstance(expr, SharedSelf):
            return True
        if isinstance(expr, SharedParam):
            return mc(system.resolve(expr), node)
        if isinstance(expr, SharedUnion):
            return mc(expr.left, node) or mc(expr.right, node)
        head = expr.head
        if isinstance(head, HeadLeaf):
            return any(mc(expr.tail, v) for v in oracle.successors(head.query, node))
        if isinstance(head, HeadVar):
            return mc(expr.tail, node)
        return mc(head.inner, node) and mc(expr.tail, node)

    def vals(expr, node: int) -> frozenset:
        key = (id(expr), node)
        if key in vals_memo:
            return vals_memo[key]
        if not mc(expr, node):
            result: frozenset = frozenset()
        elif isinstance(expr, SharedSelf):
            result = frozenset({EMPTY})
        elif isinstance(expr, SharedParam):
            result = vals(system.resolve(expr), node)
        elif isinstance(expr, SharedUnion):
            target = shared_variables(expr, system) & output
            left = _extend(vals(expr.left, node), target, nodes)
            right = _extend(vals(expr.right, node), target, nodes)
            result = frozenset(left | right)
        else:
            assert isinstance(expr, SharedCompose)
            head = expr.head
            if isinstance(head, HeadLeaf):
                collected: set = set()
                for successor in oracle.successors(head.query, node):
                    collected.update(vals(expr.tail, successor))
                result = frozenset(collected)
            elif isinstance(head, HeadVar):
                tail = vals(expr.tail, node)
                if head.name in output:
                    result = frozenset(v | {(head.name, node)} for v in tail)
                else:
                    result = tail
            else:
                assert isinstance(head, HeadFilter)
                inner = vals(head.inner, node)
                tail = vals(expr.tail, node)
                result = frozenset(a | b for a in inner for b in tail)
        vals_memo[key] = result
        return result

    partial: set = set()
    for node in nodes:
        partial.update(vals(shared, node))
    answers = set()
    for valuation in _extend(partial, output, nodes):
        binding = dict(valuation)
        answers.add(tuple(binding[name] for name in variables))
    return frozenset(answers)
