"""Fig. 8 plans: a sharing formula flattened into a DAG of instructions.

The MC table (Proposition 10) and the ``vals`` procedure (Fig. 8) both walk
the sub-formulas of ``D`` and the equations of ``Δ``.  :func:`compile_plan`
does that walk once per query rather than once per document: it numbers the
sub-formulas children-first, follows parameters to their equations, merges
structurally equal sub-formulas (hash-consing, so a repeated filter such as
``[child::author]`` gets one MC column), and records for every instruction
its static valuation domain ``Var(D0) ∩ output`` plus the column layouts the
valuation tables need.  The result is a flat tuple of plain tuples, so a
plan pickles as cheaply as the query it came from.

Instructions are ``(opcode, a, b)``:

* ``(SELF, None, None)`` — ``self``;
* ``(UNION, left, right)`` — ``D ∪ D'``;
* ``(LEAF, query, tail)`` — ``b/D`` for a binary query ``b``;
* ``(VAR, name, tail)`` — ``x/D``;
* ``(FILTER, inner, tail)`` — ``[D']/D``.

``left``/``right``/``tail``/``inner`` are indices of earlier instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import EvaluationError
from repro.hcl.sharing import (
    EquationSystem,
    HeadFilter,
    HeadLeaf,
    HeadVar,
    SharedCompose,
    SharedExpr,
    SharedParam,
    SharedSelf,
    SharedUnion,
)

SELF, UNION, LEAF, VAR, FILTER = range(5)


@dataclass(frozen=True)
class Fig8Plan:
    """A compiled Fig. 8 query: instructions plus per-output column layouts.

    Attributes
    ----------
    instructions:
        The DAG, children before parents.
    root:
        Index of the instruction for ``D`` itself.
    domains:
        Per instruction, the sorted variables of ``Var(D0) ∩ output``: the
        columns (after the start node) of its valuation table.
    users:
        Per instruction, how many instructions read it.  A table read by
        more than one instruction covers the union of their demands, so
        each reader keeps only its own start nodes.
    projected:
        Per instruction, True when no reader needs to know which start node
        a valuation belongs to: the root (whose start column is projected
        away), and the only child of a projected union, leaf or
        non-output variable.  A projected table keeps start 0 in every row,
        so valuations reached from many start nodes are stored once.
    layouts:
        Per instruction, the column selection that puts a joined or
        extended table into ``domains`` order (``None`` when the table
        passes through unchanged).  For a union it is one
        ``(missing_count, columns)`` pair per side.
    final:
        ``(missing_count, columns)`` turning the root's valuations into
        output tuples.
    """

    instructions: tuple[tuple, ...]
    root: int
    domains: tuple[tuple[str, ...], ...]
    users: tuple[int, ...]
    projected: tuple[bool, ...]
    layouts: tuple
    final: tuple[int, tuple[int, ...]]


def _children(expr: SharedExpr, system: EquationSystem) -> tuple[SharedExpr, ...]:
    if isinstance(expr, SharedParam):
        return (system.resolve(expr),)
    if isinstance(expr, SharedUnion):
        return (expr.left, expr.right)
    if isinstance(expr, SharedCompose):
        if isinstance(expr.head, HeadFilter):
            return (expr.head.inner, expr.tail)
        return (expr.tail,)
    if isinstance(expr, SharedSelf):
        return ()
    raise EvaluationError(f"unknown sharing formula {expr!r}")


def _instruction(expr: SharedExpr, index: dict[int, int]) -> tuple:
    if isinstance(expr, SharedSelf):
        return (SELF, None, None)
    if isinstance(expr, SharedUnion):
        return (UNION, index[id(expr.left)], index[id(expr.right)])
    head = expr.head
    tail = index[id(expr.tail)]
    if isinstance(head, HeadLeaf):
        return (LEAF, head.query, tail)
    if isinstance(head, HeadVar):
        return (VAR, head.name, tail)
    if isinstance(head, HeadFilter):
        return (FILTER, index[id(head.inner)], tail)
    raise EvaluationError(f"unknown head expression {head!r}")


def flatten(
    formula: SharedExpr, system: EquationSystem
) -> tuple[list[tuple], dict[int, int]]:
    """Number the sub-formulas of ``(D, Δ)`` children-first.

    Returns the instruction list and the map from ``id(sub-formula)`` to its
    instruction (a parameter maps to its equation's instruction).  The walk
    is iterative, so deep formulas do not hit the recursion limit.

    Raises
    ------
    EvaluationError
        If ``Δ`` is cyclic (the :class:`EquationSystem` construction rules
        this out; a hand-built system might not).
    """
    instructions: list[tuple] = []
    interned: dict[tuple, int] = {}
    index: dict[int, int] = {}
    open_ids: set[int] = set()
    stack: list[tuple[SharedExpr, bool]] = [(formula, False)]
    while stack:
        expr, expanded = stack.pop()
        key = id(expr)
        if key in index:
            continue
        children = _children(expr, system)
        if not expanded:
            if key in open_ids:
                raise EvaluationError("cyclic equation system")
            open_ids.add(key)
            stack.append((expr, True))
            stack.extend((child, False) for child in reversed(children))
            continue
        open_ids.discard(key)
        if isinstance(expr, SharedParam):
            index[key] = index[id(children[0])]
            continue
        instruction = _instruction(expr, index)
        position = interned.get(instruction)
        if position is None:
            position = len(instructions)
            instructions.append(instruction)
            interned[instruction] = position
        index[key] = position
    return instructions, index


def compile_plan(
    formula: SharedExpr,
    system: EquationSystem,
    output: Sequence[str] = (),
    index: Optional[dict[int, int]] = None,
) -> Fig8Plan:
    """Compile ``(D, Δ)`` for the output variables ``output``.

    ``index``, when given, receives the ``id(sub-formula) -> instruction``
    map of :func:`flatten` (the MC table uses it to answer per-formula
    lookups).
    """
    instructions, positions = flatten(formula, system)
    if index is not None:
        index.update(positions)
    wanted = frozenset(output)
    variables: list[frozenset[str]] = []
    users = [0] * len(instructions)
    for opcode, first, second in instructions:
        if opcode == SELF:
            variables.append(frozenset())
            continue
        if opcode == UNION or opcode == FILTER:
            users[first] += 1
            own = variables[first]
        elif opcode == VAR:
            own = frozenset({first})
        else:
            own = frozenset()
        users[second] += 1
        variables.append(own | variables[second])
    domains = tuple(tuple(sorted(names & wanted)) for names in variables)
    root = positions[id(formula)]
    projected = [False] * len(instructions)
    projected[root] = True
    for position in range(len(instructions) - 1, -1, -1):
        opcode, first, second = instructions[position]
        if not projected[position] or opcode in (SELF, FILTER):
            continue
        if opcode == VAR and first in wanted:
            continue  # the variable's value is the start node
        for child in (first, second) if opcode == UNION else (second,):
            projected[child] = users[child] == 1

    def select(columns: list[str], domain: tuple[str, ...]) -> tuple[int, ...]:
        # Column 0 is the start node; ``columns`` names the others.
        return (0,) + tuple(1 + columns.index(name) for name in domain)

    layouts: list = []
    for position, (opcode, first, second) in enumerate(instructions):
        domain = domains[position]
        if opcode == VAR and first in wanted:
            # The variable's column is a copy of the start column.
            tail = domains[second]
            layouts.append(
                (0,) + tuple(0 if name == first else 1 + tail.index(name) for name in domain)
            )
        elif opcode == FILTER:
            layouts.append(select(list(domains[first]) + list(domains[second]), domain))
        elif opcode == UNION:
            sides = []
            for side in (first, second):
                missing = [name for name in domain if name not in domains[side]]
                sides.append((len(missing), select(list(domains[side]) + missing, domain)))
            layouts.append(tuple(sides))
        else:
            layouts.append(None)
    missing = [name for name in sorted(set(output)) if name not in domains[root]]
    columns = list(domains[root]) + missing
    final = (len(missing), tuple(columns.index(name) for name in output))
    return Fig8Plan(
        instructions=tuple(instructions),
        root=root,
        domains=domains,
        users=tuple(users),
        projected=tuple(projected),
        layouts=tuple(layouts),
        final=final,
    )
